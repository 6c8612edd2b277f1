// Flow information base (Section 2.2, item 1): per-flow traffic profile,
// service profile, path, and the rate–delay reservation the BB assigned.

#ifndef QOSBB_CORE_FLOW_MIB_H_
#define QOSBB_CORE_FLOW_MIB_H_

#include <unordered_map>

#include "core/types.h"
#include "util/status.h"

namespace qosbb {

enum class FlowKind {
  kPerFlow,    // individually guaranteed flow (Section 3)
  kMicroflow,  // constituent of a class-based macroflow (Section 4)
};

struct FlowRecord {
  FlowId id = kInvalidFlowId;
  FlowKind kind = FlowKind::kPerFlow;
  TrafficProfile profile;
  Seconds e2e_delay_req = 0.0;
  PathId path = kInvalidPathId;
  RateDelayPair reservation;       ///< for microflows: their rate increment
  ClassId service_class = kInvalidClassId;  ///< microflows only
  Seconds admitted_at = 0.0;
};

class FlowMib {
 public:
  /// Allocate a fresh flow id (monotone; never reused).
  FlowId next_id() { return next_id_++; }
  /// The id next_id() hands out next, without allocating it (serialized in
  /// broker snapshots so a restore never reuses a released flow's id).
  FlowId upcoming_id() const { return next_id_; }
  /// Ensure future ids start after `id` (snapshot restore with preserved
  /// ids).
  void bump_next_id(FlowId id) {
    if (id >= next_id_) next_id_ = id + 1;
  }

  void add(FlowRecord rec);
  Result<FlowRecord> get(FlowId id) const;
  bool contains(FlowId id) const { return flows_.contains(id); }
  /// Removes and returns the record.
  Result<FlowRecord> remove(FlowId id);

  std::size_t count() const { return flows_.size(); }
  const std::unordered_map<FlowId, FlowRecord>& all() const { return flows_; }

 private:
  std::unordered_map<FlowId, FlowRecord> flows_;
  FlowId next_id_ = 1;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_FLOW_MIB_H_
