// Contingency bandwidth bookkeeping (Section 4.2.1).
//
// When a microflow joins or leaves a macroflow at time t*, the BB grants the
// macroflow Δr^ν extra bandwidth for a contingency period τ^ν so that the
// edge-conditioner backlog accumulated under the old reservation cannot
// inflate delays beyond eq. (13):
//   join  (Thm 2): Δr^ν >= P^ν − r^ν,  τ^ν >= Q(t*)/Δr^ν
//   leave (Thm 3): Δr^ν >= r^ν,        τ^ν >= Q(t*)/Δr^ν
// Two ways to pick τ^ν:
//   * bounding (eq. 17): τ̂ = d_edge_old · (r^α + Δr^α(t*)) / Δr^ν, using the
//     worst-case backlog bound (16) — conservative, no feedback needed;
//   * feedback: the edge conditioner reports its actual backlog Q(t*), and
//     additionally signals "buffer empty", upon which ALL contingency
//     bandwidth of the macroflow is released early.
// This class tracks the active grants; the link-bandwidth accounting lives
// in the class-based manager, which reserves/releases on the node MIB.

#ifndef QOSBB_CORE_CONTINGENCY_H_
#define QOSBB_CORE_CONTINGENCY_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace qosbb {

enum class ContingencyMethod {
  kBounding,  // theoretical contingency-period bounding, eq. (17)
  kFeedback,  // edge-conditioner backlog feedback
};

const char* contingency_method_name(ContingencyMethod m);

using GrantId = std::int64_t;
constexpr GrantId kInvalidGrantId = -1;

struct ContingencyGrant {
  GrantId id = kInvalidGrantId;
  FlowId macroflow = kInvalidFlowId;
  BitsPerSecond delta_r = 0.0;   ///< Δr^ν
  Seconds granted_at = 0.0;      ///< t*
  Seconds expires_at = 0.0;      ///< t* + τ^ν
  /// Edge delay bound in effect when this grant was issued — max of the
  /// pre-event bound and the post-event d_edge^α' (eq. 13). Used to keep
  /// the macroflow's lingering bound while the transient is alive.
  Seconds event_edge_bound = 0.0;
};

class ContingencyManager {
 public:
  GrantId add(FlowId macroflow, BitsPerSecond delta_r, Seconds now,
              Seconds tau, Seconds event_edge_bound);

  /// Remove a grant (timer expiry). Not-found is OK (it may have been
  /// removed early by a feedback drain) and reported via the Status.
  Result<ContingencyGrant> remove(GrantId id);
  /// Remove every grant of `macroflow` (feedback "buffer empty" message).
  std::vector<ContingencyGrant> remove_all(FlowId macroflow);

  /// Δr^α(t): total contingency bandwidth currently granted to `macroflow`.
  BitsPerSecond total(FlowId macroflow) const;
  /// Max event_edge_bound over the macroflow's active grants; 0 if none.
  Seconds max_event_edge_bound(FlowId macroflow) const;
  std::size_t active_count() const { return grants_.size(); }
  bool has_grants(FlowId macroflow) const;
  /// The id the next grant gets (serialized in broker snapshots, so grant
  /// ids are never reused across a restore).
  GrantId upcoming_id() const { return next_id_; }
  /// Ensure future ids are at least `id` (snapshot restore).
  void bump_next_id(GrantId id) { next_id_ = std::max(next_id_, id); }

 private:
  std::unordered_map<GrantId, ContingencyGrant> grants_;
  GrantId next_id_ = 1;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_CONTINGENCY_H_
