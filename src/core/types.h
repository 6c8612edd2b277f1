// Shared vocabulary types of the bandwidth broker's QoS control plane.

#ifndef QOSBB_CORE_TYPES_H_
#define QOSBB_CORE_TYPES_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sched/packet.h"
#include "traffic/profile.h"
#include "util/units.h"

namespace qosbb {

using PathId = std::int64_t;
using ClassId = std::int64_t;
constexpr PathId kInvalidPathId = -1;
constexpr ClassId kInvalidClassId = -1;

/// The rate–delay parameter pair ⟨r, d⟩ the BB assigns to a flow
/// (Section 2.1). `delay` is unused (0) on rate-based-only paths.
struct RateDelayPair {
  BitsPerSecond rate = 0.0;
  Seconds delay = 0.0;
};

/// Outcome of a per-flow admission: the reservation the BB pushes to the
/// ingress edge conditioner (via COPS in the paper; in-process here).
struct Reservation {
  FlowId flow = kInvalidFlowId;
  PathId path = kInvalidPathId;
  RateDelayPair params;
  /// End-to-end delay bound the reservation guarantees (<= the request).
  Seconds e2e_bound = 0.0;
  /// Lower-priority flows evicted to make room (preemption-enabled brokers
  /// only; empty otherwise). Their edge conditioners must be torn down.
  std::vector<FlowId> preempted;
};

/// Holding priority of a reservation: higher values may preempt lower ones
/// when the broker runs in preemption-enabled mode (standard telco-style
/// admission; 0 = best default, never preempts anything).
using FlowPriority = int;
constexpr FlowPriority kDefaultPriority = 0;

/// Client-assigned operation identity used for idempotent re-delivery: a
/// retried operation re-sends the SAME RequestId, and the durable broker's
/// dedup window replays the recorded decision instead of re-executing it.
/// kNoRequestId opts out of deduplication (fire-and-forget callers).
using RequestId = std::uint64_t;
constexpr RequestId kNoRequestId = 0;

/// New-flow service request message (ingress -> BB, Section 2.2).
struct FlowServiceRequest {
  TrafficProfile profile;
  Seconds e2e_delay_req = 0.0;  ///< D^{j,req}
  std::string ingress;
  std::string egress;
  FlowPriority priority = kDefaultPriority;
};

/// Grouped execution order of a batch of admission requests: stable
/// grouping by (ingress, egress) pair in first-appearance order, preserving
/// submission order within each group. The DEFINED semantics of a batch is
/// one-at-a-time execution in exactly this order — the concurrent front's
/// single-snapshot group path, the durable broker's group commit, and the
/// fuzz harness's sequential reference all execute it, which is what makes
/// batched and sequential runs bit-identical. (Defined in broker.cc.)
std::vector<std::size_t> batch_grouped_order(
    std::span<const FlowServiceRequest> requests);

/// One member of a mixed dispatch slab: an admit of `*request` or, with
/// `request` null, a release of `flow`. `rid` is the client's RequestId,
/// the durable broker's dedup key (unused in memory).
struct SlabOp {
  RequestId rid = kNoRequestId;
  const FlowServiceRequest* request = nullptr;  ///< admit; null = release
  FlowId flow = kInvalidFlowId;                 ///< release target

  static SlabOp admit(RequestId rid, const FlowServiceRequest& request) {
    return SlabOp{rid, &request, kInvalidFlowId};
  }
  static SlabOp release(RequestId rid, FlowId flow) {
    return SlabOp{rid, nullptr, flow};
  }
  bool is_admit() const { return request != nullptr; }
};

/// The execution order a mixed slab defines: each maximal run of
/// consecutive admits in batch_grouped_order over that run, each release in
/// its position. Overwrites `*order` (a reusable buffer) with slab indices.
void slab_execution_order(std::span<const SlabOp> ops,
                          std::vector<std::size_t>* order);

/// Reservation push (BB -> ingress edge conditioner): configure/reconfigure
/// the conditioner for this (macro)flow.
struct EdgeConditionerConfig {
  FlowId flow = kInvalidFlowId;
  BitsPerSecond rate = 0.0;
  Seconds delay_param = 0.0;
};

/// Why an admission attempt failed — reported back to the requester and
/// tallied by the flow-level simulator.
enum class RejectReason {
  kNone = 0,
  kPolicy,             // policy control module said no
  kNoPath,             // routing found no ingress->egress path
  kNoFeasibleRate,     // R*_fea empty (delay requirement unattainable)
  kInsufficientBandwidth,  // residual bandwidth along the path too small
  kEdfUnschedulable,   // VT-EDF schedulability (eq. 5/8) would be violated
  kInsufficientBuffer,  // a hop's buffer cannot hold the backlog bound
};

const char* reject_reason_name(RejectReason r);

}  // namespace qosbb

#endif  // QOSBB_CORE_TYPES_H_
