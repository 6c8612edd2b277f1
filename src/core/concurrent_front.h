// Concurrent service front (tentpole layer 3 of the decomposed broker).
//
// Wraps a BandwidthBroker and runs independent per-flow requests
// concurrently from the caller's threads (the front owns none). Every
// admit goes through one path, the group path: a maximal run of same-pair
// admits takes one immutable PathSnapshot from the LinkStateStore, tests
// each member lock-free through the stateless AdmissionEngine against the
// snapshot evolved by the members before it, and commits the group's
// BookingDeltas optimistically (validate per-link state_versions under
// ordered shard locks, retry on conflict). request_service is a
// one-member group. Requests on disjoint paths never contend on anything
// wider than their shard mutexes and the flow-table mutex; overlapping
// requests serialize through version conflicts, each retry observing the
// fresh state — the final MIB state is what SOME sequential ordering of
// the committed operations produces.
//
// Every request returns its own FrontOutcome (decision + diagnostics);
// nothing reads the wrapped broker's mutable last_outcome_ concurrently.
//
// Groups the group path declines (unprovisioned pair, more than one
// candidate path, widest-residual selection or preemption) and operations
// outside the per-flow path — class-based service, external link
// reservations, path provisioning, snapshots — run on the sequential
// broker under the exclusive mode of `big_`, so their single-writer
// assumptions still hold.
//
// Lock hierarchy (outer to inner): big_ (shared for the group path,
// exclusive for delegation) -> flow_mu_ (flow table, ingress counts,
// audit log) -> shard mutexes (leaves; always through ShardLockSet in
// ascending shard order). The admit path never holds shard locks while
// acquiring flow_mu_.

#ifndef QOSBB_CORE_CONCURRENT_FRONT_H_
#define QOSBB_CORE_CONCURRENT_FRONT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "core/admission_engine.h"
#include "core/broker.h"
#include "core/types.h"
#include "util/status.h"
#include "util/sync.h"

namespace qosbb {

/// Decision + diagnostics of one front request — the per-request
/// replacement for BandwidthBroker::last_outcome().
struct FrontOutcome {
  Result<Reservation> result = Status::rejected("unset");
  AdmissionOutcome outcome;

  /// A release's outcome: its Status, or on success a Reservation whose
  /// only set field is `flow`.
  static FrontOutcome release(const Status& s, FlowId flow) {
    if (!s.is_ok()) return FrontOutcome{s, {}};
    FrontOutcome out{Reservation{}, {}};
    out.result.value().flow = flow;
    return out;
  }
};

class ConcurrentBrokerFront {
 public:
  /// Wrap `bb`. The front assumes sole ownership of the broker's mutation
  /// for its lifetime: all access (including reads from other threads)
  /// must go through the front or be externally quiesced. The ignored
  /// `int` is kept only for the benchmark harness, which still constructs
  /// `ConcurrentBrokerFront(bb, 1)`.
  explicit ConcurrentBrokerFront(BandwidthBroker& bb, int /*unused*/ = 0);

  ConcurrentBrokerFront(const ConcurrentBrokerFront&) = delete;
  ConcurrentBrokerFront& operator=(const ConcurrentBrokerFront&) = delete;

  // ---- Per-flow service (callable from any thread) ----
  /// A one-member execute_ordered.
  FrontOutcome request_service(const FlowServiceRequest& request,
                               Seconds now = 0.0);
  Status release_service(FlowId flow);
  FrontOutcome renegotiate_service(FlowId flow, Seconds new_delay_req,
                                   Seconds now = 0.0);

  /// Mixed slab of admits and releases, executed in slab_execution_order:
  /// each maximal admit run in batch_grouped_order, each release in its
  /// position. Decisions and state are those of the sequential broker
  /// admitting and releasing one at a time in that order, but an admit
  /// run pays the per-path costs once per GROUP of same-pair members
  /// instead of once per request: one PathSnapshot capture, one shard-lock
  /// acquisition for the group's OCC validate/commit
  /// (LinkStateStore::try_commit_batch), and one flow-table mutex hold for
  /// the bookkeeping of every member. Members after the first are tested
  /// against a locally EVOLVED snapshot (LinkSnapshot::apply_booking), so
  /// their verdicts are bit-identical to what they would have seen live
  /// after the earlier members committed. If the group commit loses its OCC
  /// validation, the members that passed phase 0 re-run one at a time
  /// through a snapshot/test/commit retry loop. `outs` (sized like `ops`,
  /// reused by the caller) receives one outcome per member, indexed by
  /// position; a release's is FrontOutcome::release.
  void execute_batch(std::span<const SlabOp> ops, Seconds now,
                     std::span<FrontOutcome> outs);
  /// execute_batch over the members `order` lists (indices into `ops`), in
  /// that order: a caller that has already dropped members (the durable
  /// broker's dedup) passes the rest in slab_execution_order. Same-pair
  /// admits adjacent in `order` share one group; only the listed members'
  /// outcomes are written.
  void execute_ordered(std::span<const SlabOp> ops,
                       std::span<const std::size_t> order, Seconds now,
                       std::span<FrontOutcome> outs);

  /// An admit-only slab: execute_batch over one admit run. Outcomes are
  /// indexed by submission position.
  std::vector<FrontOutcome> submit_batch(
      std::span<const FlowServiceRequest> requests, Seconds now = 0.0);

  /// Run `fn(broker)` with the domain quiesced (exclusive big_ lock): class
  /// service, external link reservations, provisioning, snapshot/restore,
  /// policy edits — anything relying on the broker's sequential-control
  /// assumptions. Path caches are re-warmed afterwards in case `fn`
  /// provisioned new paths.
  template <typename F>
  auto exclusive(F&& fn) -> std::invoke_result_t<F&, BandwidthBroker&> {
    using R = std::invoke_result_t<F&, BandwidthBroker&>;
    ExclusiveLock guard(big_);
    if constexpr (std::is_void_v<R>) {
      fn(bb_);
      warm_path_caches();
    } else {
      R out = fn(bb_);
      warm_path_caches();
      return out;
    }
  }

  BandwidthBroker& broker() { return bb_; }

  /// Optimistic-commit conflicts observed (each one is a retried group or
  /// member — evidence of genuine concurrency on overlapping paths, and of
  /// its absence on disjoint ones).
  std::uint64_t occ_conflicts() const { return occ_conflicts_.load(); }

  /// Counters of the admission pre-filter, which predicts each group
  /// member's verdict from the per-link headroom scalars of the group's
  /// evolved snapshot. The pre-filter is a verified hint: its prediction
  /// never replaces the full §3.1/§3.2 test — the engine verdict is always
  /// computed and always wins. `checked` counts requests where the
  /// pre-filter committed to a verdict (fast-accept or fast-reject),
  /// `agreed` how many of those matched the authoritative test. Both read
  /// the same snapshot, and the pre-filter replicates the admission
  /// comparisons exactly, so agreed == checked is an invariant.
  struct PrefilterStats {
    std::uint64_t checked = 0;
    std::uint64_t predicted_admit = 0;
    std::uint64_t predicted_reject = 0;
    std::uint64_t agreed = 0;
  };
  PrefilterStats prefilter_stats() const {
    return {prefilter_checked_.load(), prefilter_predicted_admit_.load(),
            prefilter_predicted_reject_.load(), prefilter_agreed_.load()};
  }

 private:
  /// One admit on the sequential broker under exclusive big_.
  FrontOutcome request_exclusive(const FlowServiceRequest& request,
                                 Seconds now);
  /// Audit entry of an admit request, before its decision.
  static AuditEntry request_audit(const FlowServiceRequest& request,
                                  Seconds now);
  /// Phase 0 of an admit: the signaling rate limiter, then policy control
  /// over the ingress's live flows plus `pending` not yet booked. On a
  /// reject, fills `outcome` and the status/audit `detail` and returns
  /// false.
  bool phase0_ok(const FlowServiceRequest& request, Seconds now,
                 std::size_t pending, AdmissionOutcome* outcome,
                 std::string* detail);
  /// Book a reject (stats, audit) and fill `out`. `detail` is the status
  /// and audit text.
  void book_reject(const AdmissionOutcome& outcome, const std::string& detail,
                   AuditEntry& audit, FrontOutcome* out) REQUIRES(flow_mu_);
  /// Book an admit on `path` (flow table, ingress count, stats, audit with
  /// the post-commit `residual`) and fill `out`.
  void book_admit(const FlowServiceRequest& request, PathId path,
                  const AdmissionOutcome& outcome, BitsPerSecond residual,
                  Seconds now, AuditEntry& audit, FrontOutcome* out)
      REQUIRES(flow_mu_);
  /// Resolve every provisioned path's link-pointer cache so the concurrent
  /// group path only ever reads it. Caller holds big_ exclusively.
  void warm_path_caches() REQUIRES(big_);
  /// Minimal live residual over `links` — caller must hold the covering
  /// shard locks.
  static BitsPerSecond residual_over(
      const std::vector<const LinkQosState*>& links);
  /// The single-snapshot group path of execute_batch: all of `members`
  /// (indices into `ops`, all admits) share one (ingress, egress) pair.
  /// Returns false when the group shape is not handled (no / multiple
  /// provisioned candidates) and the caller should run each member through
  /// request_exclusive in grouped order.
  bool try_group_fast(std::span<const std::size_t> members,
                      std::span<const SlabOp> ops, Seconds now,
                      std::span<FrontOutcome> outs);
  /// Record one committed pre-filter prediction against the authoritative
  /// verdict.
  void record_prefilter(bool predicted_admit, bool actual_admit) {
    prefilter_checked_.fetch_add(1, std::memory_order_relaxed);
    (predicted_admit ? prefilter_predicted_admit_ : prefilter_predicted_reject_)
        .fetch_add(1, std::memory_order_relaxed);
    if (predicted_admit == actual_admit) {
      prefilter_agreed_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  BandwidthBroker& bb_;
  /// Group-path eligibility, fixed by the wrapped broker's options: min-hop
  /// selection without preemption. Anything else falls back to exclusive
  /// delegation (trivially serialization-equivalent).
  const bool fast_eligible_;
  SharedMutex big_;
  /// Protects the flow table, ingress counts, and audit log of the wrapped
  /// broker during group-path operation.
  Mutex flow_mu_ ACQUIRED_AFTER(big_);
  std::atomic<std::uint64_t> occ_conflicts_{0};
  std::atomic<std::uint64_t> prefilter_checked_{0};
  std::atomic<std::uint64_t> prefilter_predicted_admit_{0};
  std::atomic<std::uint64_t> prefilter_predicted_reject_{0};
  std::atomic<std::uint64_t> prefilter_agreed_{0};
};

}  // namespace qosbb

#endif  // QOSBB_CORE_CONCURRENT_FRONT_H_
