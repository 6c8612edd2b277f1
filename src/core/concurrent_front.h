// Concurrent service front (tentpole layer 3 of the decomposed broker).
//
// Wraps a BandwidthBroker and runs independent per-flow requests
// concurrently: the admit fast path takes an immutable PathSnapshot from
// the LinkStateStore, tests it lock-free through the stateless
// AdmissionEngine, and commits the BookingDelta optimistically (validate
// per-link state_versions under ordered shard locks, retry on conflict).
// Requests on disjoint paths never contend on anything wider than their
// shard mutexes and the flow-table mutex; overlapping requests serialize
// through version conflicts, each retry observing the fresh state — the
// final MIB state is what SOME sequential ordering of the committed
// operations produces.
//
// Every request returns its own FrontOutcome (decision + diagnostics);
// nothing reads the wrapped broker's mutable last_outcome_ concurrently.
//
// Operations outside the per-flow fast path — class-based service,
// external link reservations, path provisioning, snapshots, preemption,
// widest-residual selection — delegate to the sequential broker under the
// exclusive mode of `big_`, so their single-writer assumptions still hold.
//
// Lock hierarchy (outer to inner): big_ (shared for the fast path,
// exclusive for delegation) -> flow_mu_ (flow table, ingress counts,
// audit log) -> shard mutexes (leaves; always through ShardLockSet in
// ascending shard order). The admit path never holds shard locks while
// acquiring flow_mu_.

#ifndef QOSBB_CORE_CONCURRENT_FRONT_H_
#define QOSBB_CORE_CONCURRENT_FRONT_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/admission_engine.h"
#include "core/broker.h"
#include "core/types.h"
#include "util/status.h"
#include "util/sync.h"

namespace qosbb {

/// Fixed-size worker pool running queued closures. Deliberately built on
/// plain std::mutex / std::condition_variable rather than the annotated
/// wrappers: condition_variable::wait takes std::unique_lock<std::mutex>,
/// and threading the annotated type through that libstdc++ template only
/// manufactures thread-safety-analysis false positives. The pool's locking
/// is self-contained in this class.
class WorkerPool {
 public:
  explicit WorkerPool(int threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Queue `fn` for execution on some worker; the future carries its
  /// result (or exception).
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F&>> {
    using R = std::invoke_result_t<F&>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> g(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

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
  /// must go through the front or be externally quiesced.
  ConcurrentBrokerFront(BandwidthBroker& bb, int threads);

  ConcurrentBrokerFront(const ConcurrentBrokerFront&) = delete;
  ConcurrentBrokerFront& operator=(const ConcurrentBrokerFront&) = delete;

  // ---- Per-flow service (callable from any thread) ----
  FrontOutcome request_service(const FlowServiceRequest& request,
                               Seconds now = 0.0);
  Status release_service(FlowId flow);
  FrontOutcome renegotiate_service(FlowId flow, Seconds new_delay_req,
                                   Seconds now = 0.0);

  /// Mixed slab of admits and releases, executed in slab_execution_order:
  /// each maximal admit run in batch_grouped_order, each release in its
  /// position. Decisions and state are those of one-at-a-time
  /// request_service / release_service calls in that order, but an admit
  /// run pays the per-path costs once per GROUP of same-pair members
  /// instead of once per request: one PathSnapshot capture, one shard-lock
  /// acquisition for the group's OCC validate/commit
  /// (LinkStateStore::try_commit_batch), and one flow-table mutex hold for
  /// the bookkeeping of every member. Members after the first are tested
  /// against a locally EVOLVED snapshot (LinkSnapshot::apply_booking), so
  /// their verdicts are bit-identical to what they would have seen live
  /// after the earlier members committed. If the group commit loses its OCC
  /// validation, only the conflicting residue falls back to the
  /// per-request retry loop. `outs` (sized like `ops`, reused by the
  /// caller) receives one outcome per member, indexed by position; a
  /// release's is FrontOutcome::release.
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

  /// submit_batch dispatched onto the worker pool.
  std::future<std::vector<FrontOutcome>> submit_batch_request(
      std::vector<FlowServiceRequest> requests, Seconds now = 0.0) {
    return pool_.submit([this, requests = std::move(requests), now] {
      return submit_batch(requests, now);
    });
  }

  // ---- Same, dispatched onto the worker pool ----
  std::future<FrontOutcome> submit_request(FlowServiceRequest request,
                                           Seconds now = 0.0) {
    return pool_.submit(
        [this, request = std::move(request), now]() mutable {
          return request_service(request, now);
        });
  }
  std::future<Status> submit_release(FlowId flow) {
    return pool_.submit([this, flow] { return release_service(flow); });
  }
  std::future<FrontOutcome> submit_renegotiate(FlowId flow,
                                               Seconds new_delay_req,
                                               Seconds now = 0.0) {
    return pool_.submit([this, flow, new_delay_req, now] {
      return renegotiate_service(flow, new_delay_req, now);
    });
  }

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
  int threads() const { return pool_.size(); }
  WorkerPool& pool() { return pool_; }

  /// Optimistic-commit conflicts observed (each one is a retried admit —
  /// evidence of genuine concurrency on overlapping paths, and of its
  /// absence on disjoint ones).
  std::uint64_t occ_conflicts() const { return occ_conflicts_.load(); }

  /// Counters of the lock-free admission pre-filter (relaxed-atomic
  /// utilization mirrors on each link). The pre-filter is a verified hint:
  /// its prediction never replaces the full §3.1/§3.2 test — the engine
  /// verdict is always computed and always wins. `checked` counts requests
  /// where the pre-filter committed to a verdict (fast-accept or
  /// fast-reject), `agreed` how many of those matched the authoritative
  /// test. Against quiescent state (every prior operation fully committed,
  /// as in the barrier-sequentialized fuzz harness) the mirrors equal the
  /// locked state bit-for-bit and the pre-filter replicates the admission
  /// comparisons exactly, so agreed == checked is an invariant there; under
  /// live concurrency the mirrors may lag and a disagreement just means the
  /// hint was stale.
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
  /// The optimistic admit fast path, under shared big_. Returns false when
  /// the pair has no provisioned path yet (caller escalates to exclusive).
  bool try_request_fast(const FlowServiceRequest& request, Seconds now,
                        FrontOutcome* out);
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
  /// fast path only ever reads it. Caller holds big_ exclusively.
  void warm_path_caches() REQUIRES(big_);
  /// Minimal live residual over `links` — caller must hold the covering
  /// shard locks.
  static BitsPerSecond residual_over(
      const std::vector<const LinkQosState*>& links);
  /// The single-snapshot group path of execute_batch: all of `members`
  /// (indices into `ops`, all admits) share one (ingress, egress) pair.
  /// Returns false when the group shape is not handled (no / multiple
  /// provisioned candidates) and the caller should fall back to per-member
  /// request_service in grouped order.
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
  /// Fast-path eligibility, fixed by the wrapped broker's options: min-hop
  /// selection without preemption. Anything else falls back to exclusive
  /// delegation (trivially serialization-equivalent).
  const bool fast_eligible_;
  SharedMutex big_;
  /// Protects the flow table, ingress counts, and audit log of the wrapped
  /// broker during fast-path operation.
  Mutex flow_mu_ ACQUIRED_AFTER(big_);
  std::atomic<std::uint64_t> occ_conflicts_{0};
  std::atomic<std::uint64_t> prefilter_checked_{0};
  std::atomic<std::uint64_t> prefilter_predicted_admit_{0};
  std::atomic<std::uint64_t> prefilter_predicted_reject_{0};
  std::atomic<std::uint64_t> prefilter_agreed_{0};
  WorkerPool pool_;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_CONCURRENT_FRONT_H_
