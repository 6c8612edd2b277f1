// The bandwidth broker (Figure 1) — the paper's core contribution.
//
// The BB owns ALL QoS control state of the domain: the flow, node, and path
// QoS state MIBs. Core routers hold none. Admission proceeds in the two
// phases of Section 2.2: an admissibility test over the path MIB snapshot,
// then a bookkeeping phase updating the MIBs; finally the reservation
// (⟨r, d⟩) is pushed to the ingress edge conditioner (the returned
// Reservation / EdgeConditionerConfig stands in for the COPS message).
//
// Per-flow guaranteed service uses the path-oriented algorithms of
// Section 3; class-based guaranteed service with dynamic flow aggregation
// delegates to the ClassBasedManager of Section 4.

#ifndef QOSBB_CORE_BROKER_H_
#define QOSBB_CORE_BROKER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/admission_engine.h"
#include "core/audit.h"
#include "core/classbased_admission.h"
#include "core/contingency.h"
#include "core/flow_mib.h"
#include "core/link_store.h"
#include "core/node_mib.h"
#include "core/path_mib.h"
#include "core/perflow_admission.h"
#include "core/policy.h"
#include "core/types.h"
#include "topo/graph.h"
#include "traffic/token_bucket.h"
#include "util/sync.h"

namespace qosbb {

class WireStream;

/// Per-flow path selection policy across the candidate routes the routing
/// module provisions for an ingress–egress pair.
enum class PathSelection {
  kMinHop,          // always the shortest path (the paper's setup)
  kWidestResidual,  // among k shortest, prefer max C_res^P, then fewer hops
};

struct BrokerOptions {
  ContingencyMethod contingency = ContingencyMethod::kFeedback;
  PathSelection path_selection = PathSelection::kMinHop;
  /// Number of candidate routes (Yen's k-shortest) the routing module
  /// provisions per endpoint pair. With kMinHop only the first is used for
  /// selection; the rest still serve as admission fallbacks.
  int k_paths = 1;
  /// When true, a request that fails on bandwidth may evict strictly
  /// lower-priority per-flow reservations from its path (cheapest-first)
  /// until it fits. Evicted flows are reported through the returned
  /// Reservation's `preempted` list so the caller can notify their owners.
  bool allow_preemption = false;
  /// Per-ingress signaling rate limit (requests/s; 0 = unlimited). Requests
  /// beyond the limit are rejected with kPolicy — BB overload protection.
  double max_request_rate_per_ingress = 0.0;
  /// Burst tolerance of the signaling limiter, in requests.
  double request_burst = 10.0;
};

/// Copyable relaxed atomic counter. Reads convert implicitly to the plain
/// integer, so existing `stats().requests == 30u`-style call sites compile
/// unchanged; increments from the concurrent front's worker threads are
/// lock-free. Relaxed ordering suffices — the counters are monotonic tallies
/// with no cross-counter invariants read concurrently.
class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(std::uint64_t v) : v_(v) {}  // NOLINT(google-explicit-...)
  StatCounter(const StatCounter& o) : v_(o.load()) {}
  StatCounter& operator=(const StatCounter& o) {
    v_.store(o.load(), std::memory_order_relaxed);
    return *this;
  }
  StatCounter& operator=(std::uint64_t v) {
    v_.store(v, std::memory_order_relaxed);
    return *this;
  }
  operator std::uint64_t() const { return load(); }  // NOLINT
  StatCounter& operator++() {
    v_.fetch_add(1, std::memory_order_relaxed);
    return *this;
  }
  std::uint64_t load() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Per-reason rejection tallies, indexed by RejectReason. A dense array of
/// atomic counters (the reason space is a small closed enum) instead of the
/// former std::map — no rebalancing or allocation, and concurrent increments
/// touch independent slots.
class RejectCounters {
 public:
  static constexpr std::size_t kReasonCount = 7;  // RejectReason cardinality

  StatCounter& operator[](RejectReason r) { return c_[idx(r)]; }
  const StatCounter& at(RejectReason r) const { return c_[idx(r)]; }
  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (const StatCounter& c : c_) n += c.load();
    return n;
  }

 private:
  static std::size_t idx(RejectReason r) {
    return static_cast<std::size_t>(r);
  }
  std::array<StatCounter, kReasonCount> c_;
};

struct BrokerStats {
  StatCounter requests;
  StatCounter admitted;
  RejectCounters rejected;

  std::uint64_t total_rejected() const;
  double blocking_rate() const;
};

class BandwidthBroker {
 public:
  explicit BandwidthBroker(const DomainSpec& spec, BrokerOptions options = {});

  BandwidthBroker(const BandwidthBroker&) = delete;
  BandwidthBroker& operator=(const BandwidthBroker&) = delete;

  // ---- Routing module ----
  /// Provision the candidate route set for ingress -> egress (idempotent)
  /// and return the primary (min-hop) path.
  Result<PathId> provision_path(const std::string& ingress,
                                const std::string& egress);
  /// All provisioned candidates for the pair, in preference order under the
  /// configured PathSelection policy (provisions them on first use).
  Result<std::vector<PathId>> candidate_paths(const std::string& ingress,
                                              const std::string& egress);

  // ---- Per-flow guaranteed service (Section 3) ----
  /// Full admission pipeline: policy check, path selection, path-oriented
  /// admissibility test, bookkeeping. Returns the reservation to install at
  /// the ingress edge conditioner.
  Result<Reservation> request_service(const FlowServiceRequest& request,
                                      Seconds now = 0.0);
  /// Tear down a per-flow reservation and release its resources.
  Status release_service(FlowId flow);
  /// Re-negotiate a live per-flow reservation to a new end-to-end delay
  /// requirement, atomically: the flow keeps its id and path; on failure
  /// the old reservation is untouched. The returned reservation is what
  /// the caller must push to the edge conditioner (the data-plane rate
  /// change is covered by the Theorem-4 extension).
  Result<Reservation> renegotiate_service(FlowId flow,
                                          Seconds new_delay_req,
                                          Seconds now = 0.0);
  /// The detailed outcome of the most recent admissibility test (reject
  /// reasons, Figure-4 scan length) — diagnostics for benches.
  const AdmissionOutcome& last_outcome() const { return last_outcome_; }

  // ---- Class-based guaranteed service (Section 4) ----
  ClassId define_class(Seconds e2e_delay, Seconds delay_param,
                       std::string name = {});
  /// Admit a microflow into a class between the given edge nodes.
  JoinResult request_class_service(ClassId cls, const TrafficProfile& profile,
                                   const std::string& ingress,
                                   const std::string& egress, Seconds now,
                                   std::optional<Bits> edge_backlog =
                                       std::nullopt);
  Result<LeaveResult> leave_class_service(FlowId microflow, Seconds now,
                                          std::optional<Bits> edge_backlog =
                                              std::nullopt);
  /// Contingency timer / feedback plumbing (Section 4.2.1).
  void expire_contingency(GrantId grant, Seconds now);
  void edge_buffer_empty(FlowId macroflow, Seconds now);

  // ---- Out-of-band link reservations ----
  /// Reserve bandwidth on a named link for a consumer outside the flow MIB
  /// (operator pinning, inter-broker quotas). Tracked by the broker so the
  /// reservation survives snapshot/restore and so state audits
  /// (oracle_check_state) can account for it.
  Status reserve_link_external(const std::string& link, BitsPerSecond amount);
  /// Release up to `amount` of a link's external reservation; returns the
  /// bandwidth actually released (clamped to what is held).
  Result<BitsPerSecond> release_link_external(const std::string& link,
                                              BitsPerSecond amount);
  /// Per-link external reservations, by link name ("from->to").
  const std::map<std::string, BitsPerSecond>& external_reserved() const {
    return external_;
  }

  // ---- State access ----
  const NodeMib& nodes() const { return store_.nodes(); }
  NodeMib& nodes() { return store_.nodes(); }
  /// The sharded link-state store (layer 1 of the decomposed broker). The
  /// concurrent front drives its snapshot/validate/commit API directly.
  LinkStateStore& store() { return store_; }
  const LinkStateStore& store() const { return store_; }
  const PathMib& paths() const { return paths_; }
  const FlowMib& flows() const { return flows_; }
  PolicyControl& policy() { return policy_; }
  ClassBasedManager& classes() { return classes_; }
  const ClassBasedManager& classes() const { return classes_; }
  const BrokerStats& stats() const { return stats_; }
  const DomainSpec& spec() const { return spec_; }
  const BrokerOptions& options() const { return options_; }
  const AuditLog& audit() const { return audit_; }
  AuditLog& audit() { return audit_; }

  // ---- Crash recovery (core/snapshot.cc) ----
  /// Serialize the broker's QoS control state (flow records, paths,
  /// classes, macroflows) into a self-describing wire frame. Requires a
  /// QUIESCENT broker: no active contingency grants (transients cannot be
  /// checkpointed consistently; wait for them to settle). The domain spec
  /// itself is NOT serialized — restore takes it as input, as a real
  /// recovery would read it from configuration. The frame is verified by a
  /// scratch restore before it is returned (see snapshot.cc).
  Result<std::vector<std::uint8_t>> snapshot() const;
  /// Byte length of the frame snapshot() returns, from a sizing pass over
  /// the encoder (nothing is encoded). Requires quiescence.
  std::size_t snapshot_size() const;
  /// Stream the frame snapshot() returns through `out`, without the
  /// scratch-restore self-check: at most one WireStream chunk of it is
  /// ever in memory. `size` is snapshot_size() of the unchanged state.
  /// Requires quiescence.
  void write_snapshot(WireStream& out, std::size_t size) const;
  /// Rebuild a broker from `spec` + a snapshot frame: all flow/class state
  /// is restored with the ORIGINAL ids, then every link ledger is booked
  /// from those records by the same routine rebase_ledgers ends with, so
  /// the bookkeeping is consistent by construction.
  static Result<std::unique_ptr<BandwidthBroker>> restore(
      const DomainSpec& spec, BrokerOptions options,
      const std::vector<std::uint8_t>& frame);
  /// The id counters a snapshot does not carry. A journal anchor stores
  /// them beside its snapshot, so a recovered broker hands out the ids the
  /// live one would have: flow and grant ids are never reused.
  struct IdCounters {
    FlowId next_flow = 1;
    GrantId next_grant = 1;
  };
  IdCounters id_counters() const {
    return {flows_.upcoming_id(), classes_.next_grant_id()};
  }
  /// Raise the counters to at least `ids` (after restore()).
  void restore_id_counters(const IdCounters& ids) {
    flows_.bump_next_id(ids.next_flow - 1);
    classes_.restore_next_grant_id(ids.next_grant);
  }
  /// In-place ledger rebase: clear every link ledger (rates, buffers, EDF
  /// buckets, knot caches, pre-filter mirrors) and re-book the per-flow,
  /// macroflow and external records in ascending id order, exactly as
  /// restore() does; the signaling-rate limiters restart full, as after a
  /// restore. Afterwards the broker is bit-identical to restore() of its
  /// own snapshot, without building one. Versions only move forward.
  /// Self-check: each link's reserved rate and buffer are saved first and
  /// must match the re-booked values within float re-summation slack;
  /// kFailedPrecondition names the first link where the records did not
  /// explain the ledger (a booking made behind the broker's back, which
  /// the rebase has now dropped). kUnavailable while contingency grants
  /// are live.
  Status rebase_ledgers();

  /// Assemble the admissibility-test snapshot for a path (exposed for tests
  /// and benches that call the Section-3 algorithms directly). Allocation
  /// free: the view's spans alias the path MIB's cached link arrays.
  PathView path_view(PathId path) const;
  /// C_res^P of a provisioned path.
  BitsPerSecond path_residual(PathId path) const;
  /// Live per-flow count admitted from an ingress (policy input).
  std::size_t flows_from_ingress(const std::string& ingress) const;

 private:
  /// Apply / reverse the per-link bookkeeping of a committed reservation.
  void book_reservation(const PathRecord& rec, const RateDelayPair& params,
                        const TrafficProfile& profile);
  void unbook_reservation(const PathRecord& rec, const RateDelayPair& params,
                          const TrafficProfile& profile);
  /// Signaling-rate limiter gate (BrokerOptions::max_request_rate_per_
  /// ingress). Callers must pass non-decreasing `now` for refill to work.
  bool request_rate_ok(const std::string& ingress, Seconds now);
  /// Candidate routes in preference order without copying: points into the
  /// path MIB (kMinHop) or into candidates_scratch_ (kWidestResidual). The
  /// result is invalidated by the next candidate_paths_ref call.
  Result<const std::vector<PathId>*> candidate_paths_ref(
      const std::string& ingress, const std::string& egress);
  /// Preemption: evict strictly lower-priority per-flow reservations from
  /// one of `candidates` until `request` fits. On success returns the path
  /// and the evicted flow ids (already released); on failure restores
  /// everything and returns nullopt.
  std::optional<std::pair<PathId, std::vector<FlowId>>> try_preempt(
      const FlowServiceRequest& request, const std::vector<PathId>& candidates);

  /// The snapshot body encoder (core/snapshot.cc), over a WireWriter, a
  /// WireStream or a WireSizer.
  template <typename Writer>
  void encode_snapshot_body(Writer& w) const;
  /// Clear every link ledger and book the records, in the canonical order
  /// (restore and rebase_ledgers). Fails only when an external reservation
  /// no longer fits.
  Status rebook_ledgers();

  friend class ConcurrentBrokerFront;

  DomainSpec spec_;
  Graph graph_;
  BrokerOptions options_;
  /// All per-link QoS state, behind the sharded store. The broker's own
  /// (sequential) code paths use store_.nodes() directly; the concurrent
  /// front uses the store's locked snapshot/commit protocol.
  LinkStateStore store_;
  PathMib paths_;
  FlowMib flows_;
  PolicyControl policy_;
  ClassBasedManager classes_;
  BrokerStats stats_;
  AdmissionOutcome last_outcome_;
  AuditLog audit_;
  /// Live per-flow count per ingress (policy input; O(1) at request time).
  std::unordered_map<std::string, std::size_t> ingress_flows_;
  /// Out-of-band link reservations (reserve_link_external), by link name.
  /// std::map: deterministic iteration for snapshot serialization.
  std::map<std::string, BitsPerSecond> external_;
  /// Per-ingress signaling-rate limiters (created lazily when configured).
  /// Own mutex so the concurrent front's admit fast path can gate requests
  /// without serializing on anything wider; sequential callers pay one
  /// uncontended lock only when a limit is actually configured.
  Mutex limiter_mu_;
  std::unordered_map<std::string, TokenBucket> limiters_
      GUARDED_BY(limiter_mu_);
  /// Reusable buffers for the §3.2 scan — the broker's own sequential
  /// entry points allocate nothing in steady state (the concurrent front
  /// uses thread-local scratch instead).
  AdmissionScratch scratch_;
  /// Reusable bookkeeping delta for book/unbook (sequential entry points).
  BookingDelta delta_scratch_;
  /// Reorder buffer for kWidestResidual candidate sorting.
  std::vector<PathId> candidates_scratch_;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_BROKER_H_
