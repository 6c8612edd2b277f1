// Node QoS state information base (Section 2.2, item 2).
//
// For every outgoing link (scheduler) in the domain the BB records: the
// bandwidth C_i, scheduler type (rate- or delay-based) and error term Ψ_i,
// and the current QoS reservations. For delay-based (VT-EDF) schedulers the
// MIB additionally keeps the multiset of ⟨r_j, d_j, L_j⟩ reservations, from
// which the residual-service values S_i^k of Section 3.2 are computed:
//   S_i^k = C_i·d^k − Σ_{j: d_j <= d^k} [r_j (d^k − d_j) + L_j].
// Core routers hold NONE of this state — that is the paper's point.

#ifndef QOSBB_CORE_NODE_MIB_H_
#define QOSBB_CORE_NODE_MIB_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/types.h"
#include "topo/fig8.h"
#include "util/status.h"
#include "util/units.h"

namespace qosbb {

/// Struct-of-arrays knot cache of an EDF reservation set, ascending in d.
/// Index k holds the distinct delay d^k, the per-bucket sums at d^k, the
/// prefix sums over all knots <= d^k, and the residual service S^k = R(d^k).
/// The columnar layout keeps the §3.2 Figure-4 scan
///   S^k < r·(d^k − d) + L
/// a loop over dense contiguous doubles, which the compiler vectorizes; the
/// AoS KnotPrefix layout it replaces strided every field by 32 bytes.
///
/// The bucket columns carry the SAME per-delay sums as the edf_buckets()
/// map, so a snapshot can evolve a copy incrementally (insert_entry) and
/// land on prefixes bit-identical to a from-scratch rebuild after the same
/// mutation — float prefix sums are not invertible, bucket sums are.
struct KnotArray {
  std::vector<Seconds> d;           ///< distinct delays d^k, ascending
  std::vector<double> bucket_rate;  ///< Σ r_j of the bucket at d^k
  std::vector<double> bucket_l;     ///< Σ L_j of the bucket at d^k
  std::vector<double> rate_sum;     ///< Σ r_j over knots <= d^k
  std::vector<double> fixed_sum;    ///< Σ (L_j − r_j·d_j) over knots <= d^k
  std::vector<double> s;            ///< S^k = C·d^k − (rate_sum·d^k + fixed_sum)

  std::size_t size() const { return d.size(); }
  bool empty() const { return d.empty(); }
  void clear();
  void reserve(std::size_t n);
  /// Append one bucket column (d strictly ascending); prefixes are NOT
  /// updated — call recompute_prefixes() after the last bucket.
  void push_bucket(Seconds delay, double sum_rate, double sum_l);
  /// Recompute rate_sum/fixed_sum/s from the bucket columns with the exact
  /// arithmetic of LinkQosState::rebuild_knot_cache: the same left-to-right
  /// walk over the same bucket sums yields bit-identical prefixes, which is
  /// what lets an evolved snapshot (LinkSnapshot::apply_booking) match the
  /// live MIB after commit to the last ulp.
  void recompute_prefixes(double capacity);
  /// Same walk, resumed at knot `from` with the accumulated sums stored at
  /// `from − 1` — bit-identical to the full walk (prefix accumulation is
  /// left-to-right), at suffix-only cost after a single-knot mutation.
  void recompute_prefixes_from(double capacity, std::size_t from);
  /// Upsert one entry ⟨r, d, L⟩ into the bucket columns (the snapshot-side
  /// mirror of add_edf_entry) and recompute the prefixes.
  void insert_entry(double capacity, double r, Seconds delay, double l_max);
  /// Index of the first knot with d[k] >= t / d[k] > t.
  std::size_t lower_bound(Seconds t) const;
  std::size_t upper_bound(Seconds t) const;
};

/// QoS reservation state of one link (one scheduler).
class LinkQosState {
 public:
  LinkQosState(std::string name, BitsPerSecond capacity, SchedPolicy policy,
               Seconds error_term, Seconds propagation_delay,
               Bits buffer_capacity);

  // Path caches hold pointers into the MIB map, so link state lives pinned
  // there — never copied or moved.
  LinkQosState(const LinkQosState&) = delete;
  LinkQosState& operator=(const LinkQosState&) = delete;

  const std::string& name() const { return name_; }
  BitsPerSecond capacity() const { return capacity_; }
  SchedPolicy policy() const { return policy_; }
  bool delay_based() const;
  Seconds error_term() const { return error_term_; }
  Seconds propagation_delay() const { return propagation_delay_; }

  BitsPerSecond reserved() const { return reserved_; }
  BitsPerSecond residual() const { return capacity_ - reserved_; }
  std::size_t flow_count() const { return flows_; }

  /// Monotone counter bumped on every successful reserve()/release(), i.e.
  /// whenever residual() changes. Lets path-level caches (C_res^P) detect
  /// staleness with one integer load per hop instead of recomputing.
  std::uint64_t rate_version() const { return rate_version_; }

  /// Monotone counter bumped by EVERY admission-relevant mutation (rate,
  /// buffer, and EDF bookkeeping). The optimistic snapshot/validate/commit
  /// protocol records it at snapshot time and re-checks it under the shard
  /// lock before committing: an unchanged value proves the link's state is
  /// exactly what the admissibility test saw (monotonicity rules out ABA).
  std::uint64_t state_version() const { return state_version_; }

  /// Reserve `r` b/s (rate-based bookkeeping; also the Σr <= C slope
  /// condition of VT-EDF). Fails if residual is insufficient. Pure
  /// bandwidth accounting: flow counting is separate (note_flow_added)
  /// because contingency grants adjust bandwidth several times per flow.
  Status reserve(BitsPerSecond r);
  void release(BitsPerSecond r);
  void note_flow_added() { ++flows_; }
  void note_flow_removed();

  // --- Buffer accounting (Section 2.2 lists buffer capacity in the node
  // MIB). The per-hop backlog bound of a reservation is linear in its
  // rate (see per_hop_buffer_bound in vtrs/delay_bounds.h). ---
  Bits buffer_capacity() const { return buffer_capacity_; }
  Bits buffer_reserved() const { return buffer_reserved_; }
  Bits buffer_residual() const { return buffer_capacity_ - buffer_reserved_; }
  Status reserve_buffer(Bits b);
  void release_buffer(Bits b);

  /// Drop every reservation: reserved rate and buffer, flow count and EDF
  /// entries (the knot cache rebuilds lazily, empty). The versions are
  /// bumped, never reset, so OCC validation and path caches see a change.
  /// The first step of the broker's ledger rebase, which re-books every
  /// reservation from the flow records right after.
  void clear_ledger();

  /// Install / remove a delay-based reservation entry ⟨r, d, L⟩. Valid only
  /// on delay-based links; `reserve`/`release` must be called separately
  /// (the broker's bookkeeping keeps both in sync).
  void add_edf_entry(BitsPerSecond r, Seconds d, Bits l_max);
  void remove_edf_entry(BitsPerSecond r, Seconds d, Bits l_max);

  /// Distinct delay parameters with aggregate demand per delay.
  struct EdfBucket {
    BitsPerSecond sum_rate = 0.0;
    Bits sum_l = 0.0;
    std::size_t count = 0;
  };
  const std::map<Seconds, EdfBucket>& edf_buckets() const { return edf_; }

  /// The sorted knot array with prefix sums, ascending in d (struct-of-
  /// arrays; see KnotArray). Rebuilt lazily (dirty flag set by
  /// add/remove_edf_entry) with the exact arithmetic of a from-scratch
  /// walk, so cached values are bit-identical to recomputation. The
  /// returned reference stays valid until the next EDF mutation.
  const KnotArray& knot_prefixes() const {
    if (knots_dirty_) rebuild_knot_cache();
    return *knot_cache_;
  }

  /// Shared ownership of the current knot array for immutable per-request
  /// snapshots (LinkSnapshot). The array behind the pointer is never mutated
  /// in place: rebuilds publish a fresh (double-buffered) array, so holders
  /// keep a consistent copy for free while the link moves on. Callers in
  /// concurrent mode must hold the link's shard lock for the duration of
  /// this call (the rebuild mutates the cache slots).
  std::shared_ptr<const KnotArray> knots_shared() const {
    if (knots_dirty_) rebuild_knot_cache();
    return knot_cache_;
  }

  /// Whether the knot cache is pending a rebuild (differential-test hook).
  bool knots_dirty() const { return knots_dirty_; }
  /// The raw cached array WITHOUT triggering a rebuild (differential-test
  /// hook; may be stale when knots_dirty()).
  const KnotArray& raw_knot_cache() const { return *knot_cache_; }
  /// TEST ONLY: clear the dirty flag without rebuilding — simulates a
  /// missed invalidation so harnesses can prove they would catch one.
  void testonly_mark_knots_clean() { knots_dirty_ = false; }

  /// Residual service R(t) = C·t − Σ_{d_j <= t}[r_j (t − d_j) + L_j].
  /// O(log K) via the cached prefixes.
  double residual_service(Seconds t) const;
  /// (d^k, S^k = R(d^k)) for every distinct delay d^k, ascending — one walk.
  std::vector<std::pair<Seconds, double>> residual_service_at_knots() const;

  /// Exact VT-EDF schedulability test (eq. 5) for the current entries plus
  /// a hypothetical new entry ⟨r, d, L⟩. Checks every knot including d.
  bool edf_schedulable_with(BitsPerSecond r, Seconds d, Bits l_max) const;

 private:
  void rebuild_knot_cache() const;

  std::string name_;
  BitsPerSecond capacity_;
  SchedPolicy policy_;
  Seconds error_term_;
  Seconds propagation_delay_;
  Bits buffer_capacity_;
  Bits buffer_reserved_ = 0.0;
  BitsPerSecond reserved_ = 0.0;
  std::size_t flows_ = 0;
  std::uint64_t rate_version_ = 0;
  std::uint64_t state_version_ = 0;
  std::map<Seconds, EdfBucket> edf_;
  /// Lazily rebuilt mirror of edf_ as a flat sorted struct-of-arrays with
  /// prefix sums (the §3.2 S^k values and the OwnDeadline prefixes in one
  /// structure). Copy-on-write double buffer: rebuilds fill the spare array
  /// (reused when no snapshot still references it — the sequential steady
  /// state allocates nothing) and swap it in, so shared_ptr holders taken
  /// by knots_shared() keep reading an immutable array.
  mutable std::shared_ptr<KnotArray> knot_cache_;
  mutable std::shared_ptr<KnotArray> knot_spare_;
  mutable bool knots_dirty_ = false;
};

/// The exact VT-EDF schedulability predicate (eq. 5/8) over a knot array —
/// shared by LinkQosState (live MIB) and LinkSnapshot (immutable
/// per-request copy) so both evaluate bit-identical verdicts. The Figure-4
/// scan runs blocked over the dense s/d columns so it vectorizes; the
/// per-element comparison is the exact scalar expression.
bool edf_schedulable_over(const KnotArray& knots, BitsPerSecond capacity,
                          BitsPerSecond r, Seconds d, Bits l_max);

/// The node MIB: all links of the domain, keyed "from->to".
class NodeMib {
 public:
  /// Populate from a domain spec (error terms Ψ = L^{P,max}/C).
  explicit NodeMib(const DomainSpec& spec);

  LinkQosState& link(const std::string& name);
  const LinkQosState& link(const std::string& name) const;
  bool has_link(const std::string& name) const { return links_.contains(name); }
  std::size_t link_count() const { return links_.size(); }

  /// Sum of reserved bandwidth across all links (diagnostics).
  BitsPerSecond total_reserved() const;
  /// LinkQosState::clear_ledger on every link.
  void clear_ledgers();

 private:
  std::unordered_map<std::string, LinkQosState> links_;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_NODE_MIB_H_
