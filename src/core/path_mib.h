// Path QoS state information base (Section 2.2, item 3).
//
// For each provisioned ingress–egress path the BB keeps the path-level QoS
// parameters that make the admissibility test path-oriented: the hop count
// h, the number of rate-based hops q, the accumulated error/propagation term
// D_tot^P = Σ(Ψ_i + π_i), the path maximum packet size L^{P,max}, and the
// minimal residual bandwidth C_res^P (derived from the node MIB).
//
// C_res^P is cached per path and kept consistent incrementally: every link
// carries a monotone rate_version counter bumped whenever its residual
// changes, and a path's cached bottleneck is revalidated by comparing the
// sum of its links' counters against the sum recorded at compute time (the
// sum is strictly increasing under any mutation, so it cannot falsely
// match). Paths not crossing a mutated link keep their cache; paths that do
// recompute in one O(h) pass over pre-resolved link pointers — no string
// keyed MIB lookups on the steady-state admission path.

#ifndef QOSBB_CORE_PATH_MIB_H_
#define QOSBB_CORE_PATH_MIB_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/node_mib.h"
#include "core/types.h"
#include "vtrs/delay_bounds.h"

namespace qosbb {

struct PathRecord {
  PathId id = kInvalidPathId;
  std::vector<std::string> nodes;       ///< [ingress, ..., egress]
  std::vector<std::string> link_names;  ///< h entries, "from->to"
  PathAbstract abstract;
  Bits l_path_max = 0.0;  ///< L^{P,max}

  int hop_count() const { return abstract.hop_count(); }
  int rate_based_count() const { return abstract.rate_based_count(); }
  Seconds d_tot() const { return abstract.total_error_and_prop(); }
  const std::string& ingress() const { return nodes.front(); }
  const std::string& egress() const { return nodes.back(); }
};

class PathMib {
 public:
  explicit PathMib(const DomainSpec& spec) : spec_(spec) {}

  /// Provision (or return the already-provisioned) path along `nodes`.
  /// An ingress–egress pair has exactly one route: provisioning a second,
  /// different route for a routed pair is a caller bug (callers holding
  /// outside input check find() first).
  PathId provision(const std::vector<std::string>& nodes);
  /// The path provisioned from ingress to egress, or kInvalidPathId.
  PathId find(const std::string& ingress, const std::string& egress) const;

  const PathRecord& record(PathId id) const;
  std::size_t path_count() const { return records_.size(); }

  /// C_res^P: minimal residual bandwidth along the path (Section 3.1),
  /// evaluated against the current node MIB. Served from the per-path cache
  /// (revalidated via link rate_version counters; see file header).
  BitsPerSecond min_residual(PathId id, const NodeMib& nodes) const;
  /// From-scratch C_res^P, bypassing every cache — the reference the
  /// cached value must agree with (correctness harnesses).
  BitsPerSecond min_residual_uncached(PathId id, const NodeMib& nodes) const;

  /// The path's links resolved to LinkQosState pointers, in hop order
  /// (aligned with record().abstract.hops). Resolved once per (path, MIB)
  /// and reused; the reference stays valid for the PathMib's lifetime.
  const std::vector<const LinkQosState*>& link_states(
      PathId id, const NodeMib& nodes) const;
  /// The delay-based subset of link_states, in path order.
  const std::vector<const LinkQosState*>& edf_link_states(
      PathId id, const NodeMib& nodes) const;

 private:
  /// Per-path derived state: resolved link pointers plus the cached
  /// bottleneck residual and the version sum it was computed at.
  struct PathCache {
    const NodeMib* resolved_for = nullptr;
    std::vector<const LinkQosState*> links;
    std::vector<const LinkQosState*> edf_links;
    BitsPerSecond c_res = 0.0;
    std::uint64_t version_sum = 0;
    bool c_res_valid = false;
  };
  PathCache& cache_entry(PathId id, const NodeMib& nodes) const;

  const DomainSpec& spec_;
  std::vector<PathRecord> records_;
  mutable std::vector<PathCache> cache_;  ///< parallel to records_
  std::unordered_map<std::string, PathId> by_endpoints_;  ///< one per pair
  std::unordered_map<std::string, PathId> by_nodes_;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_PATH_MIB_H_
