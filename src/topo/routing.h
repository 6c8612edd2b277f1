// Path selection for the bandwidth broker's routing module.
//
// Dijkstra shortest paths over the domain graph. The BB uses this to pick
// the one pinned path (e.g. an MPLS LSP, Section 2) of each ingress–egress
// pair; every flow between the pair is admitted on it, and the path keys
// into the path QoS state MIB.

#ifndef QOSBB_TOPO_ROUTING_H_
#define QOSBB_TOPO_ROUTING_H_

#include <string>
#include <vector>

#include "topo/graph.h"
#include "util/status.h"

namespace qosbb {

/// Node sequence of a shortest path from `src` to `dst` (inclusive), or
/// kNotFound if unreachable. Deterministic tie-breaking by node index.
Result<std::vector<NodeIndex>> shortest_path(const Graph& g, NodeIndex src,
                                             NodeIndex dst);
Result<std::vector<std::string>> shortest_path(const Graph& g,
                                               const std::string& src,
                                               const std::string& dst);

/// All-pairs reachability helper: shortest-path node sequences from `src`
/// to every reachable node (for pre-provisioning path MIB entries).
std::vector<std::vector<NodeIndex>> shortest_path_tree(const Graph& g,
                                                       NodeIndex src);

}  // namespace qosbb

#endif  // QOSBB_TOPO_ROUTING_H_
