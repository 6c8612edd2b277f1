#include "topo/routing.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace qosbb {
namespace {

struct DijkstraState {
  std::vector<double> dist;
  std::vector<NodeIndex> prev;
};

DijkstraState dijkstra(const Graph& g, NodeIndex src) {
  const auto n = static_cast<std::size_t>(g.node_count());
  DijkstraState st{std::vector<double>(n, std::numeric_limits<double>::infinity()),
                   std::vector<NodeIndex>(n, kInvalidNode)};
  using Item = std::pair<double, NodeIndex>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  st.dist[static_cast<std::size_t>(src)] = 0.0;
  pq.emplace(0.0, src);
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > st.dist[static_cast<std::size_t>(u)]) continue;
    for (EdgeIndex e : g.edges_from(u)) {
      const auto& edge = g.edge(e);
      const double nd = d + edge.weight;
      auto& dv = st.dist[static_cast<std::size_t>(edge.to)];
      // Strictly-better relaxations only: with equal costs the first-seen
      // (lowest-index) predecessor wins, making routing deterministic.
      if (nd < dv) {
        dv = nd;
        st.prev[static_cast<std::size_t>(edge.to)] = u;
        pq.emplace(nd, edge.to);
      }
    }
  }
  return st;
}

std::vector<NodeIndex> unwind(const DijkstraState& st, NodeIndex src,
                              NodeIndex dst) {
  std::vector<NodeIndex> path;
  for (NodeIndex v = dst; v != kInvalidNode; v = st.prev[static_cast<std::size_t>(v)]) {
    path.push_back(v);
    if (v == src) break;
  }
  if (path.back() != src) return {};
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

Result<std::vector<NodeIndex>> shortest_path(const Graph& g, NodeIndex src,
                                             NodeIndex dst) {
  QOSBB_REQUIRE(src >= 0 && src < g.node_count(), "shortest_path: bad src");
  QOSBB_REQUIRE(dst >= 0 && dst < g.node_count(), "shortest_path: bad dst");
  if (src == dst) return std::vector<NodeIndex>{src};
  const DijkstraState st = dijkstra(g, src);
  auto path = unwind(st, src, dst);
  if (path.empty()) {
    return Status::not_found("no path from " + g.name(src) + " to " +
                             g.name(dst));
  }
  return path;
}

Result<std::vector<std::string>> shortest_path(const Graph& g,
                                               const std::string& src,
                                               const std::string& dst) {
  const NodeIndex s = g.index(src);
  const NodeIndex d = g.index(dst);
  if (s == kInvalidNode) return Status::not_found("unknown node " + src);
  if (d == kInvalidNode) return Status::not_found("unknown node " + dst);
  auto r = shortest_path(g, s, d);
  if (!r.is_ok()) return r.status();
  std::vector<std::string> names;
  names.reserve(r.value().size());
  for (NodeIndex n : r.value()) names.push_back(g.name(n));
  return names;
}

std::vector<std::vector<NodeIndex>> shortest_path_tree(const Graph& g,
                                                       NodeIndex src) {
  QOSBB_REQUIRE(src >= 0 && src < g.node_count(), "shortest_path_tree: bad src");
  const DijkstraState st = dijkstra(g, src);
  std::vector<std::vector<NodeIndex>> out(
      static_cast<std::size_t>(g.node_count()));
  for (NodeIndex v = 0; v < g.node_count(); ++v) {
    out[static_cast<std::size_t>(v)] = unwind(st, src, v);
  }
  return out;
}

}  // namespace qosbb
