// Golden-model tests for the routing module: on random small digraphs,
// Dijkstra must match exhaustive search.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "topo/graph.h"
#include "topo/routing.h"
#include "util/rng.h"

namespace qosbb {
namespace {

struct RandomGraph {
  Graph g;
  int nodes;
};

RandomGraph random_graph(Rng& rng) {
  RandomGraph out;
  out.nodes = static_cast<int>(rng.uniform_int(3, 7));
  for (int i = 0; i < out.nodes; ++i) {
    out.g.add_node("n" + std::to_string(i));
  }
  for (int u = 0; u < out.nodes; ++u) {
    for (int v = 0; v < out.nodes; ++v) {
      if (u != v && rng.bernoulli(0.45)) {
        out.g.add_edge(u, v, rng.uniform(1.0, 10.0));
      }
    }
  }
  return out;
}

double min_edge_weight(const Graph& g, NodeIndex u, NodeIndex v) {
  double best = std::numeric_limits<double>::infinity();
  for (EdgeIndex e : g.edges_from(u)) {
    if (g.edge(e).to == v) best = std::min(best, g.edge(e).weight);
  }
  return best;
}

double cost_of(const Graph& g, const std::vector<NodeIndex>& path) {
  double c = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    c += min_edge_weight(g, path[i], path[i + 1]);
  }
  return c;
}

/// All simple paths src -> dst by DFS (graphs are tiny).
void all_simple_paths(const Graph& g, NodeIndex at, NodeIndex dst,
                      std::vector<NodeIndex>& stack,
                      std::vector<bool>& used,
                      std::vector<std::vector<NodeIndex>>& out) {
  if (at == dst) {
    out.push_back(stack);
    return;
  }
  for (EdgeIndex e : g.edges_from(at)) {
    const NodeIndex next = g.edge(e).to;
    if (used[static_cast<std::size_t>(next)]) continue;
    used[static_cast<std::size_t>(next)] = true;
    stack.push_back(next);
    all_simple_paths(g, next, dst, stack, used, out);
    stack.pop_back();
    used[static_cast<std::size_t>(next)] = false;
  }
}

class RoutingGolden : public ::testing::TestWithParam<int> {};

// The test name predates the removal of Yen's k-shortest routing; the
// test now checks the one route the broker provisions per pair.
TEST_P(RoutingGolden, DijkstraAndYenMatchBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  const RandomGraph rg = random_graph(rng);
  const NodeIndex src = 0;
  const NodeIndex dst = rg.nodes - 1;

  std::vector<std::vector<NodeIndex>> brute;
  std::vector<NodeIndex> stack{src};
  std::vector<bool> used(static_cast<std::size_t>(rg.nodes), false);
  used[static_cast<std::size_t>(src)] = true;
  all_simple_paths(rg.g, src, dst, stack, used, brute);
  std::stable_sort(brute.begin(), brute.end(),
                   [&](const auto& a, const auto& b) {
                     return cost_of(rg.g, a) < cost_of(rg.g, b);
                   });

  auto shortest = shortest_path(rg.g, src, dst);
  if (brute.empty()) {
    EXPECT_FALSE(shortest.is_ok());
    return;
  }
  ASSERT_TRUE(shortest.is_ok());
  EXPECT_NEAR(cost_of(rg.g, shortest.value()), cost_of(rg.g, brute[0]),
              1e-9);
  // The route is simple and runs src -> dst.
  const std::vector<NodeIndex>& route = shortest.value();
  EXPECT_EQ(route.front(), src);
  EXPECT_EQ(route.back(), dst);
  std::set<NodeIndex> uniq(route.begin(), route.end());
  EXPECT_EQ(uniq.size(), route.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingGolden, ::testing::Range(1, 31));

}  // namespace
}  // namespace qosbb
