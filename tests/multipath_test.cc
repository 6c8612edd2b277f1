// Tests for k-shortest-path routing (Yen) and the broker's multipath
// admission: widest-residual path selection and alternate-route fallback.

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "topo/fig8.h"
#include "topo/routing.h"

namespace qosbb {
namespace {

TrafficProfile type0() {
  return TrafficProfile::make(60000, 50000, 100000, 12000);
}

/// I -> E via a 2-hop upper route (I,A,E) and a 3-hop lower route
/// (I,B1,B2,E). All links 1.5 Mb/s C̸SVC.
DomainSpec two_route_spec() {
  DomainSpec spec;
  spec.nodes = {"I", "A", "B1", "B2", "E"};
  spec.l_max = 12000.0;
  auto add = [&](const char* f, const char* t) {
    spec.links.push_back(LinkSpec{f, t, 1.5e6, 0.0, SchedPolicy::kCsvc,
                                  std::numeric_limits<double>::infinity()});
  };
  add("I", "A");
  add("A", "E");
  add("I", "B1");
  add("B1", "B2");
  add("B2", "E");
  return spec;
}

TEST(KShortest, OrdersByCost) {
  const Graph g = two_route_spec().to_graph();
  auto paths = k_shortest_paths(g, "I", "E", 5);
  ASSERT_EQ(paths.size(), 2u);  // only two simple paths exist
  EXPECT_EQ(paths[0], (std::vector<std::string>{"I", "A", "E"}));
  EXPECT_EQ(paths[1], (std::vector<std::string>{"I", "B1", "B2", "E"}));
}

TEST(KShortest, KOneIsPlainShortest) {
  const Graph g = two_route_spec().to_graph();
  auto paths = k_shortest_paths(g, "I", "E", 1);
  ASSERT_EQ(paths.size(), 1u);
  EXPECT_EQ(paths[0].size(), 3u);
}

TEST(KShortest, UnreachableGivesEmpty) {
  Graph g;
  g.add_node("X");
  g.add_node("Y");
  EXPECT_TRUE(k_shortest_paths(g, "X", "Y", 3).empty());
}

TEST(KShortest, Fig8HasSinglePathPerPair) {
  const Graph g = fig8_topology(Fig8Setting::kMixed).to_graph();
  EXPECT_EQ(k_shortest_paths(g, "I1", "E1", 4).size(), 1u);
}

TEST(KShortest, DiamondWithParallelCosts) {
  Graph g;
  for (const char* n : {"s", "a", "b", "t"}) g.add_node(n);
  g.add_edge("s", "a", 1.0);
  g.add_edge("a", "t", 1.0);
  g.add_edge("s", "b", 1.0);
  g.add_edge("b", "t", 2.0);
  g.add_edge("s", "t", 5.0);
  auto paths = k_shortest_paths(g, "s", "t", 10);
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], (std::vector<std::string>{"s", "a", "t"}));  // cost 2
  EXPECT_EQ(paths[1], (std::vector<std::string>{"s", "b", "t"}));  // cost 3
  EXPECT_EQ(paths[2], (std::vector<std::string>{"s", "t"}));       // cost 5
}

TEST(MultipathBroker, FallbackDoublesCapacity) {
  // Min-hop only: 30 mean-rate flows. With the alternate route as an
  // admission fallback the domain carries 60.
  BrokerOptions opts;
  opts.k_paths = 2;
  BandwidthBroker bb(two_route_spec(), opts);
  FlowServiceRequest req{type0(), 2.44, "I", "E"};
  int admitted = 0;
  while (bb.request_service(req).is_ok()) ++admitted;
  EXPECT_EQ(admitted, 60);
  EXPECT_NEAR(bb.nodes().link("A->E").reserved(), 1.5e6, 1e-6);
  EXPECT_NEAR(bb.nodes().link("B2->E").reserved(), 1.5e6, 1e-6);
}

TEST(MultipathBroker, SingleCandidateKeepsPaperBehavior) {
  BandwidthBroker bb(two_route_spec());  // defaults: k_paths = 1
  FlowServiceRequest req{type0(), 2.44, "I", "E"};
  int admitted = 0;
  while (bb.request_service(req).is_ok()) ++admitted;
  EXPECT_EQ(admitted, 30);
  EXPECT_DOUBLE_EQ(bb.nodes().link("B1->B2").reserved(), 0.0);
}

TEST(MultipathBroker, WidestResidualBalances) {
  BrokerOptions opts;
  opts.k_paths = 2;
  opts.path_selection = PathSelection::kWidestResidual;
  BandwidthBroker bb(two_route_spec(), opts);
  FlowServiceRequest req{type0(), 3.0, "I", "E"};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(bb.request_service(req).is_ok());
  }
  // Load spreads: neither route carries everything.
  const double upper = bb.nodes().link("A->E").reserved();
  const double lower = bb.nodes().link("B2->E").reserved();
  EXPECT_GT(upper, 0.0);
  EXPECT_GT(lower, 0.0);
  EXPECT_NEAR(upper + lower, 10 * 50000.0, 1e-6);
  // Balanced to within one flow's rate.
  EXPECT_LE(std::abs(upper - lower), 50000.0 + 1e-6);
}

TEST(MultipathBroker, LongerRouteNeedsHigherRate) {
  // The 3-hop fallback has a higher D_tot and one more packet term, so the
  // same delay requirement costs a higher reserved rate there.
  BrokerOptions opts;
  opts.k_paths = 2;
  opts.path_selection = PathSelection::kWidestResidual;
  BandwidthBroker bb(two_route_spec(), opts);
  // D = 1.0 s: tight enough that the minimal rate sits above ρ on both
  // routes (67.9 kb/s on 2 hops, 74.4 kb/s on 3).
  FlowServiceRequest req{type0(), 1.0, "I", "E"};
  auto a = bb.request_service(req);  // widest: both empty -> 2-hop route
  ASSERT_TRUE(a.is_ok());
  auto b = bb.request_service(req);  // now the 3-hop route is widest
  ASSERT_TRUE(b.is_ok());
  EXPECT_GT(b.value().params.rate, a.value().params.rate);
  EXPECT_LE(b.value().e2e_bound, 1.0 + 1e-9);
}

TEST(MultipathBroker, CandidatePathsOrderedByResidual) {
  BrokerOptions opts;
  opts.k_paths = 2;
  opts.path_selection = PathSelection::kWidestResidual;
  BandwidthBroker bb(two_route_spec(), opts);
  auto ids = bb.candidate_paths("I", "E");
  ASSERT_TRUE(ids.is_ok());
  ASSERT_EQ(ids.value().size(), 2u);
  // Equal residual: fewer hops first.
  EXPECT_EQ(bb.paths().record(ids.value()[0]).hop_count(), 2);
  // Load the short route; ordering flips.
  ASSERT_TRUE(bb.nodes().link("A->E").reserve(1.0e6).is_ok());
  ids = bb.candidate_paths("I", "E");
  EXPECT_EQ(bb.paths().record(ids.value()[0]).hop_count(), 3);
}

/// Same verdict, flow, path, rate, delay and bound, bit for bit; same
/// status text on a reject.
void expect_same(const Result<Reservation>& plain,
                 const Result<Reservation>& front) {
  ASSERT_EQ(plain.is_ok(), front.is_ok());
  if (!plain.is_ok()) {
    EXPECT_EQ(plain.status().to_string(), front.status().to_string());
    return;
  }
  EXPECT_EQ(plain.value().flow, front.value().flow);
  EXPECT_EQ(plain.value().path, front.value().path);
  EXPECT_EQ(plain.value().params.rate, front.value().params.rate);
  EXPECT_EQ(plain.value().params.delay, front.value().params.delay);
  EXPECT_EQ(plain.value().e2e_bound, front.value().e2e_bound);
}

TEST(MultipathBroker, FrontMatchesPlainBrokerOnTwoCandidates) {
  // With k_paths = 2 the pair has two candidates, which the concurrent
  // front's group path declines: every admit runs on the sequential
  // broker. Verdicts, paths, rates and the snapshot frame must match a
  // plain broker driven through the same sequence.
  BrokerOptions opts;
  opts.k_paths = 2;
  BandwidthBroker plain(two_route_spec(), opts);
  BandwidthBroker inner(two_route_spec(), opts);
  ConcurrentBrokerFront front(inner);
  std::set<PathId> paths;
  int rejects = 0;
  auto tally = [&](const Result<Reservation>& r) {
    if (r.is_ok()) {
      paths.insert(r.value().path);
    } else {
      ++rejects;
    }
  };

  // One at a time past the 2-hop route's capacity onto the fallback.
  std::vector<FlowId> live;
  for (int i = 0; i < 40; ++i) {
    const FlowServiceRequest req{type0(), i % 3 == 0 ? 1.0 : 2.44, "I", "E"};
    const Result<Reservation> a = plain.request_service(req);
    expect_same(a, front.request_service(req).result);
    tally(a);
    if (a.is_ok()) live.push_back(a.value().flow);
  }
  for (std::size_t i = 0; i < live.size(); i += 2) {
    EXPECT_TRUE(plain.release_service(live[i]).is_ok());
    EXPECT_TRUE(front.release_service(live[i]).is_ok());
  }

  // A batch that fills both routes and runs on into rejects; the plain
  // reference admits its members one at a time in grouped order.
  const std::vector<FlowServiceRequest> batch(
      60, FlowServiceRequest{type0(), 2.44, "I", "E"});
  const std::vector<FrontOutcome> got = front.submit_batch(batch);
  ASSERT_EQ(got.size(), batch.size());
  for (const std::size_t j : batch_grouped_order(batch)) {
    const Result<Reservation> a = plain.request_service(batch[j]);
    expect_same(a, got[j].result);
    tally(a);
  }
  EXPECT_EQ(paths.size(), 2u);
  EXPECT_GT(rejects, 0);

  const auto sa = plain.snapshot();
  const auto sb =
      front.exclusive([](BandwidthBroker& b) { return b.snapshot(); });
  ASSERT_TRUE(sa.is_ok());
  ASSERT_TRUE(sb.is_ok());
  EXPECT_EQ(sa.value(), sb.value());
}

}  // namespace
}  // namespace qosbb
