// Tests for the BandwidthBroker facade: the two-phase admission pipeline,
// policy gating, the signaling rate limiter, one route per endpoint pair,
// bookkeeping consistency, teardown, stats.

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "topo/fig8.h"

namespace qosbb {
namespace {

TrafficProfile type0() {
  return TrafficProfile::make(60000, 50000, 100000, 12000);
}

FlowServiceRequest req_s1(Seconds bound = 2.44) {
  return FlowServiceRequest{type0(), bound, "I1", "E1"};
}

TEST(Broker, ProvisionPathIsIdempotentAndRouted) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  auto p1 = bb.provision_path("I1", "E1");
  ASSERT_TRUE(p1.is_ok());
  auto p2 = bb.provision_path("I1", "E1");
  ASSERT_TRUE(p2.is_ok());
  EXPECT_EQ(p1.value(), p2.value());
  EXPECT_EQ(bb.paths().record(p1.value()).nodes, fig8_path_s1());
  auto bad = bb.provision_path("E1", "I2");
  EXPECT_FALSE(bad.is_ok());
}

TEST(Broker, AdmissionReservesOnEveryLinkOfPath) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  auto res = bb.request_service(req_s1());
  ASSERT_TRUE(res.is_ok());
  for (const char* ln : {"I1->R2", "R2->R3", "R3->R4", "R4->R5", "R5->E1"}) {
    EXPECT_NEAR(bb.nodes().link(ln).reserved(), res.value().params.rate, 1e-9)
        << ln;
    EXPECT_EQ(bb.nodes().link(ln).flow_count(), 1u) << ln;
  }
  // Off-path link untouched.
  EXPECT_DOUBLE_EQ(bb.nodes().link("I2->R2").reserved(), 0.0);
  EXPECT_DOUBLE_EQ(bb.nodes().link("R5->E2").reserved(), 0.0);
}

TEST(Broker, ReleaseRestoresAllState) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kMixed));
  auto res = bb.request_service(req_s1(2.19));
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(bb.release_service(res.value().flow).is_ok());
  for (const char* ln : {"I1->R2", "R2->R3", "R3->R4", "R4->R5", "R5->E1"}) {
    EXPECT_DOUBLE_EQ(bb.nodes().link(ln).reserved(), 0.0) << ln;
    EXPECT_EQ(bb.nodes().link(ln).flow_count(), 0u) << ln;
  }
  EXPECT_TRUE(bb.nodes().link("R3->R4").edf_buckets().empty());
  EXPECT_EQ(bb.flows().count(), 0u);
  // Double release reports not-found.
  EXPECT_EQ(bb.release_service(res.value().flow).code(),
            StatusCode::kNotFound);
}

TEST(Broker, AdmitReleaseChurnIsLossless) {
  // Property: any admit/release sequence that ends empty leaves zero
  // reservations everywhere.
  BandwidthBroker bb(fig8_topology(Fig8Setting::kMixed));
  std::vector<FlowId> live;
  for (int round = 0; round < 50; ++round) {
    if (round % 3 == 2 && !live.empty()) {
      ASSERT_TRUE(bb.release_service(live.back()).is_ok());
      live.pop_back();
    } else {
      auto res = bb.request_service(req_s1(2.19));
      if (res.is_ok()) live.push_back(res.value().flow);
    }
  }
  for (FlowId f : live) ASSERT_TRUE(bb.release_service(f).is_ok());
  EXPECT_DOUBLE_EQ(bb.nodes().total_reserved(), 0.0);
  EXPECT_TRUE(bb.nodes().link("R3->R4").edf_buckets().empty());
}

TEST(Broker, PolicyRejectsBeforeAdmission) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  PolicyRule rule;
  rule.max_flows = 2;
  bb.policy().set_ingress_rule("I1", rule);
  ASSERT_TRUE(bb.request_service(req_s1()).is_ok());
  ASSERT_TRUE(bb.request_service(req_s1()).is_ok());
  auto third = bb.request_service(req_s1());
  EXPECT_FALSE(third.is_ok());
  EXPECT_EQ(bb.last_outcome().reason, RejectReason::kPolicy);
  // Other ingresses unaffected.
  EXPECT_TRUE(bb.request_service({type0(), 2.44, "I2", "E2"}).is_ok());
}

TEST(Broker, PolicyDenyAndCaps) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  PolicyRule deny;
  deny.deny = true;
  bb.policy().set_ingress_rule("I2", deny);
  EXPECT_FALSE(bb.request_service({type0(), 2.44, "I2", "E2"}).is_ok());
  bb.policy().clear_ingress_rule("I2");
  EXPECT_TRUE(bb.request_service({type0(), 2.44, "I2", "E2"}).is_ok());

  PolicyRule caps;
  caps.max_peak_rate = 50000;  // below type-0 peak
  bb.policy().set_default_rule(caps);
  EXPECT_FALSE(bb.request_service(req_s1()).is_ok());
  PolicyRule delay_floor;
  delay_floor.min_delay_req = 3.0;
  bb.policy().set_default_rule(delay_floor);
  EXPECT_FALSE(bb.request_service(req_s1(2.44)).is_ok());
  EXPECT_TRUE(bb.request_service(req_s1(3.5)).is_ok());
}

TEST(Broker, StatsCountReasons) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  while (bb.request_service(req_s1()).is_ok()) {
  }
  const BrokerStats& st = bb.stats();
  EXPECT_EQ(st.admitted, 30u);
  EXPECT_EQ(st.requests, 31u);
  EXPECT_EQ(st.total_rejected(), 1u);
  EXPECT_EQ(st.rejected.at(RejectReason::kInsufficientBandwidth), 1u);
  EXPECT_NEAR(st.blocking_rate(), 1.0 / 31.0, 1e-12);
}

TEST(Broker, UnknownEndpointIsNoPath) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  auto res = bb.request_service({type0(), 2.44, "I1", "nowhere"});
  EXPECT_FALSE(res.is_ok());
  EXPECT_EQ(bb.last_outcome().reason, RejectReason::kNoPath);
}

TEST(Broker, SameIngressAndEgressIsNoPath) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  auto res = bb.request_service({type0(), 2.44, "I1", "I1"});
  EXPECT_FALSE(res.is_ok());
  EXPECT_EQ(bb.last_outcome().reason, RejectReason::kNoPath);
  EXPECT_EQ(bb.paths().path_count(), 0u);
}

TEST(Broker, TwoPathsContendOnSharedLinks) {
  // S1 and S2 share R2->R3->R4->R5: totals add up on shared links only.
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  int admitted = 0;
  for (int i = 0; i < 40; ++i) {
    const bool s1 = (i % 2 == 0);
    auto res = bb.request_service(
        {type0(), 2.44, s1 ? "I1" : "I2", s1 ? "E1" : "E2"});
    if (res.is_ok()) ++admitted;
  }
  // The shared 1.5 Mb/s core still caps the total at 30 mean-rate flows.
  EXPECT_EQ(admitted, 30);
  EXPECT_NEAR(bb.nodes().link("R2->R3").reserved(), 1.5e6, 1e-6);
  EXPECT_NEAR(bb.nodes().link("I1->R2").reserved(), 15 * 50000.0, 1e-6);
}

TEST(Broker, MicroflowReleaseViaWrongApiIsContractViolation) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  const ClassId cls = bb.define_class(2.44, 0.0);
  auto join = bb.request_class_service(cls, type0(), "I1", "E1", 0.0, 0.0);
  ASSERT_TRUE(join.admitted);
  EXPECT_THROW((void)bb.release_service(join.microflow), std::logic_error);
}

TEST(RateLimiter, CapsSignalingPerIngress) {
  BrokerOptions opt;
  opt.max_request_rate_per_ingress = 2.0;  // 2 req/s
  opt.request_burst = 3.0;
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly), opt);
  // Burst of 3 passes at t=0; the 4th is throttled.
  int ok = 0;
  for (int i = 0; i < 4; ++i) {
    if (bb.request_service(req_s1(), 0.0).is_ok()) ++ok;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(bb.stats().rejected.at(RejectReason::kPolicy), 1u);
  // Tokens refill: one second buys two more requests.
  EXPECT_TRUE(bb.request_service(req_s1(), 1.0).is_ok());
  EXPECT_TRUE(bb.request_service(req_s1(), 1.0).is_ok());
  EXPECT_FALSE(bb.request_service(req_s1(), 1.0).is_ok());
  // Another ingress has its own budget.
  EXPECT_TRUE(
      bb.request_service({type0(), 2.44, "I2", "E2"}, 1.0).is_ok());
}

TEST(RateLimiter, ThrottledRequestsAreAudited) {
  BrokerOptions opt;
  opt.max_request_rate_per_ingress = 1.0;
  opt.request_burst = 1.0;
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly), opt);
  ASSERT_TRUE(bb.request_service(req_s1(), 0.0).is_ok());
  ASSERT_FALSE(bb.request_service(req_s1(), 0.0).is_ok());
  EXPECT_NE(bb.audit().last().detail.find("signaling rate"),
            std::string::npos);
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

TEST(MultipathBroker, SingleCandidateKeepsPaperBehavior) {
  // Two routes exist, but the pair is pinned to the min-hop one: the
  // domain carries what that route carries, and the other stays idle.
  BandwidthBroker bb(two_route_spec());
  FlowServiceRequest req{type0(), 2.44, "I", "E"};
  int admitted = 0;
  while (bb.request_service(req).is_ok()) ++admitted;
  EXPECT_EQ(admitted, 30);
  EXPECT_DOUBLE_EQ(bb.nodes().link("B1->B2").reserved(), 0.0);
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

TEST(ConcurrentFront, UnprovisionedPairBatchMatchesPlainBroker) {
  // A batch for a pair with no route yet is the one shape the front's
  // group path declines: its members run on the sequential broker, the
  // first one provisioning the route. Verdicts, the PathId and the
  // snapshot frame must match a plain broker admitting the same members
  // one at a time; a later batch on the now-routed pair takes the group
  // path and must match too.
  BandwidthBroker plain(two_route_spec());
  BandwidthBroker inner(two_route_spec());
  ConcurrentBrokerFront front(inner);
  ASSERT_EQ(inner.paths().find("I", "E"), kInvalidPathId);

  std::vector<FlowServiceRequest> batch;
  for (int i = 0; i < 40; ++i) {
    batch.push_back({type0(), i % 3 == 0 ? 1.0 : 2.44, "I", "E"});
  }
  int admitted = 0;
  int rejected = 0;
  std::vector<FlowId> live;
  auto check_batch = [&](const std::vector<FrontOutcome>& got) {
    ASSERT_EQ(got.size(), batch.size());
    for (const std::size_t j : batch_grouped_order(batch)) {
      const Result<Reservation> a = plain.request_service(batch[j]);
      expect_same(a, got[j].result);
      if (a.is_ok()) {
        ++admitted;
        live.push_back(a.value().flow);
        EXPECT_EQ(a.value().path, plain.paths().find("I", "E"));
      } else {
        ++rejected;
      }
    }
  };
  check_batch(front.submit_batch(batch));
  const PathId path = inner.paths().find("I", "E");
  ASSERT_NE(path, kInvalidPathId);
  EXPECT_EQ(path, plain.paths().find("I", "E"));
  EXPECT_EQ(inner.paths().record(path).hop_count(), 2);
  EXPECT_GT(rejected, 0);

  for (std::size_t i = 0; i < live.size(); i += 2) {
    EXPECT_TRUE(plain.release_service(live[i]).is_ok());
    EXPECT_TRUE(front.release_service(live[i]).is_ok());
  }
  check_batch(front.submit_batch(batch));
  EXPECT_GT(admitted, 30);

  const auto sa = plain.snapshot();
  const auto sb =
      front.exclusive([](BandwidthBroker& b) { return b.snapshot(); });
  ASSERT_TRUE(sa.is_ok());
  ASSERT_TRUE(sb.is_ok());
  EXPECT_EQ(sa.value(), sb.value());
}

}  // namespace
}  // namespace qosbb
