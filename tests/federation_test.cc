// Tests for the federated control plane: partitioning, intra/inter
// classification, the 2PC prepare/commit path with boundary contingency,
// exact rollback of failed prepares, and cross-federation
// snapshot/restore. All members run in-process; the socket transport is
// exercised by net_test and ci/e2e_federation.sh.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "federation/federated_front.h"
#include "federation/member.h"
#include "federation/partition.h"
#include "topo/builders.h"
#include "topo/routing.h"
#include "vtrs/delay_bounds.h"

namespace qosbb {
namespace {

TrafficProfile type0() {
  return TrafficProfile::make(60000, 50000, 100000, 12000);
}

FlowServiceRequest req(const std::string& ingress, const std::string& egress,
                       Seconds bound = 2.0) {
  return FlowServiceRequest{type0(), bound, ingress, egress};
}

/// A federation of in-process members over a chain of dumbbells.
struct Fed {
  explicit Fed(MultiDomainOptions topo_options = {},
               FederatedFrontOptions front_options = {},
               BrokerOptions broker_options = {})
      : plan(partition_multi_domain(multi_domain_topology(topo_options),
                                    topo_options.domains)) {
    for (int d = 0; d < plan.num_domains; ++d) {
      members.push_back(std::make_unique<InProcessMember>(
          d, plan.members[d], broker_options));
    }
    std::vector<FederationMember*> raw;
    for (auto& m : members) raw.push_back(m.get());
    front = std::make_unique<FederatedFront>(plan, raw, front_options);
  }

  std::vector<std::uint32_t> digest_values() {
    auto ds = front->digests();
    EXPECT_TRUE(ds.is_ok()) << ds.status().to_string();
    std::vector<std::uint32_t> out;
    for (const auto& d : ds.value()) out.push_back(d.digest);
    return out;
  }

  FederationPlan plan;
  std::vector<std::unique_ptr<InProcessMember>> members;
  std::unique_ptr<FederatedFront> front;
};

TEST(Partition, MultiDomainIsRouteClosedWithOwnedBoundaries) {
  MultiDomainOptions topo;
  topo.domains = 3;
  topo.edge_pairs = 2;
  const Fed fed(topo);
  const FederationPlan& plan = fed.plan;
  ASSERT_EQ(plan.num_domains, 3);
  ASSERT_EQ(plan.members.size(), 3u);
  // One boundary link per adjacent domain pair, owned upstream.
  ASSERT_EQ(plan.boundaries.size(), 2u);
  for (std::size_t i = 0; i < plan.boundaries.size(); ++i) {
    const BoundaryLink& b = plan.boundaries[i];
    EXPECT_EQ(b.owner, static_cast<int>(i));
    EXPECT_EQ(b.downstream, static_cast<int>(i) + 1);
    EXPECT_EQ(plan.domain_of(b.from), b.owner);
    EXPECT_EQ(plan.domain_of(b.to), b.downstream);
  }
  EXPECT_EQ(plan.domain_of("D0I1"), 0);
  EXPECT_EQ(plan.domain_of("D2E0"), 2);

  // Segmenting the full-span route yields one segment per domain, in path
  // order, with the boundary hop closing each non-final segment.
  const auto route = multi_domain_path(0, 0, 2, 1);
  const auto segments = segment_path(plan, route);
  ASSERT_EQ(segments.size(), 3u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(segments[d].domain, d);
    EXPECT_EQ(segments[d].has_boundary, d < 2);
  }
  EXPECT_EQ(segments[0].nodes.front(), "D0I0");
  EXPECT_EQ(segments[0].nodes.back(), "D1L");  // downstream mirror
  EXPECT_EQ(segments[0].boundary_from, "D0R");
  EXPECT_EQ(segments[0].boundary_to, "D1L");
  EXPECT_EQ(segments[2].nodes.front(), "D2L");
  EXPECT_EQ(segments[2].nodes.back(), "D2E1");

  // Route closure: each member routes its segment exactly as the global
  // route does.
  for (const PathSegment& seg : segments) {
    const Graph local = plan.members[seg.domain].to_graph();
    const auto sub = shortest_path(local, seg.nodes.front(),
                                   seg.nodes.back());
    ASSERT_TRUE(sub.is_ok());
    EXPECT_EQ(sub.value(), seg.nodes);
  }
}

TEST(Federation, SegmentRateRecoversFlatFormulaAtOneSegment) {
  const DomainSpec spec = multi_domain_topology({});
  const auto route = multi_domain_path(0, 0, 0, 1);  // intra-domain
  const PathAbstract abstract = path_abstract(spec, route);
  const TrafficProfile p = type0();
  const Seconds d_req = 2.0;
  const BitsPerSecond flat = min_rate_rate_only(abstract, p, d_req);
  const BitsPerSecond fed =
      FederatedFront::inter_domain_segment_rate(abstract, p, d_req, 1);
  ASSERT_TRUE(std::isfinite(flat));
  EXPECT_DOUBLE_EQ(fed, std::max(p.rho, flat));
  // Each extra segment strictly raises the pinned rate (one more L/r
  // resynchronization), and an unattainable bound is +infinity.
  const BitsPerSecond fed3 =
      FederatedFront::inter_domain_segment_rate(abstract, p, d_req, 3);
  EXPECT_GT(fed3, fed);
  EXPECT_FALSE(std::isfinite(
      FederatedFront::inter_domain_segment_rate(abstract, p, 1e-9, 1)));
}

TEST(Federation, IntraDomainIsDelegatedWholeAndBitIdentical) {
  Fed fed;
  BandwidthBroker flat(fed.plan.global);

  const auto request = req("D1I0", "D1E1");
  const FederatedOutcome out = fed.front->request_service(request);
  ASSERT_TRUE(out.result.is_ok()) << out.result.status().to_string();
  EXPECT_FALSE(out.inter_domain);

  const auto mirror = flat.request_service(request);
  ASSERT_TRUE(mirror.is_ok());
  EXPECT_EQ(out.result.value().params.rate, mirror.value().params.rate);
  EXPECT_EQ(out.result.value().params.delay, mirror.value().params.delay);
  EXPECT_EQ(out.result.value().e2e_bound, mirror.value().e2e_bound);

  const FederationStats stats = fed.front->stats();
  EXPECT_EQ(stats.intra_requests, 1u);
  EXPECT_EQ(stats.intra_admitted, 1u);
  EXPECT_EQ(stats.inter_requests, 0u);
  EXPECT_EQ(fed.front->live_flows(), 1u);
  // Only the owning member was touched.
  EXPECT_EQ(fed.members[1]->broker().flows().count(), 1u);
  EXPECT_EQ(fed.members[0]->broker().flows().count(), 0u);
  EXPECT_EQ(fed.members[2]->broker().flows().count(), 0u);

  EXPECT_TRUE(fed.front->release_service(out.result.value().flow).is_ok());
  EXPECT_EQ(fed.front->live_flows(), 0u);
  EXPECT_EQ(fed.members[1]->broker().flows().count(), 0u);
}

TEST(Federation, InterDomainBooksPinnedSegmentsAndReleasesContingency) {
  MultiDomainOptions topo;
  topo.domains = 3;
  Fed fed(topo);

  const auto request = req("D0I0", "D2E0", 2.0);
  const auto route = multi_domain_path(0, 0, 2, 0);
  const PathAbstract abstract = path_abstract(fed.plan.global, route);
  const BitsPerSecond r_star = FederatedFront::inter_domain_segment_rate(
      abstract, request.profile, request.e2e_delay_req, 3);
  ASSERT_TRUE(std::isfinite(r_star));

  const FederatedOutcome out = fed.front->request_service(request);
  ASSERT_TRUE(out.result.is_ok()) << out.result.status().to_string();
  EXPECT_TRUE(out.inter_domain);
  EXPECT_EQ(out.segments, 3);
  EXPECT_DOUBLE_EQ(out.segment_rate, r_star);
  EXPECT_GE(out.result.value().e2e_bound, 0.0);
  EXPECT_LE(out.result.value().e2e_bound, request.e2e_delay_req + 1e-9);

  // Every hop of the global route carries exactly r*; the transient
  // boundary contingency is gone after commit (so boundary links carry r*
  // too, not r* + (P − r*)).
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    const std::string name = route[i] + "->" + route[i + 1];
    const int owner = fed.plan.domain_of(route[i]);
    const auto& link = fed.members[owner]->broker().nodes().link(name);
    EXPECT_NEAR(link.reserved(), r_star, 1e-6) << name;
  }

  const FederationStats stats = fed.front->stats();
  EXPECT_EQ(stats.inter_requests, 1u);
  EXPECT_EQ(stats.inter_admitted, 1u);
  EXPECT_EQ(stats.prepares, 3u);
  EXPECT_EQ(stats.prepare_failures, 0u);
  EXPECT_EQ(stats.aborts, 0u);
  EXPECT_EQ(stats.poisoned_txns, 0u);
  EXPECT_EQ(stats.ack_failures, 0u);

  // Release tears down every segment on every member.
  ASSERT_TRUE(fed.front->release_service(out.result.value().flow).is_ok());
  EXPECT_EQ(fed.front->live_flows(), 0u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(fed.members[d]->broker().flows().count(), 0u) << "domain " << d;
  }
}

// Satellite regression: a failed inter-domain prepare must leave every
// member broker's digest untouched — including the upstream members whose
// prepares succeeded and were rolled back.
TEST(Federation, FailedPrepareLeavesEveryMemberDigestUntouched) {
  MultiDomainOptions topo;
  topo.domains = 3;
  Fed fed(topo);

  // Saturate domain 2's core link so the LAST segment's prepare fails
  // after domains 0 and 1 already hold theirs.
  const BitsPerSecond filler = 1.45e6;  // core capacity is 1.5e6
  FlowServiceRequest fat;
  fat.profile = TrafficProfile::make(12000, filler, filler, 12000);
  fat.e2e_delay_req = 1e6;
  fat.ingress = "D2I0";
  fat.egress = "D2E0";
  const FederatedOutcome pre = fed.front->request_service(fat);
  ASSERT_TRUE(pre.result.is_ok()) << pre.result.status().to_string();

  // First doomed attempt warms the members' lazy path provisioning (the
  // path MIB is part of the snapshot digest and provisioning legitimately
  // survives a rollback — only reservations must not).
  const FederatedOutcome warm = fed.front->request_service(req("D0I0", "D2E0"));
  ASSERT_FALSE(warm.result.is_ok());
  EXPECT_TRUE(warm.inter_domain);
  EXPECT_EQ(warm.reason, RejectReason::kInsufficientBandwidth) << warm.detail;

  const auto before = fed.digest_values();
  const std::uint64_t flows_before = fed.front->live_flows();

  const FederatedOutcome out = fed.front->request_service(req("D0I0", "D2E0"));
  ASSERT_FALSE(out.result.is_ok());
  EXPECT_TRUE(out.inter_domain);
  EXPECT_EQ(out.reason, RejectReason::kInsufficientBandwidth) << out.detail;

  const auto after = fed.digest_values();
  EXPECT_EQ(before, after)
      << "rolled-back prepare left residue on some member";
  EXPECT_EQ(fed.front->live_flows(), flows_before);

  const FederationStats stats = fed.front->stats();
  EXPECT_EQ(stats.prepare_failures, 2u);
  EXPECT_EQ(stats.aborts, 2u);
  EXPECT_EQ(stats.poisoned_txns, 0u);
  EXPECT_EQ(stats.ack_failures, 0u);
  // Per attempt: domains 0 and 1 prepared and aborted; domain 2 refused.
  EXPECT_EQ(stats.prepares, 6u);

  // The federation remains serviceable: the same span admits once the
  // filler is gone.
  ASSERT_TRUE(fed.front->release_service(pre.result.value().flow).is_ok());
  const FederatedOutcome retry = fed.front->request_service(req("D0I0", "D2E0"));
  EXPECT_TRUE(retry.result.is_ok()) << retry.result.status().to_string();
}

TEST(Federation, DelayBasedHopRejectsInterButServesIntra) {
  MultiDomainOptions topo;
  topo.domains = 3;
  topo.delay_based_domain = 1;
  Fed fed(topo);

  // Crossing the VT-EDF hop needs whole-path knot state no member owns:
  // reject, conservatively, without touching any member.
  const auto before = fed.digest_values();
  const FederatedOutcome inter = fed.front->request_service(req("D0I0", "D2E0"));
  ASSERT_FALSE(inter.result.is_ok());
  EXPECT_EQ(inter.reason, RejectReason::kNoFeasibleRate);
  EXPECT_EQ(fed.digest_values(), before);
  EXPECT_EQ(fed.front->stats().inter_rejected_local, 1u);
  EXPECT_EQ(fed.front->stats().prepares, 0u);

  // Intra-domain requests through the same hop ride the member's full
  // §3.2 pipeline unchanged.
  const FederatedOutcome intra = fed.front->request_service(req("D1I0", "D1E0", 2.44));
  EXPECT_TRUE(intra.result.is_ok()) << intra.result.status().to_string();
}

TEST(Federation, EndpointOutsideFederationAndUnknownReleaseAreClean) {
  Fed fed;
  const FederatedOutcome out = fed.front->request_service(req("D0I0", "NOPE"));
  EXPECT_FALSE(out.result.is_ok());
  EXPECT_EQ(out.reason, RejectReason::kNoPath);
  EXPECT_EQ(fed.front->release_service(1234).code(), StatusCode::kNotFound);
}

TEST(Federation, SnapshotRestoreRoundTripsCoordinatorAndMembers) {
  MultiDomainOptions topo;
  topo.domains = 3;
  Fed fed(topo);

  const FederatedOutcome intra = fed.front->request_service(req("D0I0", "D0E0"));
  ASSERT_TRUE(intra.result.is_ok());
  const FederatedOutcome inter = fed.front->request_service(req("D0I1", "D2E1"));
  ASSERT_TRUE(inter.result.is_ok()) << inter.result.status().to_string();

  const auto at_snapshot = fed.digest_values();
  auto frame = fed.front->snapshot();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();

  // Mutate past the checkpoint: one more admission, one release.
  const FederatedOutcome extra = fed.front->request_service(req("D1I0", "D1E0"));
  ASSERT_TRUE(extra.result.is_ok());
  ASSERT_TRUE(fed.front->release_service(intra.result.value().flow).is_ok());
  EXPECT_NE(fed.digest_values(), at_snapshot);

  ASSERT_TRUE(fed.front->restore(frame.value()).is_ok());
  EXPECT_EQ(fed.digest_values(), at_snapshot);
  EXPECT_EQ(fed.front->live_flows(), 2u);

  // The restored coordinator still maps federation ids to the right
  // member flows: both pre-snapshot reservations release cleanly.
  EXPECT_TRUE(fed.front->release_service(intra.result.value().flow).is_ok());
  EXPECT_TRUE(fed.front->release_service(inter.result.value().flow).is_ok());
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(fed.members[d]->broker().flows().count(), 0u) << "domain " << d;
  }

  // Hostile frames are rejected without touching state.
  WireBuffer junk = frame.value();
  junk[0] ^= 0xff;
  EXPECT_FALSE(fed.front->restore(junk).is_ok());
  WireBuffer truncated(frame.value().begin(), frame.value().end() - 1);
  EXPECT_FALSE(fed.front->restore(truncated).is_ok());
}

}  // namespace
}  // namespace qosbb
