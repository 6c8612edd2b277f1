// Tests for broker state snapshot / crash recovery: round trip fidelity,
// id preservation, MIB reconstruction, quiescence precondition, and
// hostile-frame handling.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/broker.h"
#include "core/hierarchical.h"
#include "core/interdomain.h"
#include "core/wire.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "federation/partition.h"
#include "topo/builders.h"
#include "topo/fig8.h"
#include "util/rng.h"

namespace qosbb {
namespace {

TrafficProfile type0() {
  return TrafficProfile::make(60000, 50000, 100000, 12000);
}

TrafficProfile type2() {
  return TrafficProfile::make(36000, 30000, 100000, 12000);
}

/// A broker with mixed state: per-flow reservations on both paths, two
/// classes, two macroflows.
std::unique_ptr<BandwidthBroker> populated_broker() {
  auto bb = std::make_unique<BandwidthBroker>(
      fig8_topology(Fig8Setting::kMixed),
      BrokerOptions{ContingencyMethod::kFeedback});
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(bb->request_service({type0(), 2.19, "I1", "E1"}).is_ok());
  }
  EXPECT_TRUE(bb->request_service({type2(), 2.91, "I2", "E2"}).is_ok());
  const ClassId gold = bb->define_class(2.19, 0.10, "gold");
  const ClassId silver = bb->define_class(2.91, 0.24, "silver");
  for (int i = 0; i < 3; ++i) {
    auto j = bb->request_class_service(gold, type0(), "I1", "E1",
                                       10.0 + i, 0.0);
    EXPECT_TRUE(j.admitted);
  }
  auto j = bb->request_class_service(silver, type2(), "I2", "E2", 20.0, 0.0);
  EXPECT_TRUE(j.admitted);
  return bb;
}

/// Every piece of link-level accounting must agree between two brokers.
void expect_same_mibs(const BandwidthBroker& a, const BandwidthBroker& b) {
  for (const auto& l : a.spec().links) {
    const std::string name = l.from + "->" + l.to;
    const LinkQosState& la = a.nodes().link(name);
    const LinkQosState& lb = b.nodes().link(name);
    EXPECT_NEAR(la.reserved(), lb.reserved(), 1e-6) << name;
    EXPECT_NEAR(la.buffer_reserved(), lb.buffer_reserved(), 1e-6) << name;
    ASSERT_EQ(la.edf_buckets().size(), lb.edf_buckets().size()) << name;
    for (const auto& [d, bucket] : la.edf_buckets()) {
      ASSERT_TRUE(lb.edf_buckets().contains(d)) << name << " knot " << d;
      EXPECT_NEAR(bucket.sum_rate, lb.edf_buckets().at(d).sum_rate, 1e-6);
      EXPECT_EQ(bucket.count, lb.edf_buckets().at(d).count);
    }
  }
}

TEST(Snapshot, RoundTripReconstructsEverything) {
  auto original = populated_broker();
  auto frame = original->snapshot();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  EXPECT_EQ(peek_type(frame.value()).value(), MessageType::kBrokerSnapshot);

  auto restored = BandwidthBroker::restore(
      fig8_topology(Fig8Setting::kMixed),
      BrokerOptions{ContingencyMethod::kFeedback}, frame.value());
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  BandwidthBroker& bb = *restored.value();

  EXPECT_EQ(bb.flows().count(), original->flows().count());
  EXPECT_EQ(bb.classes().macroflow_count(),
            original->classes().macroflow_count());
  expect_same_mibs(*original, bb);
  // Flow records identical, ids preserved.
  for (const auto& [id, rec] : original->flows().all()) {
    auto got = bb.flows().get(id);
    ASSERT_TRUE(got.is_ok()) << "flow " << id;
    EXPECT_EQ(got.value().kind, rec.kind);
    EXPECT_EQ(got.value().profile, rec.profile);
    EXPECT_NEAR(got.value().reservation.rate, rec.reservation.rate, 1e-9);
    EXPECT_EQ(got.value().path, rec.path);
  }
}

TEST(Snapshot, RestoredBrokerKeepsWorking) {
  auto original = populated_broker();
  // Record what the original would do next.
  auto frame = original->snapshot().value();
  auto next_original = original->request_service({type0(), 2.19, "I1", "E1"});

  auto restored = BandwidthBroker::restore(
      fig8_topology(Fig8Setting::kMixed),
      BrokerOptions{ContingencyMethod::kFeedback}, frame);
  ASSERT_TRUE(restored.is_ok());
  BandwidthBroker& bb = *restored.value();
  // The restored broker makes the SAME next decision...
  auto next_restored = bb.request_service({type0(), 2.19, "I1", "E1"});
  ASSERT_EQ(next_original.is_ok(), next_restored.is_ok());
  if (next_original.is_ok()) {
    EXPECT_NEAR(next_restored.value().params.rate,
                next_original.value().params.rate, 1e-6);
  }
  // ...and can tear down pre-crash state (id continuity).
  for (const auto& [id, rec] : bb.flows().all()) {
    if (rec.kind == FlowKind::kPerFlow && id != next_restored.value().flow) {
      EXPECT_TRUE(bb.release_service(id).is_ok()) << id;
      break;
    }
  }
}

TEST(Snapshot, MicroflowLeaveWorksAfterRestore) {
  auto original = populated_broker();
  auto frame = original->snapshot().value();
  auto restored = BandwidthBroker::restore(
      fig8_topology(Fig8Setting::kMixed),
      BrokerOptions{ContingencyMethod::kFeedback}, frame);
  ASSERT_TRUE(restored.is_ok());
  BandwidthBroker& bb = *restored.value();
  // Find a microflow and leave.
  FlowId micro = kInvalidFlowId;
  for (const auto& [id, rec] : bb.flows().all()) {
    if (rec.kind == FlowKind::kMicroflow) {
      micro = id;
      break;
    }
  }
  ASSERT_NE(micro, kInvalidFlowId);
  auto leave = bb.leave_class_service(micro, 100.0, 0.0);
  ASSERT_TRUE(leave.is_ok()) << leave.status().to_string();
}

TEST(Snapshot, RequiresQuiescence) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly),
                     BrokerOptions{ContingencyMethod::kBounding});
  const ClassId cls = bb.define_class(2.44, 0.0);
  ASSERT_TRUE(bb.request_class_service(cls, type0(), "I1", "E1", 0.0)
                  .admitted);
  auto j2 = bb.request_class_service(cls, type0(), "I1", "E1", 1.0);
  ASSERT_TRUE(j2.admitted);
  ASSERT_NE(j2.grant, kInvalidGrantId);  // live transient
  auto frame = bb.snapshot();
  EXPECT_FALSE(frame.is_ok());
  // Typed transient error: settle the grants and retry.
  EXPECT_EQ(frame.status().code(), StatusCode::kUnavailable);
  // After the grant expires, snapshotting works.
  bb.expire_contingency(j2.grant, j2.contingency_expires_at);
  EXPECT_TRUE(bb.snapshot().is_ok());
}

TEST(Snapshot, EmptyBrokerRoundTrips) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  auto frame = bb.snapshot();
  ASSERT_TRUE(frame.is_ok());
  auto restored = BandwidthBroker::restore(
      fig8_topology(Fig8Setting::kRateBasedOnly), BrokerOptions{},
      frame.value());
  ASSERT_TRUE(restored.is_ok());
  EXPECT_EQ(restored.value()->flows().count(), 0u);
  EXPECT_DOUBLE_EQ(restored.value()->nodes().total_reserved(), 0.0);
}

// Out-of-band link reservations (reserve_link_external) are first-class
// snapshot state: they serialize, restore, and stay releasable.
TEST(Snapshot, ExternalReservationsRoundTrip) {
  const DomainSpec spec = fig8_topology(Fig8Setting::kRateBasedOnly);
  BandwidthBroker bb(spec);
  ASSERT_TRUE(bb.request_service({type0(), 2.44, "I1", "E1"}).is_ok());
  ASSERT_TRUE(bb.reserve_link_external("R2->R3", 120000).is_ok());
  ASSERT_TRUE(bb.reserve_link_external("R4->R5", 80000).is_ok());
  auto frame = bb.snapshot();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();

  auto restored = BandwidthBroker::restore(spec, {}, frame.value());
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value()->external_reserved().size(), 2u);
  EXPECT_DOUBLE_EQ(restored.value()->external_reserved().at("R2->R3"),
                   120000.0);
  expect_same_mibs(bb, *restored.value());
  // The restored booking is live, not just cosmetic: it can be released.
  auto freed = restored.value()->release_link_external("R2->R3", 120000);
  ASSERT_TRUE(freed.is_ok());
  EXPECT_DOUBLE_EQ(freed.value(), 120000.0);
}

// A hierarchical quota lease books bandwidth directly on the central node
// MIB — state the snapshot records cannot explain. Snapshotting then MUST
// fail loudly (kFailedPrecondition), never emit a frame that would silently
// lose the lease on recovery. Once the lease is returned, the same broker
// snapshots fine.
TEST(Snapshot, HierarchicalLeaseFailsLoudlyThenRoundTripsAfterRestore) {
  CentralBroker central(fig8_topology(Fig8Setting::kRateBasedOnly));
  const PathId path = central.domain().provision_path("I1", "E1").value();
  ASSERT_TRUE(
      central.domain().request_service({type0(), 2.44, "I1", "E1"}).is_ok());
  EXPECT_DOUBLE_EQ(central.lease("edge1", path, 200000), 200000.0);

  auto frame = central.domain().snapshot();
  ASSERT_FALSE(frame.is_ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFailedPrecondition);

  central.restore("edge1", path, 200000);
  frame = central.domain().snapshot();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  auto restored = BandwidthBroker::restore(
      fig8_topology(Fig8Setting::kRateBasedOnly), {}, frame.value());
  ASSERT_TRUE(restored.is_ok());
  expect_same_mibs(central.domain(), *restored.value());
}

// An SLA trunk lives inside the transit domain's broker as an ordinary
// per-flow reservation, so a transit BB snapshot round-trips it: same link
// accounting, same flow record, still releasable after restore.
TEST(Snapshot, InterDomainTrunkStateRoundTrips) {
  ChainOptions opt;
  opt.hops = 3;
  opt.prefix = "T";
  opt.capacity = 1.5e6;
  InterDomainOrchestrator orch;
  ChainOptions src = opt, dst = opt;
  src.prefix = "A";
  src.hops = 2;
  dst.prefix = "B";
  dst.hops = 2;
  orch.add_domain("src", chain_topology(src), "A0", "A2");
  orch.add_domain("transit", chain_topology(opt), "T0", "T3");
  orch.add_domain("dst", chain_topology(dst), "B0", "B2");
  ASSERT_TRUE(orch.provision_trunk("transit", 600000, 120000).is_ok());
  ASSERT_TRUE(orch.request_service(type0(), 6.0).is_ok());

  BandwidthBroker& transit = orch.domain("transit");
  ASSERT_EQ(transit.flows().count(), 1u);  // the trunk itself
  auto frame = transit.snapshot();
  ASSERT_TRUE(frame.is_ok()) << frame.status().to_string();
  auto restored =
      BandwidthBroker::restore(chain_topology(opt), {}, frame.value());
  ASSERT_TRUE(restored.is_ok()) << restored.status().to_string();
  EXPECT_EQ(restored.value()->flows().count(), 1u);
  expect_same_mibs(transit, *restored.value());
  // The restored trunk reservation carries the same id and rate.
  for (const auto& [id, rec] : transit.flows().all()) {
    auto got = restored.value()->flows().get(id);
    ASSERT_TRUE(got.is_ok());
    EXPECT_DOUBLE_EQ(got.value().reservation.rate, rec.reservation.rate);
    EXPECT_TRUE(restored.value()->release_service(id).is_ok());
  }
  EXPECT_DOUBLE_EQ(restored.value()->nodes().total_reserved(), 0.0);
}

// An inter-domain federated admit leaves each member broker holding pinned
// segment reservations on its slice of the edge-aggregate graph. That state
// is ordinary per-flow state to the member, so a per-member snapshot
// round-trips it: identical link accounting, same pinned rate, and the
// restored segment is live (releasable).
TEST(Snapshot, FederatedSegmentAggregateStateRoundTripsPerMember) {
  MultiDomainOptions topo;
  topo.domains = 3;
  topo.edge_pairs = 2;
  const FederationPlan plan =
      partition_multi_domain(multi_domain_topology(topo), topo.domains);
  std::vector<std::unique_ptr<InProcessMember>> members;
  std::vector<FederationMember*> raw;
  for (int d = 0; d < plan.num_domains; ++d) {
    members.push_back(std::make_unique<InProcessMember>(
        d, plan.members[d], BrokerOptions{}));
    raw.push_back(members.back().get());
  }
  FederatedFront front(plan, raw);

  const FederatedOutcome out =
      front.request_service({type0(), 2.0, "D0I0", "D2E0"});
  ASSERT_TRUE(out.result.is_ok()) << out.detail;
  ASSERT_TRUE(out.inter_domain);
  ASSERT_EQ(out.segments, 3);

  for (int d = 0; d < plan.num_domains; ++d) {
    BandwidthBroker& member = members[static_cast<std::size_t>(d)]->broker();
    ASSERT_EQ(member.flows().count(), 1u) << "domain " << d;
    auto frame = member.snapshot();
    ASSERT_TRUE(frame.is_ok())
        << "domain " << d << ": " << frame.status().to_string();
    auto restored = BandwidthBroker::restore(
        plan.members[static_cast<std::size_t>(d)], {}, frame.value());
    ASSERT_TRUE(restored.is_ok())
        << "domain " << d << ": " << restored.status().to_string();
    expect_same_mibs(member, *restored.value());
    // The pinned segment survives with the federation rate r* and can be
    // torn down on the restored member.
    for (const auto& [id, rec] : member.flows().all()) {
      auto got = restored.value()->flows().get(id);
      ASSERT_TRUE(got.is_ok()) << "domain " << d << " flow " << id;
      EXPECT_DOUBLE_EQ(got.value().reservation.rate, out.segment_rate)
          << "domain " << d;
      EXPECT_TRUE(restored.value()->release_service(id).is_ok())
          << "domain " << d;
    }
    EXPECT_DOUBLE_EQ(restored.value()->nodes().total_reserved(), 0.0)
        << "domain " << d;
  }
}

// The e2e legs of an inter-domain reservation live in the source and
// destination domain brokers as per-flow state (complementing the transit
// trunk test above): each endpoint BB snapshot round-trips its leg and the
// restored leg is releasable.
TEST(Snapshot, InterDomainEndpointLegStateRoundTrips) {
  ChainOptions transit;
  transit.hops = 3;
  transit.prefix = "T";
  transit.capacity = 1.5e6;
  ChainOptions src = transit, dst = transit;
  src.prefix = "A";
  src.hops = 2;
  dst.prefix = "B";
  dst.hops = 2;
  InterDomainOrchestrator orch;
  orch.add_domain("src", chain_topology(src), "A0", "A2");
  orch.add_domain("transit", chain_topology(transit), "T0", "T3");
  orch.add_domain("dst", chain_topology(dst), "B0", "B2");
  ASSERT_TRUE(orch.provision_trunk("transit", 600000, 120000).is_ok());
  auto e2e = orch.request_service(type0(), 6.0);
  ASSERT_TRUE(e2e.is_ok()) << e2e.status().to_string();

  const struct {
    const char* name;
    ChainOptions opt;
    FlowId leg;
  } endpoints[] = {{"src", src, e2e.value().source_leg},
                   {"dst", dst, e2e.value().destination_leg}};
  for (const auto& ep : endpoints) {
    BandwidthBroker& bb = orch.domain(ep.name);
    ASSERT_EQ(bb.flows().count(), 1u) << ep.name;  // the leg itself
    auto frame = bb.snapshot();
    ASSERT_TRUE(frame.is_ok())
        << ep.name << ": " << frame.status().to_string();
    auto restored =
        BandwidthBroker::restore(chain_topology(ep.opt), {}, frame.value());
    ASSERT_TRUE(restored.is_ok())
        << ep.name << ": " << restored.status().to_string();
    expect_same_mibs(bb, *restored.value());
    auto got = restored.value()->flows().get(ep.leg);
    ASSERT_TRUE(got.is_ok()) << ep.name << " leg " << ep.leg;
    EXPECT_DOUBLE_EQ(got.value().reservation.rate,
                     bb.flows().get(ep.leg).value().reservation.rate)
        << ep.name;
    EXPECT_TRUE(restored.value()->release_service(ep.leg).is_ok()) << ep.name;
    EXPECT_DOUBLE_EQ(restored.value()->nodes().total_reserved(), 0.0)
        << ep.name;
  }
}

/// A snapshot frame of a broker with no flows, classes or external
/// reservations, whose path MIB lists `routes` in id order.
std::vector<std::uint8_t> paths_only_frame(
    const std::vector<std::vector<std::string>>& routes) {
  WireWriter body;
  body.u32(static_cast<std::uint32_t>(routes.size()));
  for (const std::vector<std::string>& route : routes) {
    body.u32(static_cast<std::uint32_t>(route.size()));
    for (const std::string& node : route) body.str(node);
  }
  for (int section = 0; section < 4; ++section) {
    body.u32(0);  // per-flow records, classes, macroflows, external
  }
  WireWriter frame;
  frame.u16(kWireMagic);
  frame.u8(kWireVersion);
  frame.u8(static_cast<std::uint8_t>(MessageType::kBrokerSnapshot));
  frame.u32(static_cast<std::uint32_t>(body.buffer().size()));
  frame.raw(body.buffer());
  return frame.take();
}

TEST(Snapshot, SecondRouteForAPairIsRejected) {
  // I -> E over a 2-hop and a 3-hop route. The path MIB holds one route
  // per pair, so a frame that provisions both is not a broker's.
  DomainSpec spec;
  spec.nodes = {"I", "A", "B1", "B2", "E"};
  spec.l_max = 12000.0;
  for (const auto& [from, to] : std::vector<std::pair<const char*,
                                                      const char*>>{
           {"I", "A"}, {"A", "E"}, {"I", "B1"}, {"B1", "B2"}, {"B2", "E"}}) {
    spec.links.push_back(LinkSpec{from, to, 1.5e6, 0.0, SchedPolicy::kCsvc,
                                  std::numeric_limits<double>::infinity()});
  }
  const std::vector<std::string> short_route = {"I", "A", "E"};
  const std::vector<std::string> long_route = {"I", "B1", "B2", "E"};

  BandwidthBroker bb(spec);
  ASSERT_TRUE(bb.provision_path("I", "E").is_ok());
  const auto live = bb.snapshot();
  ASSERT_TRUE(live.is_ok());
  ASSERT_EQ(paths_only_frame({short_route}), live.value());
  ASSERT_TRUE(BandwidthBroker::restore(spec, {}, live.value()).is_ok());

  const auto two = BandwidthBroker::restore(
      spec, {}, paths_only_frame({short_route, long_route}));
  ASSERT_FALSE(two.is_ok());
  EXPECT_EQ(two.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(two.status().to_string().find("second route"),
            std::string::npos);
}

TEST(Snapshot, HostileFramesAreCleanErrors) {
  auto original = populated_broker();
  const auto frame = original->snapshot().value();
  const DomainSpec spec = fig8_topology(Fig8Setting::kMixed);
  // Truncations.
  for (std::size_t n : {0ul, 4ul, 8ul, 20ul, frame.size() - 1}) {
    std::vector<std::uint8_t> cut(frame.begin(),
                                  frame.begin() + static_cast<long>(n));
    EXPECT_FALSE(BandwidthBroker::restore(spec, {}, cut).is_ok()) << n;
  }
  // Wrong message type.
  EXPECT_FALSE(BandwidthBroker::restore(
                   spec, {}, encode(TeardownRequest{1}))
                   .is_ok());
  // A path over a link the domain does not have, or with one node.
  for (const std::vector<std::string>& route :
       {std::vector<std::string>{"I1", "E9"},
        std::vector<std::string>{"I1"}}) {
    const auto bad =
        BandwidthBroker::restore(spec, {}, paths_only_frame({route}));
    ASSERT_FALSE(bad.is_ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  }
  // Random mutations must never crash (they may fail decode or trip a
  // booking REQUIRE, both reported as exceptions or Status; catch both).
  Rng rng(5);
  int clean = 0;
  for (int i = 0; i < 200; ++i) {
    auto mutated = frame;
    mutated[static_cast<std::size_t>(rng.uniform_int(
        8, static_cast<std::int64_t>(mutated.size()) - 1))] ^= 0xff;
    try {
      auto out = BandwidthBroker::restore(spec, {}, mutated);
      if (!out.is_ok()) ++clean;
    } catch (const std::logic_error&) {
      ++clean;  // booking invariant tripped: detected, not corrupted
    }
  }
  EXPECT_GT(clean, 0);
}

}  // namespace
}  // namespace qosbb
