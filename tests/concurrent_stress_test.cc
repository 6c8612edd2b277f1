// Concurrent stress for the decomposed broker: LinkStateStore +
// AdmissionEngine + ConcurrentBrokerFront under genuine multi-threaded
// load. Three scenarios:
//
//   * disjoint chains — requests on non-overlapping paths must all admit,
//     with ZERO optimistic-commit conflicts (nothing shares a link);
//   * overlapping Figure-8 paths — admit/release/renegotiate racing on
//     shared core links; the final MIB state must be exactly what the
//     surviving flow set implies (oracle_check_state is the
//     serializability check: it rebooks the committed flows from scratch),
//     stats must balance against the per-thread tallies, and draining
//     every flow must return all bookkeeping to zero;
//   * exclusive/fast interleaving — class-based joins (exclusive big_)
//     racing per-flow admits (shared big_).
//
// The CI tsan preset runs this binary with ThreadSanitizer; any data race
// in the snapshot/validate/commit protocol or the shard locking fails the
// job, not just this file's assertions.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/oracle.h"
#include "topo/fig8.h"
#include "util/rng.h"

namespace qosbb {
namespace {

/// K fully disjoint two-hop chains I<k> -> M<k> -> E<k>, alternating
/// rate-based and delay-based schedulers so both admission algorithms run.
DomainSpec disjoint_chains(int k) {
  DomainSpec spec;
  spec.l_max = 12000.0;
  for (int i = 0; i < k; ++i) {
    const std::string in = "I" + std::to_string(i);
    const std::string mid = "M" + std::to_string(i);
    const std::string out = "E" + std::to_string(i);
    spec.nodes.insert(spec.nodes.end(), {in, mid, out});
    const SchedPolicy policy =
        (i % 2 == 0) ? SchedPolicy::kCsvc : SchedPolicy::kVtEdf;
    spec.links.push_back({in, mid, 1.5e6, 0.0, policy});
    spec.links.push_back({mid, out, 1.5e6, 0.0, policy});
  }
  return spec;
}

FlowServiceRequest make_request(Rng& rng, const std::string& ingress,
                                const std::string& egress) {
  const double l_max = 8000.0;
  const double rho = rng.uniform(20000.0, 60000.0);
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(l_max + rng.uniform(10000.0, 60000.0),
                                     rho, rho * rng.uniform(1.2, 3.0), l_max);
  req.e2e_delay_req = rng.uniform(1.8, 3.2);
  req.ingress = ingress;
  req.egress = egress;
  return req;
}

TEST(ConcurrentStress, DisjointChainsAdmitWithoutConflicts) {
  constexpr int kChains = 8;
  constexpr int kIters = 40;
  BandwidthBroker bb(disjoint_chains(kChains));
  ConcurrentBrokerFront front(bb);
  front.exclusive([&](BandwidthBroker& b) {
    for (int i = 0; i < kChains; ++i) {
      EXPECT_TRUE(b.provision_path("I" + std::to_string(i),
                                   "E" + std::to_string(i))
                      .is_ok());
    }
  });

  // One thread per chain: admit a fresh flow, release the previous one,
  // so every chain keeps <= 2 live reservations (far below capacity —
  // every admit must succeed).
  std::vector<int> admitted(kChains, 0);
  std::vector<std::thread> threads;
  threads.reserve(kChains);
  for (int c = 0; c < kChains; ++c) {
    threads.emplace_back([&front, &admitted, c] {
      const std::string in = "I" + std::to_string(c);
      const std::string out = "E" + std::to_string(c);
      FlowId live = kInvalidFlowId;
      for (int i = 0; i < kIters; ++i) {
        FlowServiceRequest req;
        req.profile = TrafficProfile::make(60000.0, 50000.0, 100000.0, 8000.0);
        req.e2e_delay_req = 2.4;
        req.ingress = in;
        req.egress = out;
        FrontOutcome got = front.request_service(req);
        if (got.result.is_ok()) {
          ++admitted[c];
          if (live != kInvalidFlowId) {
            EXPECT_TRUE(front.release_service(live).is_ok());
          }
          live = got.result.value().flow;
        }
      }
      if (live != kInvalidFlowId) {
        EXPECT_TRUE(front.release_service(live).is_ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  int total = 0;
  for (const int n : admitted) total += n;

  EXPECT_EQ(total, kChains * kIters);
  // Disjoint paths touch disjoint links: the optimistic commit must never
  // observe a version conflict.
  EXPECT_EQ(front.occ_conflicts(), 0u);
  EXPECT_EQ(bb.flows().count(), 0u);
  EXPECT_EQ(bb.stats().requests.load(),
            bb.stats().admitted.load() + bb.stats().total_rejected());
  const OracleStateReport rep = oracle_check_state(bb, nullptr);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(ConcurrentStress, OverlappingPathsRaceIsSerializable) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kMixed));
  ConcurrentBrokerFront front(bb);
  front.exclusive([](BandwidthBroker& b) {
    EXPECT_TRUE(b.provision_path("I1", "E1").is_ok());
    EXPECT_TRUE(b.provision_path("I2", "E2").is_ok());
  });

  constexpr int kThreads = 4;
  constexpr int kOps = 60;
  struct Tally {
    int admits = 0;
    int rejects = 0;
    int renegs_ok = 0;
    int renegs_fail = 0;
    std::vector<FlowId> live;  ///< this thread's surviving reservations
  };
  std::vector<Tally> tallies(kThreads);

  // Seeded per-thread op streams over the two OVERLAPPING endpoint pairs
  // (both cross the shared Figure-8 core) — admits race releases and
  // renegotiations on the same links. Each thread only ever releases or
  // renegotiates its own flows; the link state is where they collide.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&front, &tallies, t] {
      Rng rng(0xC0FFEEu + 977u * static_cast<std::uint64_t>(t));
      Tally& tl = tallies[t];
      for (int i = 0; i < kOps; ++i) {
        const std::int64_t roll = rng.uniform_int(1, 100);
        if (roll <= 55 || tl.live.empty()) {
          const bool first = rng.bernoulli(0.5);
          FrontOutcome got = front.request_service(make_request(
              rng, first ? "I1" : "I2", first ? "E1" : "E2"));
          if (got.result.is_ok()) {
            ++tl.admits;
            tl.live.push_back(got.result.value().flow);
          } else {
            ++tl.rejects;
          }
        } else if (roll <= 80) {
          const std::size_t idx = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(tl.live.size()) - 1));
          EXPECT_TRUE(front.release_service(tl.live[idx]).is_ok());
          tl.live[idx] = tl.live.back();
          tl.live.pop_back();
        } else {
          const FlowId id = tl.live[static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(tl.live.size()) - 1))];
          FrontOutcome got =
              front.renegotiate_service(id, rng.uniform(1.8, 3.2));
          if (got.result.is_ok()) {
            ++tl.renegs_ok;
          } else {
            ++tl.renegs_fail;
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  int admits = 0, rejects = 0, renegs_ok = 0, renegs_fail = 0;
  std::size_t live = 0;
  for (const Tally& tl : tallies) {
    admits += tl.admits;
    rejects += tl.rejects;
    renegs_ok += tl.renegs_ok;
    renegs_fail += tl.renegs_fail;
    live += tl.live.size();
  }
  // Counter balance: every admit attempt bumps `requests` and exactly one
  // of admitted/rejected; a successful renegotiation bumps both `requests`
  // and `admitted`, a failed one only its reject reason.
  EXPECT_EQ(bb.stats().requests.load(),
            static_cast<std::uint64_t>(admits + rejects + renegs_ok));
  EXPECT_EQ(bb.stats().admitted.load(),
            static_cast<std::uint64_t>(admits + renegs_ok));
  EXPECT_EQ(bb.stats().total_rejected(),
            static_cast<std::uint64_t>(rejects + renegs_fail));
  EXPECT_EQ(bb.flows().count(), live);

  // Serializability: the MIB must hold exactly the state that rebooking
  // the surviving flow set from scratch produces — i.e. the outcome of
  // SOME sequential ordering of the committed operations.
  OracleStateReport rep = oracle_check_state(bb, nullptr);
  EXPECT_TRUE(rep.ok) << rep.to_string();

  // Drain everything; all link bookkeeping must return to zero.
  for (const Tally& tl : tallies) {
    for (FlowId id : tl.live) {
      EXPECT_TRUE(front.release_service(id).is_ok());
    }
  }
  EXPECT_EQ(bb.flows().count(), 0u);
  for (const auto& l : bb.spec().links) {
    const LinkQosState& link = bb.nodes().link(l.from + "->" + l.to);
    EXPECT_NEAR(link.reserved(), 0.0, 1e-6) << link.name();
    EXPECT_NEAR(link.buffer_reserved(), 0.0, 1e-6) << link.name();
  }
  rep = oracle_check_state(bb, nullptr);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

TEST(ConcurrentStress, ExclusiveClassOpsInterleaveWithFastAdmits) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kMixed));
  ConcurrentBrokerFront front(bb);
  ClassId gold = kInvalidClassId;
  front.exclusive([&](BandwidthBroker& b) {
    EXPECT_TRUE(b.provision_path("I1", "E1").is_ok());
    EXPECT_TRUE(b.provision_path("I2", "E2").is_ok());
    gold = b.define_class(2.19, 0.10, "gold");
  });

  // Thread A: per-flow admit/release churn through the shared-mode fast
  // path. Thread B: class joins and leaves, each a full exclusive (writer)
  // acquisition of big_ — the two must interleave without deadlock or
  // state corruption, and contingency grants are settled inside the same
  // exclusive section that created them.
  std::thread per_flow([&front] {
    Rng rng(0xBEEF);
    std::vector<FlowId> live;
    for (int i = 0; i < 80; ++i) {
      if (rng.bernoulli(0.6) || live.empty()) {
        FrontOutcome got =
            front.request_service(make_request(rng, "I1", "E1"));
        if (got.result.is_ok()) live.push_back(got.result.value().flow);
      } else {
        EXPECT_TRUE(front.release_service(live.back()).is_ok());
        live.pop_back();
      }
    }
    for (FlowId id : live) EXPECT_TRUE(front.release_service(id).is_ok());
  });
  std::thread class_based([&front, gold] {
    Rng rng(0xFACE);
    for (int i = 0; i < 30; ++i) {
      const TrafficProfile profile =
          TrafficProfile::make(40000.0, 30000.0, 60000.0, 8000.0);
      front.exclusive([&](BandwidthBroker& b) {
        JoinResult join = b.request_class_service(gold, profile, "I2", "E2",
                                                  static_cast<Seconds>(i),
                                                  std::nullopt);
        if (!join.admitted) return;
        if (join.grant != kInvalidGrantId) {
          b.expire_contingency(join.grant, join.contingency_expires_at);
        }
        auto leave = b.leave_class_service(join.microflow,
                                           static_cast<Seconds>(i) + 0.5,
                                           std::nullopt);
        EXPECT_TRUE(leave.is_ok());
        if (leave.is_ok() && leave.value().grant != kInvalidGrantId) {
          b.expire_contingency(leave.value().grant,
                               leave.value().contingency_expires_at);
        }
      });
    }
  });
  per_flow.join();
  class_based.join();

  EXPECT_EQ(bb.flows().count(), 0u);
  EXPECT_EQ(bb.stats().requests.load(),
            bb.stats().admitted.load() + bb.stats().total_rejected());
  const OracleStateReport rep = oracle_check_state(bb, nullptr);
  EXPECT_TRUE(rep.ok) << rep.to_string();
}

}  // namespace
}  // namespace qosbb
