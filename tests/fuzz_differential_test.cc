// Differential fuzz suite: broker fast path vs. the from-scratch oracle
// (core/oracle.h) under long randomized operation sequences. See
// tools/fuzz_harness.h for the operation model. The seed set here is the
// repository's standing corpus — CI runs it on every configuration of the
// build matrix, sanitized included.

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "core/broker.h"
#include "core/oracle.h"
#include "tools/fuzz_harness.h"
#include "topo/fig8.h"

namespace qosbb {
namespace {

using fuzz::FuzzConfig;
using fuzz::FuzzResult;
using fuzz::FuzzTopology;

class FuzzDifferential
    : public ::testing::TestWithParam<std::tuple<int, FuzzTopology>> {};

// The acceptance corpus: 10 seeds × 2000 ops on every topology, zero
// divergences allowed. A failure prints the full divergence description
// plus a minimized replayable repro.
TEST_P(FuzzDifferential, BrokerMatchesOracle) {
  FuzzConfig cfg;
  cfg.seed = static_cast<std::uint64_t>(std::get<0>(GetParam()));
  cfg.ops = 2000;
  cfg.topology = std::get<1>(GetParam());
  const FuzzResult result = fuzz::run_fuzz(cfg);
  ASSERT_TRUE(result.ok) << result.summary() << "\n--- minimized repro ---\n"
                         << fuzz::dump_repro(
                                cfg, fuzz::minimize(cfg, result.ops));
  EXPECT_EQ(result.ops_executed, cfg.ops);
  // The corpus must actually exercise the broker, not just bounce off it —
  // including the durability layer (crash/recover and duplicate delivery).
  EXPECT_GT(result.admits, 0);
  EXPECT_GT(result.rejects, 0);
  EXPECT_GT(result.snapshots, 0);
  EXPECT_GT(result.recoveries, 0);
  EXPECT_GT(result.redeliveries, 0);
  EXPECT_GT(result.batch_admits, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzDifferential,
    ::testing::Combine(::testing::Range(1, 11),
                       ::testing::Values(FuzzTopology::kFig8Mixed,
                                         FuzzTopology::kFig8RateOnly,
                                         FuzzTopology::kDumbbellEdf)));

// CANARY (acceptance criterion): an intentionally-broken cache
// invalidation — the knot-cache dirty flag silently dropped after every
// operation — must be caught by the harness within the default seed set.
// If this test ever fails, the differential harness has lost its teeth.
TEST(FuzzDifferentialCanary, MissedKnotInvalidationIsCaught) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FuzzConfig cfg;
    cfg.seed = seed;
    cfg.ops = 2000;
    cfg.topology = FuzzTopology::kFig8Mixed;
    cfg.sabotage_knot_cache = true;
    const FuzzResult result = fuzz::run_fuzz(cfg);
    EXPECT_FALSE(result.ok)
        << "seed " << seed
        << ": sabotaged invalidation went undetected for " << cfg.ops
        << " ops";
    EXPECT_NE(result.divergence.find("knot"), std::string::npos)
        << result.divergence;
  }
}

// Direct canary at the MIB level: a stale knot cache (dirty flag dropped
// between an EDF mutation and the read) must fail oracle_check_state.
TEST(FuzzDifferentialCanary, OracleStateCheckFlagsStaleKnotCache) {
  const DomainSpec spec = fig8_topology(Fig8Setting::kMixed);
  BandwidthBroker bb(spec);
  ASSERT_TRUE(bb.provision_path("I2", "E2").is_ok());
  auto res = bb.request_service(
      {TrafficProfile::make(60000, 50000, 100000, 12000), 2.19, "I2", "E2"},
      0.0);
  ASSERT_TRUE(res.is_ok());
  ASSERT_TRUE(oracle_check_state(bb).ok);

  LinkQosState& link = bb.nodes().link("R3->R4");
  (void)link.knot_prefixes();  // warm + clean
  link.add_edf_entry(5000.0, 0.5, 9000.0);  // sets the dirty flag...
  link.testonly_mark_knots_clean();         // ...which a buggy path drops
  const OracleStateReport report = oracle_check_state(bb);
  EXPECT_FALSE(report.ok);
  link.remove_edf_entry(5000.0, 0.5, 9000.0);
  EXPECT_TRUE(oracle_check_state(bb).ok);
}

// Batched admission, sequential differential: every kBatchAdmit op runs
// the batch against a journal-clone executing its members one at a time in
// batch_grouped_order, requiring identical per-member decisions, identical
// state digests, AND byte-identical journal contents (the group frame is
// the same records as member-at-a-time appends, in one flush). batch_heavy
// widens the slice to ~24% of the mix.
TEST(FuzzBatched, BatchHeavyMixMatchesOneAtATime) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const FuzzTopology topo :
         {FuzzTopology::kFig8Mixed, FuzzTopology::kFig8RateOnly,
          FuzzTopology::kDumbbellEdf}) {
      FuzzConfig cfg;
      cfg.seed = seed;
      cfg.ops = 1000;
      cfg.topology = topo;
      cfg.batch_heavy = true;
      const FuzzResult result = fuzz::run_fuzz(cfg);
      ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.summary();
      EXPECT_GT(result.batch_admits, 100) << "seed " << seed;
    }
  }
}

// Batched admission through the CONCURRENT front: submit_batch must be
// bit-identical to the monolith executing the members one at a time, and
// the admission pre-filter must agree with the full admission test on
// every prediction (asserted inside run_fuzz_threaded) — of which there
// must be some.
TEST(FuzzBatched, ThreadedBatchHeavyMatchesMonolith) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const FuzzTopology topo :
         {FuzzTopology::kFig8Mixed, FuzzTopology::kFig8RateOnly,
          FuzzTopology::kDumbbellEdf}) {
      FuzzConfig cfg;
      cfg.seed = seed;
      cfg.ops = 1000;
      cfg.topology = topo;
      cfg.batch_heavy = true;
      const FuzzResult result = fuzz::run_fuzz_threaded(cfg);
      ASSERT_TRUE(result.ok) << "seed " << seed << ": " << result.summary();
      EXPECT_GT(result.batch_admits, 100) << "seed " << seed;
      EXPECT_GT(result.prefilter_checked, 0u) << "seed " << seed;
    }
  }
}

// Crash-point sweep: recover at every record boundary, inside every
// record, and under single-bit corruption; zero divergences allowed. With
// kBatchAdmit in the mix, multi-record group frames are cut at EVERY byte
// (hence the much larger mid-cut floor).
TEST(FuzzCrashSweep, EveryCrashPointRecoversExactly) {
  for (const FuzzTopology topo :
       {FuzzTopology::kFig8Mixed, FuzzTopology::kDumbbellEdf}) {
    fuzz::FuzzConfig cfg;
    cfg.seed = 7;
    cfg.ops = 150;
    cfg.topology = topo;
    const fuzz::CrashSweepResult sweep = fuzz::run_crash_sweep(cfg);
    EXPECT_TRUE(sweep.ok) << sweep.summary();
    EXPECT_GT(sweep.boundaries, 0);
    EXPECT_GT(sweep.mid_cuts, 1000);
    EXPECT_GT(sweep.bit_flips, 0);
    EXPECT_GT(sweep.redeliveries, 0);
  }
}

// CANARY (acceptance criterion): a silently dropped journal append — the
// broker acknowledges an op that never reached the log — must be detected
// by recovery in every run. If this fails, a crash could silently lose an
// acknowledged reservation.
TEST(FuzzDifferentialCanary, DroppedJournalAppendIsCaught) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    FuzzConfig cfg;
    cfg.seed = seed;
    cfg.ops = 400;
    cfg.topology = FuzzTopology::kFig8Mixed;
    cfg.sabotage_drop_append = true;
    const FuzzResult result = fuzz::run_fuzz(cfg);
    EXPECT_FALSE(result.ok)
        << "seed " << seed << ": dropped append went undetected for "
        << cfg.ops << " ops";
    EXPECT_NE(result.divergence.find("recovery"), std::string::npos)
        << result.divergence;
  }
}

// Repro files must round-trip exactly: %.17g serialization preserves every
// double bit-for-bit, and replay of a dumped run reproduces its result.
TEST(FuzzRepro, DumpParseReplayRoundTrip) {
  FuzzConfig cfg;
  cfg.seed = 42;
  cfg.ops = 300;
  cfg.topology = FuzzTopology::kDumbbellEdf;
  const FuzzResult first = fuzz::run_fuzz(cfg);
  ASSERT_TRUE(first.ok) << first.summary();

  const std::string text = fuzz::dump_repro(cfg, first.ops);
  auto parsed = fuzz::parse_repro(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first.seed, cfg.seed);
  EXPECT_EQ(parsed->first.topology, cfg.topology);
  ASSERT_EQ(parsed->second.size(), first.ops.size());
  for (std::size_t i = 0; i < first.ops.size(); ++i) {
    EXPECT_EQ(parsed->second[i].kind, first.ops[i].kind) << "op " << i;
    EXPECT_EQ(parsed->second[i].sigma, first.ops[i].sigma) << "op " << i;
    EXPECT_EQ(parsed->second[i].d_req, first.ops[i].d_req) << "op " << i;
    EXPECT_EQ(parsed->second[i].target, first.ops[i].target) << "op " << i;
  }
  const FuzzResult second = fuzz::replay(parsed->first, parsed->second);
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(second.admits, first.admits);
  EXPECT_EQ(second.snapshots, first.snapshots);
}

// Minimization must shrink a diverging sequence and keep it diverging.
TEST(FuzzRepro, MinimizationPreservesDivergence) {
  FuzzConfig cfg;
  cfg.seed = 1;
  cfg.ops = 400;
  cfg.topology = FuzzTopology::kFig8Mixed;
  cfg.sabotage_knot_cache = true;  // guaranteed, early divergence
  const FuzzResult result = fuzz::run_fuzz(cfg);
  ASSERT_FALSE(result.ok);
  const auto minimized = fuzz::minimize(cfg, result.ops);
  ASSERT_FALSE(minimized.empty());
  EXPECT_LE(minimized.size(),
            static_cast<std::size_t>(result.divergence_op) + 1);
  EXPECT_FALSE(fuzz::replay(cfg, minimized).ok);
}

// The per-flow oracle agrees with the §3 fast path on a fresh broker too —
// a direct unit-level check independent of the fuzz loop.
TEST(OracleUnit, AgreesOnFreshMixedPath) {
  const DomainSpec spec = fig8_topology(Fig8Setting::kMixed);
  BandwidthBroker bb(spec);
  auto path = bb.provision_path("I2", "E2");
  ASSERT_TRUE(path.is_ok());
  const TrafficProfile probe = TrafficProfile::make(60000, 50000, 100000,
                                                    12000);
  const AdmissionOutcome fast =
      admit_per_flow(bb.path_view(path.value()), probe, 2.19);
  const AdmissionOutcome oracle =
      oracle_admit_per_flow(bb.paths(), bb.nodes(), path.value(), probe,
                            2.19);
  std::string why;
  EXPECT_TRUE(oracle_outcomes_equivalent(fast, oracle, &why)) << why;
  ASSERT_TRUE(fast.admitted);
  EXPECT_EQ(fast.params.rate, oracle.params.rate);
  EXPECT_EQ(fast.params.delay, oracle.params.delay);
}

}  // namespace
}  // namespace qosbb
