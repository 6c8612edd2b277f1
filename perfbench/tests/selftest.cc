// Tests for the benchmark's own C++ code: the percentile rule, and the
// decorators being pure pass-through (a decorated JournalFile writes a
// byte-identical journal; a decorated FederationMember reaches identical
// FederationStats and member digests).
//
//   cmake --build .bench_build/perfbench --target bbperf_selftest
//   .bench_build/perfbench/bbperf_selftest

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/durable_broker.h"
#include "decorators.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "stats.h"
#include "workload.h"

using namespace qosbb;
using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(static_cast<double>(n - i));
  return v;
}

void test_percentile_rule() {
  // 1000 samples: rank 990 for p99, exactly 10 samples beyond it.
  std::vector<double> v = ramp(1000);
  Percentile p = percentile(v, 99.0);
  check(p.ok && p.beyond == 10 && p.value == 990.0 && p.count == 1000,
        "p99 of 1000 samples has 10 beyond it and is supported");
  // 999 samples: only 9 beyond the p99 rank.
  v = ramp(999);
  p = percentile(v, 99.0);
  check(!p.ok && p.beyond == 9 && p.count == 999,
        "p99 of 999 samples is flagged unsupported");
  v = ramp(999);
  Percentile top = highest_supported(v, {50.0, 90.0, 99.0, 99.9});
  check(top.q == 90.0 && top.beyond >= kMinBeyond,
        "highest supported percentile of 999 samples is p90");
  v = ramp(5);
  top = highest_supported(v, {50.0, 90.0, 99.0});
  check(top.q == 50.0 && top.value == 3.0 && !top.ok,
        "tiny samples fall back to an (unsupported) median");
  std::vector<double> empty;
  p = percentile(empty, 50.0);
  check(!p.ok && p.count == 0, "empty sample reports count 0");
}

FlowServiceRequest churn_request(int pair, double mbps) {
  FlowServiceRequest r;
  r.profile = TrafficProfile::make(24000.0, mbps * 1e6, 2 * mbps * 1e6, 12000.0);
  r.e2e_delay_req = 1.0;
  r.ingress = "I" + std::to_string(pair);
  r.egress = "E" + std::to_string(pair);
  return r;
}

// Drives the same ops through a DurableBroker over `file`.
void journal_ops(JournalFile& file) {
  const ChurnConfig cfg = churn_config(Workload::kJournaledChurn);
  const DomainSpec spec = dumbbell_topology(churn_topology_options(cfg));
  auto db = DurableBroker::open(spec, BrokerOptions{}, file).value();
  (void)db->provision_path(kNoRequestId, "I0", "E0");
  std::vector<FlowServiceRequest> reqs;
  std::vector<RequestId> rids;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(churn_request(0, 1 + i % 3));
    rids.push_back(static_cast<RequestId>(100 + i));
  }
  auto res = db->request_service_batch(rids, reqs, 0.0);
  (void)db->release_service(200, res[0].value().flow);
  (void)db->request_service(201, churn_request(0, 2), 0.0);
}

void test_journal_decorator() {
  MemoryJournalFile plain;
  journal_ops(plain);
  MemoryJournalFile inner;
  TimedJournalFile timed(inner);
  journal_ops(timed);
  check(!plain.contents().empty() && plain.contents() == inner.contents(),
        "decorated JournalFile writes a byte-identical journal");
  check(timed.appends().calls >= 3 && timed.appends().failures == 0 &&
            timed.bytes_appended() == inner.contents().size(),
        "decorated JournalFile counts appends and bytes");
}

struct FedOutcome {
  FederationStats stats;
  std::vector<std::uint32_t> digests;
  std::vector<std::int8_t> verdicts;
};

FedOutcome run_federation(bool decorate) {
  const FedConfig cfg = fed_config();
  const FederationPlan plan = fed_plan(cfg);
  std::vector<std::unique_ptr<InProcessMember>> members;
  std::vector<std::unique_ptr<TimedMember>> timed;
  std::vector<FederationMember*> raw;
  for (int d = 0; d < cfg.domains; ++d) {
    members.push_back(std::make_unique<InProcessMember>(
        d, plan.members[static_cast<std::size_t>(d)], BrokerOptions{}));
    if (decorate) {
      timed.push_back(std::make_unique<TimedMember>(*members.back()));
      raw.push_back(timed.back().get());
    } else {
      raw.push_back(members.back().get());
    }
  }
  FederatedFront front(plan, raw);
  FedStream stream(cfg, 7);
  std::vector<FlowId> live;
  FedOutcome out;
  for (int i = 0; i < 600; ++i) {
    const FedOp op = stream.next(live.size());
    if (op.admit) {
      auto o = front.request_service(op.request);
      out.verdicts.push_back(o.result.is_ok() ? 1 : 0);
      if (o.result.is_ok()) live.push_back(o.result.value().flow);
    } else {
      const FlowId f = live[op.live_index];
      live[op.live_index] = live.back();
      live.pop_back();
      out.verdicts.push_back(front.release_service(f).is_ok() ? 2 : -1);
    }
  }
  out.stats = front.stats();
  const auto digests = front.digests();
  for (const auto& d : digests.value()) out.digests.push_back(d.digest);
  if (decorate) {
    std::uint64_t calls = 0;
    for (const auto& t : timed) calls += t->op_calls();
    check(calls > 0, "decorated members counted their calls");
  }
  return out;
}

void test_member_decorator() {
  const FedOutcome plain = run_federation(false);
  const FedOutcome timed = run_federation(true);
  const FederationStats& a = plain.stats;
  const FederationStats& b = timed.stats;
  const bool same_stats =
      a.requests == b.requests && a.intra_admitted == b.intra_admitted &&
      a.inter_admitted == b.inter_admitted && a.prepares == b.prepares &&
      a.prepare_failures == b.prepare_failures && a.aborts == b.aborts &&
      a.releases == b.releases && a.poisoned_txns == b.poisoned_txns;
  check(same_stats && a.prepares > 0,
        "decorated FederationMember: identical FederationStats");
  check(plain.verdicts == timed.verdicts,
        "decorated FederationMember: identical verdicts");
  check(plain.digests.size() == 3 && plain.digests == timed.digests,
        "decorated FederationMember: identical member digests");
}

void test_stream_determinism() {
  // The op stream depends on the seed only: verdicts fed back late (at
  // the window horizon) or early give the same ops.
  const ChurnConfig cfg = churn_config(Workload::kInmemChurn);
  ConnStream early(cfg, 1, 3), late(cfg, 1, 3);
  bool same = true;
  std::vector<ChurnOp> late_ops;
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const ChurnOp a = early.next();
    early.on_verdict(i, i % 3 != 0);
    const ChurnOp b = late.next();
    late_ops.push_back(b);
    if (i >= static_cast<std::uint64_t>(cfg.window) - 1) {
      const std::uint64_t j = i + 1 - static_cast<std::uint64_t>(cfg.window);
      late.on_verdict(j, j % 3 != 0);
    }
    same = same && a.admit == b.admit && a.pair == b.pair && a.target == b.target &&
           a.rid == b.rid;
  }
  check(same, "churn stream is independent of when verdicts arrive");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_journal_decorator();
  test_member_decorator();
  test_stream_determinism();
  std::printf("%s\n", failures == 0 ? "all passed" : "FAILURES");
  return failures == 0 ? 0 : 1;
}
