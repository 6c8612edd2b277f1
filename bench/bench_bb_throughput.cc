// Scalability of the bandwidth broker itself (Section 2's motivation): how
// many flow service requests per second can one BB process?
//
//  * BM_PerFlowAdmitRelease — full request_service + release_service cycle
//    (policy check, routing, §3 test, bookkeeping) on a warm MIB.
//  * BM_ClassJoinLeave — class-based join + leave cycle: the paper's
//    scalability argument is that aggregation shrinks BB state and speeds
//    up admission; compare ns/op against the per-flow rows.
//  * BM_PolicyCheckOnly / BM_PathViewOnly — pipeline stage breakdown.
//  * BM_JournalAppend / BM_JournalReplay — durability overhead: the cost of
//    write-ahead logging per request (in memory and on a real file), and
//    crash-recovery time as a function of journal tail length (which the
//    durable broker's anchor rule bounds by live state).

//  * BM_ConcurrentAdmit — aggregate admit/release throughput of the
//    ConcurrentBrokerFront at 1/2/4/8 threads on fully DISJOINT paths (the
//    decomposition's scalability claim: requests that share no link only
//    contend on their shard mutexes and the flow-table lock).
//  * BM_BatchAdmit — amortized cost per admit through submit_batch: one
//    PathSnapshot + one OCC validate/commit per batch instead of one per
//    request. Manual time covers only the batch call (releases run off the
//    clock), so items_per_second is the amortized admit rate.
//  * BM_JournalGroupCommit — durable batched admission: K fresh admits
//    logged as ONE multi-record frame (one append, one flush) versus the
//    per-request append of BM_JournalAppend. appends_per_batch must be 1.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/journal.h"
#include "topo/fig8.h"

namespace {

using namespace qosbb;

TrafficProfile type0() {
  return TrafficProfile::make(60000, 50000, 100000, 12000);
}

void BM_PerFlowAdmitRelease(benchmark::State& state) {
  const int warm = static_cast<int>(state.range(0));
  const bool mixed = state.range(1) != 0;
  BandwidthBroker bb(fig8_topology(
      mixed ? Fig8Setting::kMixed : Fig8Setting::kRateBasedOnly,
      60000.0 * (warm + 10)));
  FlowServiceRequest req{type0(), mixed ? 2.19 : 2.44, "I1", "E1"};
  for (int i = 0; i < warm; ++i) {
    if (!bb.request_service(req).is_ok()) {
      state.SkipWithError("warmup admission failed");
      return;
    }
  }
  for (auto _ : state) {
    auto res = bb.request_service(req);
    if (!res.is_ok()) {
      state.SkipWithError("admission unexpectedly rejected");
      return;
    }
    // qosbb-lint: allow(discarded-status)
    (void)bb.release_service(res.value().flow);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(mixed ? "mixed path" : "rate-only path");
}
BENCHMARK(BM_PerFlowAdmitRelease)
    ->ArgsProduct({{0, 64, 512}, {0, 1}});

void BM_ClassJoinLeave(benchmark::State& state) {
  const int warm = static_cast<int>(state.range(0));
  BandwidthBroker bb(
      fig8_topology(Fig8Setting::kMixed, 60000.0 * (warm + 10)),
      BrokerOptions{ContingencyMethod::kFeedback});
  const ClassId cls = bb.define_class(2.19, 0.10);
  Seconds now = 0.0;
  for (int i = 0; i < warm; ++i) {
    auto join =
        bb.request_class_service(cls, type0(), "I1", "E1", now, 0.0);
    if (!join.admitted) {
      state.SkipWithError("warmup join failed");
      return;
    }
    now += 1.0;
  }
  for (auto _ : state) {
    auto join = bb.request_class_service(cls, type0(), "I1", "E1", now, 0.0);
    if (!join.admitted) {
      state.SkipWithError("join unexpectedly rejected");
      return;
    }
    now += 1.0;
    // qosbb-lint: allow(discarded-status)
    (void)bb.leave_class_service(join.microflow, now, 0.0);
    now += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClassJoinLeave)->Arg(0)->Arg(64)->Arg(512);

void BM_PolicyCheckOnly(benchmark::State& state) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kRateBasedOnly));
  PolicyRule rule;
  rule.max_peak_rate = 1e6;
  rule.max_burst = 1e6;
  rule.min_delay_req = 0.1;
  bb.policy().set_default_rule(rule);
  FlowServiceRequest req{type0(), 2.44, "I1", "E1"};
  for (auto _ : state) {
    auto s = bb.policy().check(req, 10);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_PolicyCheckOnly);

void BM_PathViewOnly(benchmark::State& state) {
  BandwidthBroker bb(fig8_topology(Fig8Setting::kMixed));
  const PathId path = bb.provision_path("I1", "E1").value();
  for (auto _ : state) {
    auto view = bb.path_view(path);
    benchmark::DoNotOptimize(view);
  }
}
BENCHMARK(BM_PathViewOnly);

// K fully disjoint two-hop VT-EDF chains I<k> -> M<k> -> E<k>: every bench
// thread admits and releases on its own chain, so the only shared state on
// the hot path is the flow-table mutex and the stats counters.
DomainSpec disjoint_chains(int k) {
  DomainSpec spec;
  spec.l_max = 12000.0;
  for (int i = 0; i < k; ++i) {
    const std::string in = "I" + std::to_string(i);
    const std::string mid = "M" + std::to_string(i);
    const std::string out = "E" + std::to_string(i);
    spec.nodes.insert(spec.nodes.end(), {in, mid, out});
    spec.links.push_back({in, mid, 1.5e6, 0.0, SchedPolicy::kVtEdf});
    spec.links.push_back({mid, out, 1.5e6, 0.0, SchedPolicy::kVtEdf});
  }
  return spec;
}

// Concurrent admission throughput: one broker + front shared by all bench
// threads, thread k driving chain k. items_per_second aggregates across
// threads (UseRealTime), so the 4-thread row versus the 1-thread row is the
// disjoint-path scaling factor of the OCC fast path.
void BM_ConcurrentAdmit(benchmark::State& state) {
  static BandwidthBroker* bb = nullptr;
  static ConcurrentBrokerFront* front = nullptr;
  constexpr int kChains = 8;
  if (state.thread_index() == 0) {
    bb = new BandwidthBroker(disjoint_chains(kChains));
    front = new ConcurrentBrokerFront(*bb);
    front->exclusive([&](BandwidthBroker& b) {
      for (int i = 0; i < kChains; ++i) {
        if (!b.provision_path("I" + std::to_string(i),
                              "E" + std::to_string(i))
                 .is_ok()) {
          state.SkipWithError("provisioning failed");
        }
      }
    });
  }
  const int chain = state.thread_index() % kChains;
  FlowServiceRequest req;
  req.profile = type0();
  req.e2e_delay_req = 2.4;
  req.ingress = "I" + std::to_string(chain);
  req.egress = "E" + std::to_string(chain);
  for (auto _ : state) {
    FrontOutcome out = front->request_service(req);
    if (!out.result.is_ok()) {
      state.SkipWithError("admission unexpectedly rejected");
      break;
    }
    if (!front->release_service(out.result.value().flow).is_ok()) {
      state.SkipWithError("release failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    state.SetLabel("disjoint VT-EDF chains, OCC fast path");
    delete front;
    front = nullptr;
    delete bb;
    bb = nullptr;
  }
}
BENCHMARK(BM_ConcurrentAdmit)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

// Batched admission through the concurrent front: all range(1) requests
// share the provisioned I1->E1 path, so submit_batch runs them as one
// group — one snapshot capture, members tested against a locally evolved
// snapshot, one shard-locked OCC commit. Only submit_batch is on the
// manual clock; the releases that reset capacity for the next iteration
// are not. The warm=512 / batch=32 row is the ISSUE 6 target: ≤ 1 µs
// amortized per admit.
void BM_BatchAdmit(benchmark::State& state) {
  const int warm = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  BandwidthBroker bb(
      fig8_topology(Fig8Setting::kMixed, 60000.0 * (warm + k + 10)));
  ConcurrentBrokerFront front(bb);
  front.exclusive([&](BandwidthBroker& b) {
    if (!b.provision_path("I1", "E1").is_ok()) {
      state.SkipWithError("provisioning failed");
    }
  });
  FlowServiceRequest req{type0(), 2.19, "I1", "E1"};
  for (int i = 0; i < warm; ++i) {
    if (!front.request_service(req).result.is_ok()) {
      state.SkipWithError("warmup admission failed");
      return;
    }
  }
  const std::vector<FlowServiceRequest> reqs(static_cast<std::size_t>(k),
                                             req);
  std::vector<FlowId> admitted;
  admitted.reserve(reqs.size());
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const std::vector<FrontOutcome> outs = front.submit_batch(reqs);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    admitted.clear();
    for (const FrontOutcome& out : outs) {
      if (!out.result.is_ok()) {
        state.SkipWithError("batch admission unexpectedly rejected");
        return;
      }
      admitted.push_back(out.result.value().flow);
    }
    for (const FlowId flow : admitted) (void)front.release_service(flow);
  }
  state.SetItemsProcessed(state.iterations() * k);
  state.SetLabel("mixed path, single-group batch");
}
BENCHMARK(BM_BatchAdmit)
    ->ArgsProduct({{0, 512}, {1, 8, 32}})
    ->ArgNames({"", "batch"})
    ->UseManualTime();

// MemoryJournalFile that counts appends, to surface the one-frame-per-batch
// property of request_service_batch as a bench counter.
class CountingJournalFile : public MemoryJournalFile {
 public:
  Status append(const WireBuffer& bytes) override {
    ++appends_;
    return MemoryJournalFile::append(bytes);
  }
  std::uint64_t appends() const { return appends_; }

 private:
  std::uint64_t appends_ = 0;
};

// Durable batched admission: K fresh members journaled as ONE multi-record
// frame with consecutive LSNs — one append (one flush on a real file)
// regardless of K. Manual time covers only request_service_batch; the
// releases and the periodic checkpoint that keep the journal bounded run
// off the clock. Compare ns/admit against BM_JournalAppend's per-request
// append cost.
void BM_JournalGroupCommit(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  CountingJournalFile file;
  auto db = DurableBroker::open(
      fig8_topology(Fig8Setting::kRateBasedOnly, 60000.0 * (k + 10)), {},
      file);
  if (!db.is_ok()) {
    state.SkipWithError("durable open failed");
    return;
  }
  if (!db.value()->provision_path(1, "I1", "E1").is_ok()) {
    state.SkipWithError("provisioning failed");
    return;
  }
  FlowServiceRequest req{type0(), 2.44, "I1", "E1"};
  const std::vector<FlowServiceRequest> reqs(static_cast<std::size_t>(k),
                                             req);
  std::vector<RequestId> rids(static_cast<std::size_t>(k));
  RequestId rid = 2;
  std::uint64_t batch_appends = 0;
  RequestId next_checkpoint = 4096;
  for (auto _ : state) {
    for (RequestId& r : rids) r = rid++;
    const std::uint64_t appends_before = file.appends();
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = db.value()->request_service_batch(rids, reqs, 0.0);
    const auto t1 = std::chrono::steady_clock::now();
    state.SetIterationTime(
        std::chrono::duration<double>(t1 - t0).count());
    batch_appends += file.appends() - appends_before;
    for (const auto& res : results) {
      if (!res.is_ok()) {
        state.SkipWithError("batch admission unexpectedly rejected");
        return;
      }
      // qosbb-lint: allow(discarded-status)
      (void)db.value()->release_service(rid++, res.value().flow);
    }
    // Anchor off the clock, often enough that the broker's own anchor
    // rule (1 MiB floor) never fires inside the timed call.
    if (rid >= next_checkpoint) {
      (void)db.value()->checkpoint();  // qosbb-lint: allow(discarded-status)
      next_checkpoint += 4096;
    }
  }
  state.SetItemsProcessed(state.iterations() * k);
  if (state.iterations() > 0) {
    state.counters["appends_per_batch"] = benchmark::Counter(
        static_cast<double>(batch_appends) /
        static_cast<double>(state.iterations()));
  }
  state.SetLabel("one frame per batch");
}
BENCHMARK(BM_JournalGroupCommit)
    ->Arg(1)
    ->Arg(8)
    ->Arg(32)
    ->ArgNames({"batch"})
    ->UseManualTime();

// Journaled admit/release cycle: BM_PerFlowAdmitRelease plus the WAL append
// and idempotency bookkeeping — the durability tax per request. fs:0 appends
// to a MemoryJournalFile; fs:1 to an FsJournalFile on a temp file, so the
// write(2) per append (and the descriptor handling around it) is priced in.
void BM_JournalAppend(benchmark::State& state) {
  const bool on_disk = state.range(0) != 0;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("qosbb_bench_journal_" + std::to_string(::getpid()) + ".bin"))
          .string();
  std::remove(path.c_str());
  MemoryJournalFile memory;
  FsJournalFile fs(path);
  JournalFile& file = on_disk ? static_cast<JournalFile&>(fs) : memory;
  auto db = DurableBroker::open(
      fig8_topology(Fig8Setting::kRateBasedOnly, 60000.0 * 10), {}, file);
  if (!db.is_ok()) {
    state.SkipWithError("durable open failed");
    return;
  }
  if (!db.value()->provision_path(1, "I1", "E1").is_ok()) {
    state.SkipWithError("provisioning failed");
    return;
  }
  FlowServiceRequest req{type0(), 2.44, "I1", "E1"};
  RequestId rid = 2;
  for (auto _ : state) {
    auto res = db.value()->request_service(rid++, req, 0.0);
    if (!res.is_ok()) {
      state.SkipWithError("admission unexpectedly rejected");
      return;
    }
    // qosbb-lint: allow(discarded-status)
    (void)db.value()->release_service(rid++, res.value().flow);
    // Anchor off the clock, often enough that the broker's own anchor
    // rule (1 MiB floor) never fires inside the timed loop.
    if (rid % 2048 == 0) {
      state.PauseTiming();
      (void)db.value()->checkpoint();  // qosbb-lint: allow(discarded-status)
      state.ResumeTiming();
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(on_disk ? "FsJournalFile, temp file" : "MemoryJournalFile");
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->Arg(0)->Arg(1)->ArgNames({"fs"});

// Crash recovery: re-open a broker from a journal with `range(0)` logged
// admit/release records after the last anchor. Linear in tail length —
// this is the curve that prices the tail DurableBroker's anchor rule
// allows (at most max(4 x anchor, 1 MiB) plus one slab).
void BM_JournalReplay(benchmark::State& state) {
  const int tail_ops = static_cast<int>(state.range(0));
  const DomainSpec spec =
      fig8_topology(Fig8Setting::kRateBasedOnly, 60000.0 * 10);
  MemoryJournalFile file;
  {
    auto db = DurableBroker::open(spec, {}, file);
    if (!db.is_ok()) {
      state.SkipWithError("durable open failed");
      return;
    }
    if (!db.value()->provision_path(1, "I1", "E1").is_ok()) {
      state.SkipWithError("provisioning failed");
      return;
    }
    FlowServiceRequest req{type0(), 2.44, "I1", "E1"};
    RequestId rid = 2;
    for (int i = 0; i < tail_ops / 2; ++i) {
      auto res = db.value()->request_service(rid++, req, 0.0);
      if (!res.is_ok()) {
        state.SkipWithError("admission unexpectedly rejected");
        return;
      }
      // qosbb-lint: allow(discarded-status)
      (void)db.value()->release_service(rid++, res.value().flow);
    }
  }
  std::uint64_t replayed = 0;
  for (auto _ : state) {
    auto db = DurableBroker::open(spec, {}, file);
    if (!db.is_ok()) {
      state.SkipWithError("recovery failed");
      return;
    }
    replayed += db.value()->stats().replayed;
    benchmark::DoNotOptimize(db);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(replayed));
  state.SetLabel("records replayed per open");
}
BENCHMARK(BM_JournalReplay)->Arg(16)->Arg(256)->Arg(2048);

}  // namespace

BENCHMARK_MAIN();
