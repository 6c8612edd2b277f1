#include "workload.h"

#include <cstdio>
#include <cstdlib>

#include "traffic/profile.h"

namespace perfbench {

using namespace qosbb;

std::optional<Workload> parse_workload(std::string_view name) {
  if (name == "inmem-churn") return Workload::kInmemChurn;
  if (name == "journaled-churn") return Workload::kJournaledChurn;
  if (name == "edf-mixed") return Workload::kEdfMixed;
  if (name == "federated-2pc") return Workload::kFederated2pc;
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kInmemChurn: return "inmem-churn";
    case Workload::kJournaledChurn: return "journaled-churn";
    case Workload::kEdfMixed: return "edf-mixed";
    case Workload::kFederated2pc: return "federated-2pc";
  }
  return "?";
}

std::uint64_t measured_ops(Workload w, int seconds) {
  // Nominal decisions per second of measurement on a 4-vCPU host; the run
  // is sized by this count, not by the clock.
  std::uint64_t per_second = 0;
  switch (w) {
    case Workload::kInmemChurn: per_second = 400000; break;
    case Workload::kJournaledChurn: per_second = 100000; break;
    case Workload::kEdfMixed: per_second = 20000; break;
    case Workload::kFederated2pc: per_second = 35000; break;
  }
  return per_second * static_cast<std::uint64_t>(seconds > 0 ? seconds : 1);
}

ChurnConfig churn_config(Workload w) {
  ChurnConfig cfg;
  if (w == Workload::kEdfMixed) {
    // VT-EDF on every hop; the access links decide, the shared link is
    // over-provisioned so it only adds knots to every Figure-4 scan.
    cfg.delay_based = true;
    cfg.access_bps = 1000e6;
    cfg.bottleneck_bps = 4.0 * cfg.access_bps * cfg.pairs();
    cfg.prefill_ops_per_conn = 2 * 700;
  } else {
    // Integral rates and capacities keep every residual exact, so the
    // shared link (the sum of the access links) fills exactly when every
    // access link does and never rejects on its own.
    cfg.access_bps = 640e6;
    cfg.bottleneck_bps = cfg.access_bps * cfg.pairs();
    cfg.prefill_ops_per_conn = 2 * 330;
  }
  return cfg;
}

DumbbellOptions churn_topology_options(const ChurnConfig& cfg) {
  DumbbellOptions topo;
  topo.edge_pairs = cfg.pairs();
  topo.access_capacity = cfg.access_bps;
  topo.bottleneck_capacity = cfg.bottleneck_bps;
  topo.policy = cfg.delay_based ? SchedPolicy::kVtEdf : SchedPolicy::kCsvc;
  return topo;
}

RequestId churn_rid(int conn, std::uint64_t index) {
  return (static_cast<RequestId>(conn + 1) << 40) | (index + 1);
}

ConnStream::ConnStream(const ChurnConfig& cfg, int conn, std::uint64_t seed)
    : cfg_(cfg),
      conn_(conn),
      rng_(seed * 1000003ULL + static_cast<std::uint64_t>(conn) * 7919ULL + 17),
      ring_(static_cast<std::size_t>(cfg.window)),
      live_(static_cast<std::size_t>(cfg.pairs_per_conn)) {}

void ConnStream::on_verdict(std::uint64_t index, bool admitted) {
  Pending& p = ring_[index % ring_.size()];
  p.known = true;
  p.admitted = admitted;
}

ChurnOp ConnStream::next() {
  const std::uint64_t i = issued_++;
  Pending& slot = ring_[i % ring_.size()];
  if (i >= ring_.size() && slot.admit) {
    if (!slot.known) {
      std::fprintf(stderr,
                   "perfbench: verdict of op %llu consumed before it arrived\n",
                   static_cast<unsigned long long>(i - ring_.size()));
      std::abort();
    }
    if (slot.admitted) {
      live_[static_cast<std::size_t>(slot.pair)].push_back(i - ring_.size());
    }
  }

  ChurnOp op;
  op.rid = churn_rid(conn_, i);
  const int local = static_cast<int>(rng_.uniform_int(0, cfg_.pairs_per_conn - 1));
  op.pair = conn_ * cfg_.pairs_per_conn + local;
  const double draw = rng_.uniform();
  const bool churning =
      i >= static_cast<std::uint64_t>(cfg_.prefill_ops_per_conn);
  auto& live = live_[static_cast<std::size_t>(local)];
  if (churning && !live.empty() && draw < cfg_.teardown_share) {
    const auto pick = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
    op.admit = false;
    op.target = live[pick];
    live[pick] = live.back();
    live.pop_back();
  } else {
    // Rates are whole Mb/s; the delay requirement is loose on the
    // rate-based hops (the §3.1 test books exactly rho) and drawn from 256
    // distinct values on the delay-based ones (a knot per value, §3.2).
    const double rho = 1e6 * static_cast<double>(rng_.uniform_int(1, 4));
    const std::int64_t delay_class = rng_.uniform_int(0, 255);
    op.request.profile = TrafficProfile::make(/*sigma=*/24000.0, rho,
                                              /*peak=*/2.0 * rho,
                                              /*l_max=*/12000.0);
    op.request.e2e_delay_req =
        cfg_.delay_based ? 0.020 + 0.0005 * static_cast<double>(delay_class)
                         : 1.0;
    op.request.ingress = "I" + std::to_string(op.pair);
    op.request.egress = "E" + std::to_string(op.pair);
  }
  slot = Pending{op.admit, local, false, false};
  return op;
}

FedConfig fed_config() { return FedConfig{}; }

FederationPlan fed_plan(const FedConfig& cfg) {
  MultiDomainOptions topo;
  topo.domains = cfg.domains;
  topo.edge_pairs = cfg.pairs;
  return partition_multi_domain(multi_domain_topology(topo), topo.domains);
}

FedStream::FedStream(const FedConfig& cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed * 1000003ULL + 99991ULL) {}

FedOp FedStream::next(std::size_t live) {
  FedOp op;
  const double draw = rng_.uniform();
  if (live > 0 && draw < cfg_.release_prob) {
    op.admit = false;
    op.live_index = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(live) - 1));
    return op;
  }
  const int fd = static_cast<int>(rng_.uniform_int(0, cfg_.domains - 1));
  const int td = static_cast<int>(rng_.uniform_int(fd, cfg_.domains - 1));
  const int fp = static_cast<int>(rng_.uniform_int(0, cfg_.pairs - 1));
  const int tp = static_cast<int>(rng_.uniform_int(0, cfg_.pairs - 1));
  const double delays[] = {0.8, 1.5, 2.0, 3.0};
  op.request.profile = TrafficProfile::make(/*sigma=*/24000.0, cfg_.rho_bps,
                                            /*peak=*/2.0 * cfg_.rho_bps,
                                            /*l_max=*/12000.0);
  op.request.e2e_delay_req = delays[rng_.uniform_int(0, 3)];
  op.request.ingress = "D" + std::to_string(fd) + "I" + std::to_string(fp);
  op.request.egress = "D" + std::to_string(td) + "E" + std::to_string(tp);
  return op;
}

}  // namespace perfbench
