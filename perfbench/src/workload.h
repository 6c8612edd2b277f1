// The benchmark's four workloads: topologies, sizing, and the seeded
// operation streams shared by the timed load generator, the in-process
// layer trace, and the post-run verdict replay.
//
// Churn workloads (inmem-churn, journaled-churn, edf-mixed) run on a
// dumbbell. Each generator connection owns its own ingress/egress pairs,
// and the shared L->R link is provisioned so that it never decides a
// verdict on its own (exactly the sum of the access links for the
// rate-based workloads, over-provisioned for the delay-based one). Every
// verdict therefore depends only on the op order of one connection, which
// the server preserves, so the verdict sequence is the same on every run
// whatever the batch grouping or the interleaving of connections.
//
// A connection's next op may depend only on verdicts of ops at least
// `window` positions older, the pipeline depth: with at most `window` ops
// in flight those replies have always arrived, so the op stream itself is
// a function of the seed alone.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "federation/partition.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace perfbench {

enum class Workload { kInmemChurn, kJournaledChurn, kEdfMixed, kFederated2pc };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);

/// Measured operations for a run of `seconds`: fixed per workload, so the
/// live-flow count, journal length and verdict sequence never depend on
/// how fast the machine is.
std::uint64_t measured_ops(Workload w, int seconds);

// ---------------------------------------------------------------------
// Churn workloads.

struct ChurnConfig {
  int connections = 4;
  int pairs_per_conn = 2;
  /// Pipeline depth per connection (ops in flight).
  int window = 128;
  bool delay_based = false;
  qosbb::BitsPerSecond access_bps = 0.0;
  qosbb::BitsPerSecond bottleneck_bps = 0.0;
  /// Share of ops that tear down a live flow once the pair holds one.
  double teardown_share = 1.0 / 3.0;
  /// Admit-only ops per connection before churn starts (the prefill that
  /// brings every access link, and the bottleneck, to capacity).
  int prefill_ops_per_conn = 0;

  int pairs() const { return connections * pairs_per_conn; }
};

ChurnConfig churn_config(Workload w);
qosbb::DumbbellOptions churn_topology_options(const ChurnConfig& cfg);

struct ChurnOp {
  bool admit = true;
  int pair = 0;
  qosbb::FlowServiceRequest request;  ///< admit
  std::uint64_t target = 0;  ///< teardown: stream index of the admit it undoes
  qosbb::RequestId rid = qosbb::kNoRequestId;
};

/// One connection's op stream. Call next() for op i only after
/// on_verdict() has been called for every admit with index <= i - window.
class ConnStream {
 public:
  ConnStream(const ChurnConfig& cfg, int conn, std::uint64_t seed);

  ChurnOp next();
  void on_verdict(std::uint64_t index, bool admitted);

  std::uint64_t issued() const { return issued_; }

 private:
  struct Pending {
    bool admit = false;
    int pair = 0;
    bool known = false;
    bool admitted = false;
  };

  const ChurnConfig cfg_;
  const int conn_;
  qosbb::Rng rng_;
  std::uint64_t issued_ = 0;
  std::vector<Pending> ring_;  ///< last `window` ops, by index % window
  std::vector<std::vector<std::uint64_t>> live_;  ///< per local pair
};

/// Request id of op `index` on connection `conn` (unique per run).
qosbb::RequestId churn_rid(int conn, std::uint64_t index);

// ---------------------------------------------------------------------
// Federated workload: a serial coordinator over K=3 member brokers.

struct FedConfig {
  int domains = 3;
  int pairs = 2;  ///< edge pairs per domain (qosbbd --pairs)
  double rho_bps = 50e3;
  double release_prob = 0.35;
  int prefill_ops = 400;
};

FedConfig fed_config();
qosbb::FederationPlan fed_plan(const FedConfig& cfg);

struct FedOp {
  bool admit = true;
  qosbb::FlowServiceRequest request;
  std::size_t live_index = 0;  ///< release: index into the live list
};

/// Serial stream: op i depends on every earlier verdict (no pipeline).
class FedStream {
 public:
  FedStream(const FedConfig& cfg, std::uint64_t seed);
  /// `live` is the number of acked, not yet released flows.
  FedOp next(std::size_t live);

 private:
  FedConfig cfg_;
  qosbb::Rng rng_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
