// qosbbd — the bandwidth broker as a network daemon.
//
// Boots a broker domain, provisions the signaling endpoint pairs, and
// serves the net/framing.h signaling protocol on a loopback TCP port
// through the epoll server (net/server.h): pipelined FlowServiceRequest /
// TeardownRequest frames in, Reservation / RejectReply frames out,
// consecutive admits and teardowns dispatched as one slab through
// ConcurrentBrokerFront::execute_batch (journaled: through
// DurableBroker::execute_batch, which lets the same front decide).
//
//   qosbbd --port=0 --port-file=/tmp/qosbbd.port        # ephemeral port
//   qosbbd --topo=dumbbell --pairs=8 --bottleneck-mbps=40000
//   qosbbd --journal=/tmp/bb.journal                    # durable admission
//   qosbbd --differential                               # record + verify
//   qosbbd --topo=multidomain --domains=3 --domain-index=1   # fed member
//
// Federation member mode (--topo=multidomain): the daemon serves domain i
// of the K-way partitioned multi-domain topology — exactly
// partition_multi_domain(multi_domain_topology(...)).members[i] — so a
// FederatedFront with SocketMembers can coordinate inter-domain 2PC
// (kPrepareSegment & co) against a fleet of these. Endpoint pairs are
// provisioned lazily by the member's own admission path; with --journal
// the coordinator's rids are deduped, making every sub-op exactly-once
// across a member crash + restart.
//
// On SIGTERM/SIGINT the server stops accepting, drains pending replies,
// prints a stats line, and — under --differential — replays the entire
// recorded session through a fresh library-level broker front and demands
// a bit-identical state digest (exit 1 on divergence). That check is the
// end-to-end proof that framing -> decode -> batch dispatch admitted
// exactly what the library would have.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "federation/partition.h"
#include "net/server.h"
#include "topo/builders.h"
#include "topo/fig8.h"

namespace {

using namespace qosbb;

struct Args {
  std::string bind = "127.0.0.1";
  int port = 0;
  std::string port_file;
  std::string topo = "dumbbell";
  int pairs = 8;
  int domains = 3;        // multidomain: federation size K
  int domain_index = -1;  // multidomain: which member this daemon serves
  double access_mbps = 100000.0;      // 100 Gb/s access links
  double bottleneck_mbps = 40000.0;   // 40 Gb/s shared bottleneck
  std::string journal;
  bool differential = false;
  // Overload-control knobs (0 disables; defaults in ServerOptions).
  long max_inflight = -1;
  long max_inflight_conn = -1;
  int deadline_ms = -1;
  long brownout_inflight = -1;
  int brownout_window_ms = -1;
  int partial_frame_timeout_ms = -1;
  int idle_timeout_ms = -1;
  int drain_timeout_ms = -1;
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--bind=")) {
      args->bind = v;
    } else if (const char* v = value("--port=")) {
      args->port = std::atoi(v);
    } else if (const char* v = value("--port-file=")) {
      args->port_file = v;
    } else if (const char* v = value("--topo=")) {
      args->topo = v;
    } else if (const char* v = value("--pairs=")) {
      args->pairs = std::atoi(v);
    } else if (const char* v = value("--domains=")) {
      args->domains = std::atoi(v);
    } else if (const char* v = value("--domain-index=")) {
      args->domain_index = std::atoi(v);
    } else if (const char* v = value("--access-mbps=")) {
      args->access_mbps = std::atof(v);
    } else if (const char* v = value("--bottleneck-mbps=")) {
      args->bottleneck_mbps = std::atof(v);
    } else if (const char* v = value("--journal=")) {
      args->journal = v;
    } else if (const char* v = value("--max-inflight=")) {
      args->max_inflight = std::atol(v);
    } else if (const char* v = value("--max-inflight-conn=")) {
      args->max_inflight_conn = std::atol(v);
    } else if (const char* v = value("--deadline-ms=")) {
      args->deadline_ms = std::atoi(v);
    } else if (const char* v = value("--brownout-inflight=")) {
      args->brownout_inflight = std::atol(v);
    } else if (const char* v = value("--brownout-window-ms=")) {
      args->brownout_window_ms = std::atoi(v);
    } else if (const char* v = value("--partial-frame-timeout-ms=")) {
      args->partial_frame_timeout_ms = std::atoi(v);
    } else if (const char* v = value("--idle-timeout-ms=")) {
      args->idle_timeout_ms = std::atoi(v);
    } else if (const char* v = value("--drain-timeout-ms=")) {
      args->drain_timeout_ms = std::atoi(v);
    } else if (a == "--differential") {
      args->differential = true;
    } else if (a == "--help" || a == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "qosbbd: unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  if (args->topo != "dumbbell" && args->topo != "fig8" &&
      args->topo != "multidomain") {
    std::fprintf(stderr,
                 "qosbbd: --topo must be dumbbell, fig8, or multidomain\n");
    return false;
  }
  if (args->topo == "multidomain" &&
      (args->domains < 1 || args->domain_index < 0 ||
       args->domain_index >= args->domains)) {
    std::fprintf(stderr,
                 "qosbbd: multidomain needs --domains=K and "
                 "--domain-index in [0, K)\n");
    return false;
  }
  if (args->pairs < 1 || args->port < 0 || args->port > 65535) {
    std::fprintf(stderr, "qosbbd: bad --pairs/--port\n");
    return false;
  }
  if (args->differential && !args->journal.empty()) {
    // The recorded-op replay re-executes every op through a fresh front; a
    // deduplicated retry (same rid) would double-execute in the replay and
    // diverge by construction. Journal recovery is the durable mode's own
    // differential (byte-compared on every restart).
    std::fprintf(stderr,
                 "qosbbd: --differential requires the in-memory backend "
                 "(drop --journal)\n");
    return false;
  }
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: qosbbd [--bind=ADDR] [--port=N] [--port-file=PATH]\n"
      "              [--topo=dumbbell|fig8|multidomain] [--pairs=N]\n"
      "              [--domains=K] [--domain-index=I]\n"
      "              [--access-mbps=X] [--bottleneck-mbps=X]\n"
      "              [--journal=PATH] [--differential]\n"
      "              [--max-inflight=N] [--max-inflight-conn=N]\n"
      "              [--deadline-ms=N] [--brownout-inflight=N]\n"
      "              [--brownout-window-ms=N]\n"
      "              [--partial-frame-timeout-ms=N] [--idle-timeout-ms=N]\n"
      "              [--drain-timeout-ms=N]\n");
}

QosbbServer* g_server = nullptr;

void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }

  // Domain + signaling endpoint pairs.
  DomainSpec spec;
  std::vector<std::pair<std::string, std::string>> pairs;
  if (args.topo == "dumbbell") {
    DumbbellOptions topo;
    topo.edge_pairs = args.pairs;
    topo.access_capacity = args.access_mbps * 1e6;
    topo.bottleneck_capacity = args.bottleneck_mbps * 1e6;
    spec = dumbbell_topology(topo);
    for (int k = 0; k < args.pairs; ++k) {
      pairs.emplace_back("I" + std::to_string(k), "E" + std::to_string(k));
    }
  } else if (args.topo == "multidomain") {
    MultiDomainOptions topo;
    topo.domains = args.domains;
    topo.edge_pairs = args.pairs;
    const FederationPlan plan =
        partition_multi_domain(multi_domain_topology(topo), topo.domains);
    spec = plan.members[static_cast<std::size_t>(args.domain_index)];
    // No pre-provisioned pairs: intra delegations and 2PC pinned segments
    // provision their endpoint pairs lazily through the admission path.
  } else {
    spec = fig8_topology(Fig8Setting::kRateBasedOnly);
    pairs = {{"I1", "E1"}, {"I2", "E2"}};
  }

  const BrokerOptions broker_options;
  ServerOptions server_options;
  server_options.bind_address = args.bind;
  server_options.port = static_cast<std::uint16_t>(args.port);
  server_options.record_ops = args.differential;
  if (args.max_inflight >= 0) {
    server_options.max_inflight_global =
        static_cast<std::size_t>(args.max_inflight);
  }
  if (args.max_inflight_conn >= 0) {
    server_options.max_inflight_per_conn =
        static_cast<std::size_t>(args.max_inflight_conn);
  }
  if (args.deadline_ms >= 0) {
    server_options.request_deadline_ms = args.deadline_ms;
  }
  if (args.brownout_inflight >= 0) {
    server_options.brownout_inflight =
        static_cast<std::size_t>(args.brownout_inflight);
  }
  if (args.brownout_window_ms >= 0) {
    server_options.brownout_window_ms = args.brownout_window_ms;
  }
  if (args.partial_frame_timeout_ms >= 0) {
    server_options.partial_frame_timeout_ms = args.partial_frame_timeout_ms;
  }
  if (args.idle_timeout_ms >= 0) {
    server_options.idle_timeout_ms = args.idle_timeout_ms;
  }
  if (args.drain_timeout_ms >= 0) {
    server_options.drain_timeout_ms = args.drain_timeout_ms;
  }

  // Backend: concurrent front (in-memory) or durable broker (journaled).
  std::unique_ptr<BandwidthBroker> bb;
  std::unique_ptr<ConcurrentBrokerFront> front;
  std::unique_ptr<FsJournalFile> journal_file;
  std::unique_ptr<DurableBroker> durable;
  std::unique_ptr<QosbbServer> server;
  if (args.journal.empty()) {
    bb = std::make_unique<BandwidthBroker>(spec, broker_options);
    front = std::make_unique<ConcurrentBrokerFront>(*bb);
    server = std::make_unique<QosbbServer>(*front, server_options);
  } else {
    journal_file = std::make_unique<FsJournalFile>(args.journal);
    auto opened = DurableBroker::open(spec, broker_options, *journal_file);
    if (!opened.is_ok()) {
      std::fprintf(stderr, "qosbbd: journal open failed: %s\n",
                   opened.status().to_string().c_str());
      return 1;
    }
    durable = std::move(opened).value();
    // The harness greps this line to assert every restart actually ran
    // recovery (replayed tail records, retained the dedup window) and that
    // the replayed tail stayed within the anchor rule's bound.
    std::fprintf(stderr,
                 "qosbbd: journal recovered lsn=%llu replayed=%llu "
                 "dedup=%zu anchor_bytes=%llu tail_bytes=%llu\n",
                 static_cast<unsigned long long>(durable->next_lsn()),
                 static_cast<unsigned long long>(durable->stats().replayed),
                 durable->dedup_window_size(),
                 static_cast<unsigned long long>(durable->anchor_bytes()),
                 static_cast<unsigned long long>(durable->tail_bytes()));
    server = std::make_unique<QosbbServer>(*durable, server_options);
  }

  if (Status s = server->start(); !s.is_ok()) {
    std::fprintf(stderr, "qosbbd: start failed: %s\n", s.to_string().c_str());
    return 1;
  }
  for (const auto& [ingress, egress] : pairs) {
    if (Status s = server->provision_pair(ingress, egress); !s.is_ok()) {
      std::fprintf(stderr, "qosbbd: provision %s->%s failed: %s\n",
                   ingress.c_str(), egress.c_str(), s.to_string().c_str());
      return 1;
    }
  }
  if (!args.port_file.empty()) {
    std::ofstream pf(args.port_file);
    pf << server->port() << "\n";
  }
  std::fprintf(stderr,
               "qosbbd: listening on %s:%u (topo=%s pairs=%zu "
               "journal=%s differential=%d)\n",
               args.bind.c_str(), server->port(), args.topo.c_str(),
               pairs.size(),
               args.journal.empty() ? "off" : args.journal.c_str(),
               args.differential ? 1 : 0);

  g_server = server.get();
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  server->run();

  const ServerStats& st = server->stats();
  std::fprintf(stderr,
               "qosbbd: drained. admit_requests=%llu admits=%llu "
               "rejects=%llu teardowns=%llu teardown_failures=%llu "
               "decode_errors=%llu frames_in=%llu frames_out=%llu "
               "batches=%llu batched_requests=%llu "
               "backpressure_pauses=%llu connections=%llu "
               "shed_global=%llu shed_conn=%llu shed_deadline=%llu "
               "shed_brownout=%llu reaped_partial=%llu reaped_idle=%llu "
               "health_requests=%llu digest_requests=%llu\n",
               static_cast<unsigned long long>(st.admit_requests),
               static_cast<unsigned long long>(st.admits),
               static_cast<unsigned long long>(st.rejects),
               static_cast<unsigned long long>(st.teardowns),
               static_cast<unsigned long long>(st.teardown_failures),
               static_cast<unsigned long long>(st.decode_errors),
               static_cast<unsigned long long>(st.frames_in),
               static_cast<unsigned long long>(st.frames_out),
               static_cast<unsigned long long>(st.batches),
               static_cast<unsigned long long>(st.batched_requests),
               static_cast<unsigned long long>(st.backpressure_pauses),
               static_cast<unsigned long long>(st.connections_accepted),
               static_cast<unsigned long long>(st.shed_global),
               static_cast<unsigned long long>(st.shed_conn),
               static_cast<unsigned long long>(st.shed_deadline),
               static_cast<unsigned long long>(st.shed_brownout),
               static_cast<unsigned long long>(st.reaped_partial),
               static_cast<unsigned long long>(st.reaped_idle),
               static_cast<unsigned long long>(st.health_requests),
               static_cast<unsigned long long>(st.digest_requests));

  auto digest = broker_state_digest(server->broker());
  if (digest.is_ok()) {
    std::fprintf(stderr, "qosbbd: state_digest=%08x\n", digest.value());
  }

  if (args.differential) {
    const DifferentialReport rep = run_differential_check(
        spec, broker_options, server->recorded_ops(), server->broker());
    if (!rep.ok) {
      std::fprintf(stderr, "qosbbd: differential: FAIL %s\n",
                   rep.detail.c_str());
      return 1;
    }
    std::fprintf(stderr, "qosbbd: differential: OK (%s)\n",
                 rep.detail.c_str());
  }
  return 0;
}
