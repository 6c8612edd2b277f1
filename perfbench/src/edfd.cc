// The edf-mixed server entry point: the stock QosbbServer and
// ConcurrentBrokerFront over the workload's VT-EDF dumbbell, which qosbbd
// has no flag for. Same port-file, SIGTERM drain and stats line as qosbbd.
//
//   bbperf edfd --port-file=PATH

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "bbperf.h"
#include "core/concurrent_front.h"
#include "net/server.h"

namespace perfbench {

using namespace qosbb;

namespace {
QosbbServer* g_server = nullptr;
void on_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}
}  // namespace

int run_edfd(int argc, char** argv) {
  std::string port_file;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--port-file=", 12) == 0) port_file = argv[i] + 12;
  }
  if (port_file.empty()) {
    std::fprintf(stderr, "usage: bbperf edfd --port-file=PATH\n");
    return 2;
  }
  const ChurnConfig cfg = churn_config(Workload::kEdfMixed);
  BandwidthBroker bb(dumbbell_topology(churn_topology_options(cfg)));
  ConcurrentBrokerFront front(bb, /*threads=*/1);
  QosbbServer server(front, ServerOptions{});
  if (Status s = server.start(); !s.is_ok()) {
    std::fprintf(stderr, "edfd: start failed: %s\n", s.to_string().c_str());
    return 1;
  }
  for (int k = 0; k < cfg.pairs(); ++k) {
    const Status s =
        server.provision_pair("I" + std::to_string(k), "E" + std::to_string(k));
    if (!s.is_ok()) {
      std::fprintf(stderr, "edfd: provision failed: %s\n", s.to_string().c_str());
      return 1;
    }
  }
  {
    std::ofstream pf(port_file);
    pf << server.port() << "\n";
  }
  g_server = &server;
  struct sigaction sa{};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  server.run();

  const ServerStats& st = server.stats();
  std::fprintf(stderr,
               "edfd: drained. admit_requests=%llu admits=%llu rejects=%llu "
               "teardowns=%llu teardown_failures=%llu decode_errors=%llu "
               "batches=%llu batched_requests=%llu backpressure_pauses=%llu\n",
               static_cast<unsigned long long>(st.admit_requests),
               static_cast<unsigned long long>(st.admits),
               static_cast<unsigned long long>(st.rejects),
               static_cast<unsigned long long>(st.teardowns),
               static_cast<unsigned long long>(st.teardown_failures),
               static_cast<unsigned long long>(st.decode_errors),
               static_cast<unsigned long long>(st.batches),
               static_cast<unsigned long long>(st.batched_requests),
               static_cast<unsigned long long>(st.backpressure_pauses));
  return 0;
}

}  // namespace perfbench
