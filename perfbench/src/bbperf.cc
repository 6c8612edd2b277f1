// bbperf — the broker benchmark's own program (see perfbench/README.md).
//
//   bbperf timed --workload=W --seed=N --ops=N --ports=P[,P...]
//   bbperf trace --workload=W --seed=N --ops=N [--ports=...]
//                [--scratch=DIR] [--requests-per-batch=X]
//   bbperf edfd --port-file=PATH
//   bbperf config --workload=W --seconds=N   (sizing and topology, as JSON)
//
// timed and trace talk to perfbench/run.py over stdin/stdout (bbperf.h).

#include "bbperf.h"
#include "stats.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace {

using namespace perfbench;

bool parse(int argc, char** argv, RunArgs* args) {
  bool have_workload = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      auto w = parse_workload(v);
      if (!w) return false;
      args->workload = *w;
      have_workload = true;
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--ops=")) {
      args->ops = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--ports=")) {
      std::string list = v;
      for (std::size_t pos = 0; pos < list.size();) {
        const std::size_t comma = list.find(',', pos);
        args->ports.push_back(std::atoi(list.substr(pos, comma - pos).c_str()));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (const char* v = value("--scratch=")) {
      args->scratch = v;
    } else if (const char* v = value("--requests-per-batch=")) {
      args->requests_per_batch = std::atof(v);
    } else {
      std::fprintf(stderr, "bbperf: unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return have_workload && args->ops > 0;
}

// What run.py needs to start the brokers of workload `w`; one source of
// truth with the generator's own configuration.
int print_config(Workload w, int seconds) {
  const ChurnConfig churn = churn_config(w);
  const FedConfig fed = fed_config();
  std::printf("%s\n",
              JsonObject()
                  .integer("ops", static_cast<long long>(measured_ops(w, seconds)))
                  .integer("pairs", churn.pairs())
                  .num("access_mbps", churn.access_bps / 1e6)
                  .num("bottleneck_mbps", churn.bottleneck_bps / 1e6)
                  .integer("fed_domains", fed.domains)
                  .integer("fed_pairs", fed.pairs)
                  .dump()
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "edfd") return run_edfd(argc - 2, argv + 2);
  if (mode == "config") {
    std::optional<Workload> w;
    int seconds = 0;
    for (int i = 2; i < argc; ++i) {
      if (std::strncmp(argv[i], "--workload=", 11) == 0) w = parse_workload(argv[i] + 11);
      if (std::strncmp(argv[i], "--seconds=", 10) == 0) seconds = std::atoi(argv[i] + 10);
    }
    if (!w || seconds < 1) return 2;
    return print_config(*w, seconds);
  }
  RunArgs args;
  if ((mode != "timed" && mode != "trace") || !parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bbperf timed|trace --workload=W --seed=N --ops=N "
                 "[--ports=P,...] [--scratch=DIR] [--requests-per-batch=X]\n"
                 "       bbperf edfd --port-file=PATH\n");
    return 2;
  }
  return mode == "timed" ? run_timed(args) : run_trace(args);
}
