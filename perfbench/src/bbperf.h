// bbperf subcommands and the line protocol they speak with run.py.
//
// run.py owns the broker processes, CPU pinning and /proc sampling; bbperf
// owns everything that speaks the wire protocol. bbperf prints one
// "TAG {json}" line per step on stdout and reads one command per line on
// stdin:
//
//   READY {...}          setup done (connected, warm state built)
//   go         -> DONE {...}     the measured window
//   digest     -> DIGEST {...}   SnapshotDigest + Health of every broker
//   probe P... -> PROBE {...}    first Health reply from restarted brokers
//   finish     -> CHECK {...}    post-run output checks; bbperf then exits
//   quit                         exit at once

#ifndef PERFBENCH_BBPERF_H_
#define PERFBENCH_BBPERF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct RunArgs {
  Workload workload = Workload::kInmemChurn;
  std::uint64_t seed = 1;
  std::uint64_t ops = 0;  ///< measured ops (whole run, all connections)
  std::vector<int> ports;
  std::string scratch;  ///< directory for trace-mode journal files
  double requests_per_batch = 0.0;  ///< trace: server's mean batch size
};

int run_timed(const RunArgs& args);
int run_trace(const RunArgs& args);
int run_edfd(int argc, char** argv);

/// Next command line from stdin ("" at EOF).
std::string read_command();
void emit(const std::string& tag, const std::string& json);

}  // namespace perfbench

#endif  // PERFBENCH_BBPERF_H_
