// Standalone differential fuzz driver (see tools/fuzz_harness.h).
//
//   fuzz_broker --seeds=1:10 --ops=2000              # fixed seed sweep
//   fuzz_broker --topology=fig8-mixed                # one configuration
//   fuzz_broker --repro=FILE                         # replay a repro file
//   fuzz_broker --sabotage --seeds=1:3               # canaries (must diverge)
//   fuzz_broker --crash-sweep --seeds=1:30           # crash-point sweep
//   fuzz_broker --threaded --seeds=1:10              # concurrent-front diff
//   fuzz_broker --batch --seeds=1:10                 # batch-heavy op mix
//
// Every (seed, topology) pair runs the full differential check. On a
// divergence the sequence is truncated + minimized and a replayable repro
// file is written next to the binary (or to --dump-dir), then the driver
// exits 1. --sabotage INVERTS the exit logic: it injects known bugs — a
// missed knot-cache invalidation AND, in a second pass, a silently dropped
// journal append — and the run fails unless the harness catches every one.
//
// --crash-sweep trades op count for crash-point density: each sequence is
// recovered from every record boundary, from cuts inside every record, and
// under single-bit corruption (run_crash_sweep). With --sabotage it instead
// requires every sweep to detect the dropped append.
//
// --threaded switches to the concurrent-front differential
// (run_fuzz_threaded): the same op sequences replayed through a
// ConcurrentBrokerFront, each op on its own thread joined before the next,
// and required to be bit-identical to the sequential monolith after every op.
// A leftover --threads=N exits 2 with a message naming --threaded.
//
// --batch widens the kBatchAdmit slice of the generated op mix (~6% ->
// ~24%), stressing the grouped submit_batch / request_service_batch paths
// against their one-at-a-time references. Composes with every other mode.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tools/fuzz_harness.h"

namespace {

using qosbb::fuzz::CrashSweepResult;
using qosbb::fuzz::FuzzConfig;
using qosbb::fuzz::FuzzResult;
using qosbb::fuzz::FuzzTopology;

struct Args {
  std::uint64_t seed_lo = 1;
  std::uint64_t seed_hi = 10;
  int ops = 2000;
  std::vector<FuzzTopology> topologies = {FuzzTopology::kFig8Mixed,
                                          FuzzTopology::kFig8RateOnly,
                                          FuzzTopology::kDumbbellEdf};
  bool sabotage = false;
  bool crash_sweep = false;
  bool batch_heavy = false;
  bool threaded = false;  ///< concurrent-front differential mode
  std::string repro_file;
  std::string dump_dir = ".";
};

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--seeds=")) {
      if (std::sscanf(v, "%llu:%llu",
                      reinterpret_cast<unsigned long long*>(&args->seed_lo),
                      reinterpret_cast<unsigned long long*>(
                          &args->seed_hi)) == 2) {
        continue;
      }
      args->seed_lo = args->seed_hi = std::strtoull(v, nullptr, 10);
    } else if (const char* v2 = value("--ops=")) {
      args->ops = std::atoi(v2);
    } else if (const char* v3 = value("--topology=")) {
      const std::string t = v3;
      if (t == "fig8-mixed") {
        args->topologies = {FuzzTopology::kFig8Mixed};
      } else if (t == "fig8-rate-only") {
        args->topologies = {FuzzTopology::kFig8RateOnly};
      } else if (t == "dumbbell-edf") {
        args->topologies = {FuzzTopology::kDumbbellEdf};
      } else if (t == "all") {
        // keep default
      } else {
        std::fprintf(stderr, "unknown topology '%s'\n", t.c_str());
        return false;
      }
    } else if (a == "--sabotage") {
      args->sabotage = true;
    } else if (a == "--crash-sweep") {
      args->crash_sweep = true;
    } else if (a == "--batch") {
      args->batch_heavy = true;
    } else if (a == "--threaded") {
      args->threaded = true;
    } else if (value("--threads=") != nullptr) {
      std::fprintf(stderr,
                   "unknown argument '%s': use --threaded for the "
                   "concurrent-front differential\n",
                   a.c_str());
      return false;
    } else if (const char* v4 = value("--repro=")) {
      args->repro_file = v4;
    } else if (const char* v5 = value("--dump-dir=")) {
      args->dump_dir = v5;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", a.c_str());
      return false;
    }
  }
  return true;
}

/// Minimize + dump a diverging run; returns the repro path.
std::string dump_divergence(const FuzzConfig& cfg, const FuzzResult& result,
                            const std::string& dump_dir) {
  const std::vector<qosbb::fuzz::FuzzOp> minimized =
      qosbb::fuzz::minimize(cfg, result.ops);
  std::ostringstream name;
  name << dump_dir << "/fuzz_repro_seed" << cfg.seed << "_"
       << qosbb::fuzz::fuzz_topology_name(cfg.topology) << ".txt";
  std::ofstream out(name.str());
  out << qosbb::fuzz::dump_repro(cfg, minimized);
  std::fprintf(stderr, "  minimized %zu -> %zu ops, repro: %s\n",
               result.ops.size(), minimized.size(), name.str().c_str());
  return name.str();
}

int run_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open repro file '%s'\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = qosbb::fuzz::parse_repro(buf.str());
  if (!parsed.has_value()) {
    std::fprintf(stderr, "malformed repro file '%s'\n", path.c_str());
    return 2;
  }
  const FuzzResult result = qosbb::fuzz::replay(parsed->first,
                                                parsed->second);
  std::printf("%s\n", result.summary().c_str());
  return result.ok ? 0 : 1;
}

FuzzConfig make_config(const Args& args, std::uint64_t seed,
                       FuzzTopology topo) {
  FuzzConfig cfg;
  cfg.seed = seed;
  cfg.ops = args.ops;
  cfg.topology = topo;
  cfg.batch_heavy = args.batch_heavy;
  return cfg;
}

/// Crash-point sweep over every (seed, topology). With sabotage, every
/// sweep must CATCH the dropped journal append.
int run_crash_sweeps(const Args& args) {
  int failures = 0;
  int caught = 0;
  int runs = 0;
  for (FuzzTopology topo : args.topologies) {
    for (std::uint64_t seed = args.seed_lo; seed <= args.seed_hi; ++seed) {
      FuzzConfig cfg = make_config(args, seed, topo);
      cfg.sabotage_drop_append = args.sabotage;
      const CrashSweepResult result = qosbb::fuzz::run_crash_sweep(cfg);
      ++runs;
      std::printf("sweep seed %llu %s: %s\n",
                  static_cast<unsigned long long>(seed),
                  qosbb::fuzz::fuzz_topology_name(topo),
                  result.summary().c_str());
      if (!result.ok) ++failures;
      if (args.sabotage && !result.ok) ++caught;
    }
  }
  if (args.sabotage) {
    if (caught == runs) {
      std::printf(
          "dropped-append sabotage caught in all %d sweeps — recovery "
          "checking is live\n",
          runs);
      return 0;
    }
    std::fprintf(stderr,
                 "dropped-append sabotage went UNDETECTED in %d of %d "
                 "sweeps — a lost acknowledged op would go unnoticed\n",
                 runs - caught, runs);
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

/// One sabotage pass: run every (seed, topology) with `mutate` applied to
/// the config; every run must diverge. Returns the number NOT caught.
int sabotage_pass(const Args& args,
                  const std::vector<FuzzTopology>& topologies,
                  void (*mutate)(FuzzConfig*), const char* what,
                  int* total_runs) {
  int missed = 0;
  for (FuzzTopology topo : topologies) {
    for (std::uint64_t seed = args.seed_lo; seed <= args.seed_hi; ++seed) {
      FuzzConfig cfg = make_config(args, seed, topo);
      mutate(&cfg);
      const FuzzResult result = qosbb::fuzz::run_fuzz(cfg);
      ++*total_runs;
      std::printf("%s seed %llu %s: %s\n", what,
                  static_cast<unsigned long long>(seed),
                  qosbb::fuzz::fuzz_topology_name(topo),
                  result.summary().c_str());
      if (result.ok) ++missed;
    }
  }
  return missed;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) return 2;
  if (!args.repro_file.empty()) return run_repro(args.repro_file);
  if (args.crash_sweep) return run_crash_sweeps(args);

  if (args.sabotage) {
    // Canary mode: inject known bugs; the harness must report a divergence
    // in EVERY run or it has lost its teeth. Two independent canaries:
    //
    // (1) Missed knot-cache invalidation. A topology with no delay-based
    //     links has no knot cache and can never diverge — skip it there.
    std::vector<FuzzTopology> knot_topos = args.topologies;
    std::erase(knot_topos, FuzzTopology::kFig8RateOnly);
    int runs = 0;
    int missed = 0;
    if (!knot_topos.empty()) {
      missed += sabotage_pass(
          args, knot_topos,
          [](FuzzConfig* cfg) { cfg->sabotage_knot_cache = true; },
          "knot-sabotage", &runs);
    }
    // (2) Silently dropped journal append: the broker acks an op that never
    //     reached the log. Recovery must notice on every topology.
    missed += sabotage_pass(
        args, args.topologies,
        [](FuzzConfig* cfg) { cfg->sabotage_drop_append = true; },
        "drop-sabotage", &runs);
    if (runs == 0) {
      std::fprintf(stderr, "--sabotage ran zero configurations\n");
      return 2;
    }
    if (missed == 0) {
      std::printf("sabotage caught in all %d runs — harness is live\n",
                  runs);
      return 0;
    }
    std::fprintf(stderr,
                 "sabotage went UNDETECTED in %d of %d runs — the harness "
                 "would miss a real bug of this class\n",
                 missed, runs);
    return 1;
  }

  int divergences = 0;
  for (FuzzTopology topo : args.topologies) {
    for (std::uint64_t seed = args.seed_lo; seed <= args.seed_hi; ++seed) {
      const FuzzConfig cfg = make_config(args, seed, topo);
      const FuzzResult result =
          args.threaded ? qosbb::fuzz::run_fuzz_threaded(cfg)
                        : qosbb::fuzz::run_fuzz(cfg);
      std::printf("%sseed %llu %s: %s\n", args.threaded ? "threaded " : "",
                  static_cast<unsigned long long>(seed),
                  qosbb::fuzz::fuzz_topology_name(topo),
                  result.summary().c_str());
      if (!result.ok) {
        ++divergences;
        // Threaded divergences are not minimized (minimize() replays the
        // journal-backed sequential harness); the summary pinpoints the op.
        if (!args.threaded) dump_divergence(cfg, result, args.dump_dir);
      }
    }
  }
  return divergences == 0 ? 0 : 1;
}
