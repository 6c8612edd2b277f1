// Small measurement helpers: the percentile rule, wall and CPU clocks, and
// a flat JSON object writer for the lines bbperf prints to run.py.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile of a sample set, reported with the sample count. `ok` is
/// false when fewer than `kMinBeyond` samples lie strictly beyond the
/// percentile's rank, i.e. when the sample cannot support it.
struct Percentile {
  double q = 0.0;  ///< requested percentile, in (0, 100)
  double value = 0.0;
  std::size_t count = 0;
  std::size_t beyond = 0;  ///< samples ranked after the reported one
  bool ok = false;
};

constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile of `samples` (sorted in place).
Percentile percentile(std::vector<double>& samples, double q);

/// The highest of `candidates` (ascending) that the sample supports; the
/// median when none does.
Percentile highest_supported(std::vector<double>& samples,
                             const std::vector<double>& candidates);

double monotonic_s();  ///< CLOCK_MONOTONIC, the clock run.py reads
double thread_cpu_s();  ///< this thread's user + sys CPU
double process_cpu_s();  ///< this process's user + sys CPU

/// {"k": v, ...} with insertion order kept.
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v);
  JsonObject& integer(const std::string& key, long long v);
  JsonObject& boolean(const std::string& key, bool v);
  JsonObject& str(const std::string& key, const std::string& v);
  JsonObject& raw(const std::string& key, const std::string& json);
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  void key(const std::string& k);
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
