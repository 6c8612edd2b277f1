#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

Percentile percentile(std::vector<double>& samples, double q) {
  Percentile p;
  p.q = q;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest value with at least q% of samples <= it.
  const double exact = q / 100.0 * static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.ok = p.beyond >= kMinBeyond;
  return p;
}

Percentile highest_supported(std::vector<double>& samples,
                             const std::vector<double>& candidates) {
  for (auto it = candidates.rbegin(); it != candidates.rend(); ++it) {
    Percentile p = percentile(samples, *it);
    if (p.ok) return p;
  }
  return percentile(samples, 50.0);
}

double monotonic_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {
double rusage_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}
}  // namespace

double thread_cpu_s() { return rusage_s(RUSAGE_THREAD); }
double process_cpu_s() { return rusage_s(RUSAGE_SELF); }

void JsonObject::key(const std::string& k) {
  if (!body_.empty()) body_ += ", ";
  body_ += "\"" + k + "\": ";
}

JsonObject& JsonObject::num(const std::string& k, double v) {
  key(k);
  if (!std::isfinite(v)) {
    body_ += "null";
    return *this;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::integer(const std::string& k, long long v) {
  key(k);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::boolean(const std::string& k, bool v) {
  key(k);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::str(const std::string& k, const std::string& v) {
  key(k);
  body_ += "\"";
  for (char c : v) {
    if (c == '"' || c == '\\') {
      body_ += '\\';
      body_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
    } else {
      body_ += c;
    }
  }
  body_ += "\"";
  return *this;
}

JsonObject& JsonObject::raw(const std::string& k, const std::string& json) {
  key(k);
  body_ += json;
  return *this;
}

}  // namespace perfbench
