// loadgen — closed-loop, open-loop, chaos, probe, and federated load for
// qosbbd.
//
// Simulates many edge-router signaling sessions over N TCP connections,
// each pipelining up to W requests (closed loop) or pacing a fixed
// aggregate request rate (open loop). Every request is timestamped at
// send and matched to its in-order reply, yielding a full end-to-end
// admission-latency distribution (p50/p90/p99/p999) plus admits/sec —
// the measured numbers behind the BB's scalability claims.
//
//   loadgen --port-file=/tmp/qosbbd.port --requests=100000
//   loadgen --port=4747 --connections=8 --pipeline=128 --teardown-every=4
//   loadgen --mode=open --rate=50000 --requests=200000
//   loadgen --mode=chaos --connections=8 --requests=4000 --verify-drained=1
//   loadgen --mode=probe --requests=50 --probe-interval-ms=10
//   loadgen --mode=federated --port-file-prefix=/tmp/fed.port --domains=3
//
// Exit accounting is strict but overload-aware: kOverloadedReply is a
// VALID server answer (the request was shed, not lost), counted per shed
// reason — only decode/CRC errors, protocol violations, or genuinely lost
// replies fail the run. The accounting identities checked at exit:
//
//   admits + rejects + admit_sheds       == admit requests sent
//   teardown_acks + teardown_sheds       == teardowns sent   (closed/open)
//
// Latency percentiles cover ACCEPTED admits only (sheds answer in
// microseconds and would flatter the tail the deadline gate is watching).
//
// --mode=chaos and --mode=federated share one exactly-once loop: every
// acked admission enters a ledger, releases draw from it, and whatever is
// left is released at the end. A release answered "unknown flow" means an
// acked admission was LOST (exit 1); a final drain check then requires
// zero live flows, so a DUPLICATED admission (an orphan no ledger entry
// names) fails the run too.
//
//   chaos      one RetryingClient per connection-thread against one
//              qosbbd; each op is re-sent under its own RequestId through
//              timeouts, sheds, and server restarts, and the DurableBroker
//              dedup window makes the retry exactly-once. With
//              --verify-drained=1 (the default) the drain check reads the
//              Health op's live_flows. The detector behind ci/e2e_chaos.sh.
//   federated  a FederatedFront over one SocketMember per qosbbd
//              --topo=multidomain member (--ports, or --port-file-prefix
//              with --domains) drives a seeded mix of intra- and
//              inter-domain admissions. The drain check reads every
//              member's digest live_flows; a poisoned 2PC transaction or a
//              failed commit/abort ack fails the run; with --audit=1 each
//              member's sub-op log is replayed through a fresh in-process
//              broker (federation/oracle.h) whose digest must equal the
//              member's. The detector behind ci/e2e_federation.sh.
//
// RequestIds carry --seed in bits 63..40, so runs with distinct seeds never
// share one and a journal's dedup window cannot answer a new run with an
// old run's decision. Chaos puts thread+1 in bits 39..32 and a per-thread
// sequence below; the federated coordinator numbers bits 39..0 from 1.
// Both report the range they used as rid_lo / rid_hi.
//
// --mode=probe is a low-rate observer: rounds of Health + SnapshotDigest
// against a (possibly overloaded) server, reporting brownout sightings and
// digest sheds plus the server's own shed counters.
//
// Every mode writes one JSON report (--json-out, else stdout).

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/types.h"
#include "core/wire.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "federation/oracle.h"
#include "federation/partition.h"
#include "net/client.h"
#include "net/framing.h"
#include "topo/builders.h"
#include "util/rng.h"

namespace {

using namespace qosbb;
using Clock = std::chrono::steady_clock;

constexpr int kSeedShift = 40;     ///< rid bits 63..40 hold the seed
constexpr int kThreadShift = 32;   ///< chaos: rid bits 39..32 hold thread+1
constexpr int kMaxChaosThreads = 255;

struct Args {
  std::string mode = "closed";
  std::string host = "127.0.0.1";
  int port = 0;
  std::string port_file;
  std::vector<int> ports;        ///< federated: one per member domain
  std::string port_file_prefix;  ///< federated: reads PREFIX.0 .. PREFIX.K-1
  int domains = 0;               ///< federated: 0 = the number of --ports
  int connections = 4;
  int pipeline = 64;
  long requests = 100000;  ///< admit requests (chaos/federated: all ops)
  int teardown_every = 0;  ///< send a teardown after every K admits (0=off)
  double rate = 0.0;  ///< open loop: aggregate admit requests per second
  int pairs = -1;     ///< endpoint pairs (default 8; federated: 2 per domain)
  double rho_kbps = 100.0;
  double d_req = 1.0;
  int timeout_s = 300;
  std::string json_out;
  // chaos / probe / federated knobs
  int reply_timeout_ms = 1000;  ///< per-attempt reply wait
  int max_attempts = 200;       ///< re-sends per op before declaring it lost
  int verify_drained = -1;      ///< chaos: assert live_flows==0 at the end
                                ///< (-1 = default on for chaos)
  int probe_interval_ms = 10;
  unsigned long seed = 1;
  double release_prob = 0.35;  ///< federated: chance an op is a release
  int audit = 1;               ///< federated: op-log replay audit
};

/// A TCP port in [1, 65535], or -1: "70000" must not wrap to 4464, and
/// "abc" must not become 0.
int parse_port(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno != 0 || v < 1 || v > 65535) {
    return -1;
  }
  return static_cast<int>(v);
}

int read_port_file(const std::string& path) {
  std::ifstream pf(path);
  std::string token;
  pf >> token;
  return parse_port(token);
}

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return a.compare(0, n, prefix) == 0 ? a.c_str() + n : nullptr;
    };
    if (const char* v = value("--host=")) {
      args->host = v;
    } else if (const char* v = value("--port=")) {
      args->port = parse_port(v);
    } else if (const char* v = value("--port-file=")) {
      args->port_file = v;
    } else if (const char* v = value("--ports=")) {
      const std::string list = v;
      for (std::size_t pos = 0; pos <= list.size();) {
        const std::size_t comma = std::min(list.find(',', pos), list.size());
        args->ports.push_back(parse_port(list.substr(pos, comma - pos)));
        pos = comma + 1;
      }
    } else if (const char* v = value("--port-file-prefix=")) {
      args->port_file_prefix = v;
    } else if (const char* v = value("--domains=")) {
      args->domains = std::atoi(v);
    } else if (const char* v = value("--connections=")) {
      args->connections = std::atoi(v);
    } else if (const char* v = value("--pipeline=")) {
      args->pipeline = std::atoi(v);
    } else if (const char* v = value("--requests=")) {
      args->requests = std::atol(v);
    } else if (const char* v = value("--teardown-every=")) {
      args->teardown_every = std::atoi(v);
    } else if (const char* v = value("--mode=")) {
      args->mode = v;
    } else if (const char* v = value("--rate=")) {
      args->rate = std::atof(v);
    } else if (const char* v = value("--pairs=")) {
      args->pairs = std::atoi(v);
    } else if (const char* v = value("--rho-kbps=")) {
      args->rho_kbps = std::atof(v);
    } else if (const char* v = value("--d-req=")) {
      args->d_req = std::atof(v);
    } else if (const char* v = value("--timeout-s=")) {
      args->timeout_s = std::atoi(v);
    } else if (const char* v = value("--json-out=")) {
      args->json_out = v;
    } else if (const char* v = value("--reply-timeout-ms=")) {
      args->reply_timeout_ms = std::atoi(v);
    } else if (const char* v = value("--max-attempts=")) {
      args->max_attempts = std::atoi(v);
    } else if (const char* v = value("--verify-drained=")) {
      args->verify_drained = std::atoi(v);
    } else if (const char* v = value("--probe-interval-ms=")) {
      args->probe_interval_ms = std::atoi(v);
    } else if (const char* v = value("--seed=")) {
      args->seed = std::strtoul(v, nullptr, 10);
    } else if (const char* v = value("--release-prob=")) {
      args->release_prob = std::atof(v);
    } else if (const char* v = value("--audit=")) {
      args->audit = std::atoi(v);
    } else if (a == "--help" || a == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "loadgen: unknown argument: %s\n", a.c_str());
      return false;
    }
  }
  const bool federated = args->mode == "federated";
  if (args->mode != "closed" && args->mode != "open" &&
      args->mode != "chaos" && args->mode != "probe" && !federated) {
    std::fprintf(stderr,
                 "loadgen: --mode must be closed, open, chaos, probe, or "
                 "federated\n");
    return false;
  }
  if (args->mode == "open" && args->rate <= 0.0) {
    std::fprintf(stderr, "loadgen: open loop requires --rate\n");
    return false;
  }
  if (args->seed >= (1UL << (64 - kSeedShift))) {
    std::fprintf(stderr, "loadgen: --seed must be below 2^%d (rid bits)\n",
                 64 - kSeedShift);
    return false;
  }
  if (args->mode == "chaos" && args->connections > kMaxChaosThreads) {
    std::fprintf(stderr, "loadgen: chaos takes at most %d connections\n",
                 kMaxChaosThreads);
    return false;
  }
  if (args->pairs < 0) args->pairs = federated ? 2 : 8;
  if (args->connections < 1 || args->pipeline < 1 || args->requests < 1 ||
      args->pairs < 1 || args->max_attempts < 1 ||
      args->release_prob < 0.0 || args->release_prob >= 1.0) {
    return false;
  }
  if (args->verify_drained < 0) {
    args->verify_drained = args->mode == "chaos" ? 1 : 0;
  }
  if (!federated) {
    if (args->port == 0 && !args->port_file.empty()) {
      args->port = read_port_file(args->port_file);
    }
    if (args->port <= 0) {
      std::fprintf(stderr,
                   "loadgen: no valid server port (--port or --port-file)\n");
      return false;
    }
    return true;
  }
  if (args->ports.empty() && !args->port_file_prefix.empty()) {
    for (int d = 0; d < args->domains; ++d) {
      args->ports.push_back(read_port_file(args->port_file_prefix + "." +
                                           std::to_string(d)));
    }
  }
  if (args->domains == 0) args->domains = static_cast<int>(args->ports.size());
  if (args->ports.empty() ||
      static_cast<int>(args->ports.size()) != args->domains ||
      std::count(args->ports.begin(), args->ports.end(), -1) > 0) {
    std::fprintf(stderr,
                 "loadgen: federated mode needs one valid port in [1, 65535] "
                 "per domain (--ports, or --port-file-prefix + --domains)\n");
    return false;
  }
  return true;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: loadgen [--host=ADDR] (--port=N | --port-file=PATH)\n"
      "               [--connections=N] [--pipeline=W] [--requests=N]\n"
      "               [--teardown-every=K]\n"
      "               [--mode=closed|open|chaos|probe] [--rate=R]\n"
      "               [--pairs=P] [--rho-kbps=X] [--d-req=S]\n"
      "               [--timeout-s=N] [--json-out=PATH]\n"
      "               [--reply-timeout-ms=N] [--max-attempts=N]\n"
      "               [--verify-drained=0|1] [--probe-interval-ms=N]\n"
      "               [--seed=N]\n"
      "       loadgen --mode=federated (--ports=P0,P1,... |\n"
      "               --port-file-prefix=PATH --domains=K)\n"
      "               [--host=ADDR] [--pairs=N] [--requests=N]\n"
      "               [--release-prob=P] [--rho-kbps=X] [--audit=0|1]\n"
      "               [--reply-timeout-ms=N] [--max-attempts=N]\n"
      "               [--seed=N] [--json-out=PATH]\n");
}

struct Pending {
  bool admit = true;
  FlowId flow = 0;  ///< teardowns: which flow, to restore on a shed
  Clock::time_point sent;
};

struct Conn {
  BlockingClient client;  ///< owns the fd; loadgen drives it non-blocking
  int fd = -1;
  FrameDecoder decoder;
  std::vector<std::uint8_t> out;
  std::size_t out_pos = 0;
  std::deque<Pending> pending;
  std::deque<FlowId> live;       ///< confirmed admitted flows
  long admits_since_teardown = 0;

  std::size_t backlog() const { return out.size() - out_pos; }
};

/// Everything a run can observe. One reply per request, always — sheds and
/// rejects are answers, not losses. Only decode_errors / protocol_errors /
/// lost replies make the run fail.
struct Totals {
  long admits_sent = 0;
  long teardowns_sent = 0;
  long admits = 0;
  long rejects = 0;
  long admit_sheds = 0;     ///< kOverloadedReply to an admit
  long teardown_acks = 0;
  long teardown_failures = 0;
  long teardown_sheds = 0;  ///< kOverloadedReply to a teardown
  long sheds_global = 0;    ///< shed replies by server-reported reason
  long sheds_conn = 0;
  long sheds_deadline = 0;
  long sheds_brownout = 0;
  long decode_errors = 0;
  long protocol_errors = 0;
  // chaos / federated transport counters (RetryingClient)
  long resends = 0;
  long reconnects = 0;
  long timeouts = 0;
  long exhausted = 0;   ///< ops whose retry budget ran out (lost reply)
  long lost_acked = 0;  ///< acked admissions the server no longer knows
};

/// One JSON object, fields in insertion order: every mode's report.
class Report {
 public:
  template <class T>
  Report& put(const char* key, const T& value) {
    if constexpr (std::is_same_v<T, std::string>) {
      return raw(key, "\"" + value + "\"");
    } else if constexpr (std::is_floating_point_v<T>) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6f", static_cast<double>(value));
      return raw(key, buf);
    } else {
      return raw(key, std::to_string(value));
    }
  }
  Report& raw(const char* key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  std::string str(bool nested = false) const {
    std::string s = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) s += nested ? ", " : ",";
      s += (nested ? "\"" : "\n  \"") + fields_[i].first + "\": " +
           fields_[i].second;
    }
    return s + (nested ? "}" : "\n}\n");
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

void count_shed_reason(Totals* t, ShedReason reason) {
  switch (reason) {
    case ShedReason::kGlobalBudget: ++t->sheds_global; break;
    case ShedReason::kConnBudget: ++t->sheds_conn; break;
    case ShedReason::kDeadline: ++t->sheds_deadline; break;
    case ShedReason::kBrownout: ++t->sheds_brownout; break;
    case ShedReason::kNone: break;
  }
}

FlowServiceRequest make_request(const Args& args, long n) {
  // Deterministic request template, rotated over the endpoint pairs. The
  // shape obeys the wire-level profile invariants (sigma >= L, P >= rho).
  const double rho = args.rho_kbps * 1e3;
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(/*sigma=*/24000.0, rho,
                                     /*peak=*/2.0 * rho, /*l_max=*/12000.0);
  req.e2e_delay_req = args.d_req;
  const long k = n % args.pairs;
  req.ingress = "I" + std::to_string(k);
  req.egress = "E" + std::to_string(k);
  return req;
}

void emit(const Args& args, const Report& report) {
  if (args.json_out.empty()) {
    std::fputs(report.str().c_str(), stdout);
  } else {
    std::ofstream out(args.json_out);
    out << report.str();
  }
}

std::string latency_json(std::vector<double>& latencies_us) {
  std::sort(latencies_us.begin(), latencies_us.end());
  double mean = 0.0;
  for (double v : latencies_us) mean += v;
  if (!latencies_us.empty()) mean /= static_cast<double>(latencies_us.size());
  return Report()
      .put("mean", mean)
      .put("p50", percentile(latencies_us, 0.50))
      .put("p90", percentile(latencies_us, 0.90))
      .put("p99", percentile(latencies_us, 0.99))
      .put("p999", percentile(latencies_us, 0.999))
      .put("max", latencies_us.empty() ? 0.0 : latencies_us.back())
      .str(/*nested=*/true);
}

double per_sec(long count, double elapsed) {
  return elapsed > 0.0 ? static_cast<double>(count) / elapsed : 0.0;
}

// ---------------------------------------------------------------------------
// closed / open loop: non-blocking pipelined poll multiplexer.
// ---------------------------------------------------------------------------

int run_poll_loop(const Args& args) {
  std::vector<Conn> conns(static_cast<std::size_t>(args.connections));
  for (Conn& c : conns) {
    if (Status s = c.client.connect(args.host,
                                    static_cast<std::uint16_t>(args.port));
        !s.is_ok()) {
      std::fprintf(stderr, "loadgen: %s\n", s.to_string().c_str());
      return 1;
    }
    c.fd = c.client.fd();
    // BlockingClient connects blocking; this loop multiplexes with poll.
    ::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK);
  }

  Totals totals;
  std::vector<double> latencies_us;  ///< accepted admits only
  latencies_us.reserve(static_cast<std::size_t>(args.requests));

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::seconds(args.timeout_s);
  const bool open_loop = args.mode == "open";

  auto queue_message = [&](Conn& c, const WireBuffer& msg, bool admit,
                           FlowId flow) {
    const WireBuffer framed = frame_net_message(msg);
    c.out.insert(c.out.end(), framed.begin(), framed.end());
    c.pending.push_back(Pending{admit, flow, Clock::now()});
  };

  // One admit (or interleaved teardown) on connection `c`.
  auto queue_next_op = [&](Conn& c) {
    if (args.teardown_every > 0 &&
        c.admits_since_teardown >= args.teardown_every && !c.live.empty()) {
      const FlowId flow = c.live.front();
      c.live.pop_front();
      c.admits_since_teardown = 0;
      queue_message(c, encode(TeardownRequest{flow}), /*admit=*/false, flow);
      ++totals.teardowns_sent;
      return;
    }
    queue_message(c, encode(make_request(args, totals.admits_sent)),
                  /*admit=*/true, 0);
    ++totals.admits_sent;
    ++c.admits_since_teardown;
  };

  auto flush = [&](Conn& c) -> bool {
    while (c.out_pos < c.out.size()) {
      const ssize_t n =
          ::write(c.fd, c.out.data() + c.out_pos, c.out.size() - c.out_pos);
      if (n > 0) {
        c.out_pos += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    c.out.clear();
    c.out_pos = 0;
    return true;
  };

  auto handle_reply = [&](Conn& c, const WireBuffer& payload) -> bool {
    if (c.pending.empty()) {
      ++totals.protocol_errors;
      return false;
    }
    const Pending p = c.pending.front();
    c.pending.pop_front();
    auto type = peek_type(payload);
    if (!type.is_ok()) {
      ++totals.decode_errors;
      return false;
    }
    if (type.value() == MessageType::kReservationReply) {
      auto res = decode_reservation(payload);
      if (!res.is_ok() || !p.admit) {
        ++totals.decode_errors;
        return false;
      }
      ++totals.admits;
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - p.sent)
              .count());
      c.live.push_back(res.value().flow);
      return true;
    }
    if (type.value() == MessageType::kRejectReply) {
      auto rej = decode_reject_reply(payload);
      if (!rej.is_ok()) {
        ++totals.decode_errors;
        return false;
      }
      if (p.admit) {
        ++totals.rejects;
      } else if (rej.value().reason == RejectReason::kNone) {
        ++totals.teardown_acks;
      } else {
        ++totals.teardown_failures;
      }
      return true;
    }
    if (type.value() == MessageType::kOverloadedReply) {
      // A shed is an answer, not a loss: the server refused to EXECUTE.
      auto shed = decode_overloaded_reply(payload);
      if (!shed.is_ok()) {
        ++totals.decode_errors;
        return false;
      }
      count_shed_reason(&totals, shed.value().reason);
      if (p.admit) {
        ++totals.admit_sheds;
      } else {
        ++totals.teardown_sheds;
        c.live.push_back(p.flow);  // still admitted; put it back
      }
      return true;
    }
    ++totals.protocol_errors;
    return false;
  };

  bool failed = false;
  std::vector<pollfd> pfds(conns.size());
  std::size_t rr = 0;  // open-loop round-robin cursor
  while (!failed) {
    // Top up the send windows.
    if (open_loop) {
      const double elapsed =
          std::chrono::duration<double>(Clock::now() - start).count();
      const long due = std::min<long>(
          args.requests,
          static_cast<long>(elapsed * args.rate));
      while (totals.admits_sent < due) {
        Conn& c = conns[rr++ % conns.size()];
        queue_next_op(c);
      }
    } else {
      for (Conn& c : conns) {
        while (totals.admits_sent < args.requests &&
               c.pending.size() < static_cast<std::size_t>(args.pipeline)) {
          queue_next_op(c);
        }
      }
    }

    bool all_idle = totals.admits_sent >= args.requests;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (!flush(conns[i])) {
        std::fprintf(stderr, "loadgen: write failed on connection %zu\n", i);
        failed = true;
      }
      if (!conns[i].pending.empty() || conns[i].backlog() > 0) {
        all_idle = false;
      }
      pfds[i].fd = conns[i].fd;
      pfds[i].events = static_cast<short>(
          (conns[i].pending.empty() ? 0 : POLLIN) |
          (conns[i].backlog() > 0 ? POLLOUT : 0));
      pfds[i].revents = 0;
    }
    if (failed || all_idle) break;
    if (Clock::now() > deadline) {
      std::fprintf(stderr, "loadgen: timed out after %d s\n", args.timeout_s);
      failed = true;
      break;
    }

    const int pr = ::poll(pfds.data(), pfds.size(), open_loop ? 1 : 1000);
    if (pr < 0 && errno != EINTR) {
      std::fprintf(stderr, "loadgen: poll: %s\n", std::strerror(errno));
      failed = true;
      break;
    }
    for (std::size_t i = 0; i < conns.size() && !failed; ++i) {
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Conn& c = conns[i];
      std::uint8_t chunk[65536];
      while (true) {
        const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
        if (n > 0) {
          c.decoder.feed(chunk, static_cast<std::size_t>(n));
          if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
          continue;
        }
        if (n == 0) {
          if (!c.pending.empty()) {
            std::fprintf(stderr,
                         "loadgen: server closed connection %zu with %zu "
                         "replies outstanding\n",
                         i, c.pending.size());
            failed = true;
          }
          break;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        std::fprintf(stderr, "loadgen: read: %s\n", std::strerror(errno));
        failed = true;
        break;
      }
      while (!failed) {
        auto frame = c.decoder.next();
        if (!frame.is_ok()) {
          if (frame.status().code() == StatusCode::kNeedMoreData) break;
          std::fprintf(stderr, "loadgen: reply stream corrupt: %s\n",
                       frame.status().to_string().c_str());
          ++totals.decode_errors;
          failed = true;
          break;
        }
        if (!handle_reply(c, frame.value())) {
          std::fprintf(stderr, "loadgen: bad reply on connection %zu\n", i);
          failed = true;
        }
      }
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  // Invariants: one reply per request — admits, rejects, AND sheds are all
  // replies. A mismatch means a reply was lost or duplicated.
  if (totals.admits + totals.rejects + totals.admit_sheds !=
      totals.admits_sent) {
    std::fprintf(stderr,
                 "loadgen: reply count mismatch: admits=%ld rejects=%ld "
                 "sheds=%ld vs %ld admit requests sent\n",
                 totals.admits, totals.rejects, totals.admit_sheds,
                 totals.admits_sent);
    failed = true;
  }
  if (totals.teardown_acks + totals.teardown_sheds != totals.teardowns_sent ||
      totals.teardown_failures > 0) {
    std::fprintf(stderr,
                 "loadgen: teardown ack mismatch: %ld acks + %ld sheds "
                 "(+%ld failures) vs %ld sent\n",
                 totals.teardown_acks, totals.teardown_sheds,
                 totals.teardown_failures, totals.teardowns_sent);
    failed = true;
  }
  if (totals.decode_errors > 0 || totals.protocol_errors > 0) failed = true;

  const double admits_per_sec = per_sec(totals.admits, elapsed);
  const double ops_per_sec =
      per_sec(totals.admits_sent + totals.teardowns_sent, elapsed);
  const double shed_rate =
      totals.admits_sent > 0
          ? static_cast<double>(totals.admit_sheds) /
                static_cast<double>(totals.admits_sent)
          : 0.0;

  std::fprintf(stderr,
               "loadgen: %s-loop, %d conns x pipeline %d: "
               "%ld admit requests (%ld admitted, %ld rejected, %ld shed), "
               "%ld teardowns in %.3f s -> %.0f admits/s, %.0f ops/s\n",
               args.mode.c_str(), args.connections, args.pipeline,
               totals.admits_sent, totals.admits, totals.rejects,
               totals.admit_sheds, totals.teardowns_sent, elapsed,
               admits_per_sec, ops_per_sec);

  emit(args,
       Report()
           .put("mode", args.mode)
           .put("connections", args.connections)
           .put("pipeline", args.pipeline)
           .put("pairs", args.pairs)
           .put("requests", totals.admits_sent)
           .put("admits", totals.admits)
           .put("rejects", totals.rejects)
           .put("admit_sheds", totals.admit_sheds)
           .put("teardowns", totals.teardowns_sent)
           .put("teardown_failures", totals.teardown_failures)
           .put("teardown_sheds", totals.teardown_sheds)
           .put("sheds", totals.admit_sheds + totals.teardown_sheds)
           .put("sheds_global", totals.sheds_global)
           .put("sheds_conn", totals.sheds_conn)
           .put("sheds_deadline", totals.sheds_deadline)
           .put("sheds_brownout", totals.sheds_brownout)
           .put("shed_rate", shed_rate)
           .put("decode_errors", totals.decode_errors)
           .put("protocol_errors", totals.protocol_errors)
           .put("elapsed_s", elapsed)
           .put("admits_per_sec", admits_per_sec)
           .put("ops_per_sec", ops_per_sec)
           .put("num_cpus", ::sysconf(_SC_NPROCESSORS_ONLN))
           .raw("latency_us", latency_json(latencies_us)));
  return failed ? 1 : 0;
}

// ---------------------------------------------------------------------------
// chaos / federated: the shared exactly-once ledger loop.
// ---------------------------------------------------------------------------

/// One exactly-once worker's outcome (a chaos thread, or the federated
/// coordinator); merged after join so no locks are needed.
struct LedgerRun {
  Totals totals;
  std::vector<double> latencies_us;
  std::vector<std::string> errors;
  RequestId rid_lo = ~RequestId{0};  ///< RequestIds this worker sent
  RequestId rid_hi = 0;

  void note_rid(RequestId rid) {
    rid_lo = std::min(rid_lo, rid);
    rid_hi = std::max(rid_hi, rid);
  }
};

/// For each of `ops` steps, `pick(i, ledger_size)` names a ledger entry to
/// release, or -1 to admit; `admit(i)` returns the reservation or why not,
/// `release(flow)` the teardown status. kRejected is a real answer,
/// NotFound on a release is a LOST acked admission, and any other failure
/// is an op whose retry budget ran out. Whatever the ledger still holds at
/// the end is released (reconciliation).
template <class Pick, class Admit, class Release>
void run_ledger(long ops, Pick pick, Admit admit, Release release,
                LedgerRun* out) {
  Totals& t = out->totals;
  std::vector<FlowId> ledger;
  auto release_one = [&](FlowId flow, const char* when) {
    ++t.teardowns_sent;
    const Status s = release(flow);
    if (s.is_ok()) {
      ++t.teardown_acks;
      return;
    }
    if (s.code() == StatusCode::kNotFound) {
      ++t.lost_acked;  // the broker no longer knows an acked admission
    } else {
      ++t.exhausted;
    }
    out->errors.push_back("acked flow " + std::to_string(flow) + " at " +
                          when + ": " + s.to_string());
  };
  for (long i = 0; i < ops; ++i) {
    const long k = pick(i, ledger.size());
    if (k >= 0) {
      const FlowId flow = ledger[static_cast<std::size_t>(k)];
      ledger.erase(ledger.begin() + k);
      release_one(flow, "release");
      continue;
    }
    ++t.admits_sent;
    const auto op_start = Clock::now();
    const Result<Reservation> res = admit(i);
    if (res.is_ok()) {
      ++t.admits;
      out->latencies_us.push_back(
          std::chrono::duration<double, std::micro>(Clock::now() - op_start)
              .count());
      ledger.push_back(res.value().flow);
    } else if (res.status().code() == StatusCode::kRejected) {
      ++t.rejects;  // executed and denied — a real answer
    } else {
      ++t.exhausted;
      out->errors.push_back("admit: " + res.status().to_string());
    }
  }
  for (const FlowId flow : ledger) release_one(flow, "reconcile");
}

RequestId rid_base(const Args& args) {
  return static_cast<RequestId>(args.seed) << kSeedShift;
}

RetryingClientOptions client_options(const Args& args, int port, int idx) {
  RetryingClientOptions opt;
  opt.host = args.host;
  opt.port = static_cast<std::uint16_t>(port);
  opt.reply_timeout_ms = args.reply_timeout_ms;
  opt.max_attempts = static_cast<std::uint32_t>(args.max_attempts);
  // Tight schedule: the point is to ride THROUGH restarts, not wait them
  // out. Cap well below a restart interval so a kill mid-window costs at
  // most a few hundred ms of re-send delay.
  opt.backoff.base = 0.010;
  opt.backoff.cap = 0.250;
  opt.rng_seed = args.seed + static_cast<unsigned long>(idx) * 7919;
  return opt;
}

void add_transport(const RetryingClientStats& cs, Totals* t) {
  t->resends += static_cast<long>(cs.resends);
  t->reconnects += static_cast<long>(cs.reconnects);
  t->timeouts += static_cast<long>(cs.timeouts);
  t->admit_sheds += static_cast<long>(cs.sheds_seen);
}

/// Merges the workers, applies the exactly-once verdict (nothing lost,
/// nothing exhausted, nothing left live, every rid inside this seed's
/// space), and appends the shared fields to `report`.
int finish_ledger(const Args& args, const std::vector<LedgerRun>& runs,
                  long live_flows_final, bool failed, double elapsed,
                  Report report) {
  LedgerRun all;
  Totals& t = all.totals;
  long errors_shown = 0;
  for (const LedgerRun& r : runs) {
    t.admits_sent += r.totals.admits_sent;
    t.admits += r.totals.admits;
    t.rejects += r.totals.rejects;
    t.admit_sheds += r.totals.admit_sheds;
    t.teardowns_sent += r.totals.teardowns_sent;
    t.teardown_acks += r.totals.teardown_acks;
    t.lost_acked += r.totals.lost_acked;
    t.exhausted += r.totals.exhausted;
    t.resends += r.totals.resends;
    t.reconnects += r.totals.reconnects;
    t.timeouts += r.totals.timeouts;
    all.latencies_us.insert(all.latencies_us.end(), r.latencies_us.begin(),
                            r.latencies_us.end());
    if (r.rid_hi != 0) {
      all.note_rid(r.rid_lo);
      all.note_rid(r.rid_hi);
    }
    for (const std::string& e : r.errors) {
      if (errors_shown++ < 20) {
        std::fprintf(stderr, "loadgen: %s: %s\n", args.mode.c_str(),
                     e.c_str());
      }
    }
  }
  if (all.rid_hi == 0) all.rid_lo = 0;
  if (t.lost_acked > 0 || t.exhausted > 0) failed = true;
  if (live_flows_final > 0) {
    std::fprintf(stderr,
                 "loadgen: %s: %ld flows still live after reconciliation — "
                 "duplicated admission(s)\n",
                 args.mode.c_str(), live_flows_final);
    failed = true;
  }
  if (all.rid_hi != 0 && ((all.rid_lo >> kSeedShift) != args.seed ||
                          (all.rid_hi >> kSeedShift) != args.seed)) {
    std::fprintf(stderr, "loadgen: %s: rids left the space of --seed=%lu\n",
                 args.mode.c_str(), args.seed);
    failed = true;
  }

  std::fprintf(stderr,
               "loadgen: %s: %ld admits sent (%ld acked, %ld rejected), "
               "%ld releases, %ld resends, %ld reconnects, %ld timeouts, "
               "%ld sheds seen; lost_acked=%ld exhausted=%ld "
               "live_flows_final=%ld rids [%llu, %llu] in %.3f s\n",
               args.mode.c_str(), t.admits_sent, t.admits, t.rejects,
               t.teardowns_sent, t.resends, t.reconnects, t.timeouts,
               t.admit_sheds, t.lost_acked, t.exhausted, live_flows_final,
               static_cast<unsigned long long>(all.rid_lo),
               static_cast<unsigned long long>(all.rid_hi), elapsed);

  emit(args, report.put("requests", t.admits_sent)
                 .put("admits", t.admits)
                 .put("rejects", t.rejects)
                 .put("sheds_seen", t.admit_sheds)
                 .put("teardowns", t.teardowns_sent)
                 .put("releases", t.teardown_acks)
                 .put("resends", t.resends)
                 .put("reconnects", t.reconnects)
                 .put("timeouts", t.timeouts)
                 .put("exhausted", t.exhausted)
                 .put("lost_acked", t.lost_acked)
                 .put("live_flows_final", live_flows_final)
                 .put("rid_lo", all.rid_lo)
                 .put("rid_hi", all.rid_hi)
                 .put("elapsed_s", elapsed)
                 .put("admits_per_sec", per_sec(t.admits, elapsed))
                 .raw("latency_us", latency_json(all.latencies_us)));
  return failed ? 1 : 0;
}

int run_chaos(const Args& args) {
  const int threads = args.connections;
  std::vector<LedgerRun> runs(static_cast<std::size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  const auto start = Clock::now();
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&args, &runs, threads, t] {
      LedgerRun& run = runs[static_cast<std::size_t>(t)];
      RetryingClient client(client_options(args, args.port, t));
      // The CLIENT owns identity assignment, so rids survive restarts.
      const RequestId base =
          rid_base(args) | static_cast<RequestId>(t + 1) << kThreadShift;
      RequestId seq = 0;
      auto next_rid = [&] {
        run.note_rid(base | ++seq);
        return base | seq;
      };
      const long ops = args.requests / threads +
                       (t < args.requests % threads ? 1 : 0);
      run_ledger(
          ops,
          // Interleaved teardowns exercise dedup on the release path too.
          [&](long i, std::size_t live) -> long {
            return args.teardown_every > 0 && live > 0 &&
                           (i + 1) % (args.teardown_every + 1) == 0
                       ? 0
                       : -1;
          },
          [&](long i) {
            return client.admit(make_request(args, i), next_rid());
          },
          [&](FlowId flow) { return client.teardown(flow, next_rid()); },
          &run);
      add_transport(client.stats(), &run.totals);
    });
  }
  for (std::thread& w : workers) w.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  long live_flows_final = -1;
  bool failed = false;
  if (args.verify_drained) {
    RetryingClient verifier(client_options(args, args.port, threads));
    auto health = verifier.health();
    if (health.is_ok()) {
      live_flows_final = static_cast<long>(health.value().live_flows);
    } else {
      std::fprintf(stderr, "loadgen: chaos: final health probe failed: %s\n",
                   health.status().to_string().c_str());
      failed = true;
    }
  }
  return finish_ledger(args, runs, live_flows_final, failed, elapsed,
                       Report().put("mode", args.mode).put("threads", threads));
}

/// A SocketMember that notes every RequestId it carries, so a federated
/// run reports the rid range the coordinator actually used.
class RidNotingMember : public SocketMember {
 public:
  RidNotingMember(int domain, RetryingClientOptions options, LedgerRun* run)
      : SocketMember(domain, std::move(options)), run_(run) {}

  Result<Reservation> admit(const FlowServiceRequest& request,
                            RequestId rid) override {
    run_->note_rid(rid);
    return SocketMember::admit(request, rid);
  }
  Status release(FlowId flow, RequestId rid) override {
    run_->note_rid(rid);
    return SocketMember::release(flow, rid);
  }
  Result<PrepareReply> prepare(const PrepareSegment& request) override {
    run_->note_rid(request.rid_segment);
    run_->note_rid(request.rid_contingency);
    return SocketMember::prepare(request);
  }
  Result<SegmentAck> commit(const CommitSegment& request) override {
    run_->note_rid(request.rid);
    return SocketMember::commit(request);
  }
  Result<SegmentAck> abort(const AbortSegment& request) override {
    run_->note_rid(request.rid_segment);
    run_->note_rid(request.rid_contingency);
    return SocketMember::abort(request);
  }

 private:
  LedgerRun* run_;
};

FlowServiceRequest random_request(Rng& rng, const MultiDomainOptions& topo,
                                  double rho) {
  const auto fd = rng.uniform_int(0, topo.domains - 1);
  const auto td = rng.uniform_int(fd, topo.domains - 1);
  const auto fp = rng.uniform_int(0, topo.edge_pairs - 1);
  const auto tp = rng.uniform_int(0, topo.edge_pairs - 1);
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(/*sigma=*/24000.0, rho,
                                     /*peak=*/2.0 * rho, /*l_max=*/12000.0);
  const double delays[] = {0.8, 1.5, 2.0, 3.0};
  req.e2e_delay_req = delays[rng.uniform_int(0, 3)];
  req.ingress = "D" + std::to_string(fd) + "I" + std::to_string(fp);
  req.egress = "D" + std::to_string(td) + "E" + std::to_string(tp);
  return req;
}

int run_federated(const Args& args) {
  MultiDomainOptions topo;
  topo.domains = args.domains;
  topo.edge_pairs = args.pairs;
  const FederationPlan plan =
      partition_multi_domain(multi_domain_topology(topo), topo.domains);

  std::vector<LedgerRun> runs(1);
  LedgerRun& run = runs.front();
  std::vector<std::unique_ptr<RidNotingMember>> members;
  std::vector<FederationMember*> raw;
  for (int d = 0; d < plan.num_domains; ++d) {
    members.push_back(std::make_unique<RidNotingMember>(
        d, client_options(args, args.ports[static_cast<std::size_t>(d)], d),
        &run));
    raw.push_back(members.back().get());
  }
  FederatedFrontOptions front_options;
  front_options.record_member_ops = args.audit != 0;
  front_options.first_rid = rid_base(args) | 1;
  FederatedFront front(plan, raw, front_options);

  Rng rng(args.seed);
  const double rho = args.rho_kbps * 1e3;
  const auto start = Clock::now();
  run_ledger(
      args.requests,
      [&](long, std::size_t live) -> long {
        if (live == 0 || !rng.bernoulli(args.release_prob)) return -1;
        return static_cast<long>(
            rng.uniform_int(0, static_cast<std::int64_t>(live) - 1));
      },
      [&](long) {
        return front.request_service(random_request(rng, topo, rho)).result;
      },
      [&](FlowId flow) { return front.release_service(flow); }, &run);
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  for (const auto& m : members) add_transport(m->transport_stats(), &run.totals);

  bool failed = false;
  const FederationStats st = front.stats();
  if (st.poisoned_txns > 0 || st.ack_failures > 0) {
    std::fprintf(stderr,
                 "loadgen: federated: poisoned_txns=%llu ack_failures=%llu "
                 "— a member op exhausted its transport budget mid-2PC\n",
                 static_cast<unsigned long long>(st.poisoned_txns),
                 static_cast<unsigned long long>(st.ack_failures));
    failed = true;
  }
  // Drain check per member, plus the op-log replay audit.
  long live_flows_final = -1;
  int audit_ok = -1;
  auto digests = front.digests();
  if (!digests.is_ok()) {
    std::fprintf(stderr, "loadgen: federated: digest probe failed: %s\n",
                 digests.status().to_string().c_str());
    failed = true;
  } else {
    live_flows_final = 0;
    for (int d = 0; d < plan.num_domains; ++d) {
      const FederatedDigestReply& dig =
          digests.value()[static_cast<std::size_t>(d)];
      live_flows_final += static_cast<long>(dig.live_flows);
      if (args.audit == 0) continue;
      const MemberReplayReport replay = replay_member_ops(
          plan.members[static_cast<std::size_t>(d)], BrokerOptions{},
          front.member_ops(d));
      if (replay.ok && replay.digest == dig.digest &&
          replay.live_flows == dig.live_flows) {
        if (audit_ok != 0) audit_ok = 1;
        continue;
      }
      std::fprintf(stderr,
                   "loadgen: federated: member %d replay %s: %08x/%llu "
                   "flows vs live %08x/%llu — the member did not execute "
                   "exactly the coordinator's op log\n",
                   d, replay.ok ? "diverged" : replay.detail.c_str(),
                   replay.digest,
                   static_cast<unsigned long long>(replay.live_flows),
                   dig.digest, static_cast<unsigned long long>(dig.live_flows));
      audit_ok = 0;
      failed = true;
    }
  }
  return finish_ledger(args, runs, live_flows_final, failed, elapsed,
                       Report()
                           .put("mode", args.mode)
                           .put("domains", args.domains)
                           .put("pairs", args.pairs)
                           .put("intra_admits", st.intra_admitted)
                           .put("inter_admits", st.inter_admitted)
                           .put("prepares", st.prepares)
                           .put("prepare_failures", st.prepare_failures)
                           .put("aborts", st.aborts)
                           .put("poisoned_txns", st.poisoned_txns)
                           .put("ack_failures", st.ack_failures)
                           .put("audit_ok", audit_ok));
}

// ---------------------------------------------------------------------------
// probe: low-rate Health + SnapshotDigest observer.
// ---------------------------------------------------------------------------

int run_probe(const Args& args) {
  RetryingClient client(client_options(args, args.port, 0));
  long health_ok = 0, digest_ok = 0, digest_sheds = 0, brownout_seen = 0;
  bool failed = false;
  HealthReply last{};
  const auto start = Clock::now();
  for (long i = 0; i < args.requests; ++i) {
    auto health = client.health();
    if (health.is_ok()) {
      ++health_ok;
      last = health.value();
      if (last.brownout_active) ++brownout_seen;
    } else {
      std::fprintf(stderr, "loadgen: probe: health: %s\n",
                   health.status().to_string().c_str());
      failed = true;
    }
    auto digest = client.snapshot_digest();
    if (digest.is_ok()) {
      ++digest_ok;
    } else if (digest.status().code() == StatusCode::kUnavailable) {
      ++digest_sheds;  // browned out — exactly what the probe watches for
    } else {
      std::fprintf(stderr, "loadgen: probe: digest: %s\n",
                   digest.status().to_string().c_str());
      failed = true;
    }
    if (args.probe_interval_ms > 0 && i + 1 < args.requests) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(args.probe_interval_ms));
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  std::fprintf(stderr,
               "loadgen: probe, %ld rounds in %.3f s: health_ok=%ld "
               "digest_ok=%ld digest_sheds=%ld brownout_seen=%ld; server "
               "sheds global=%llu conn=%llu deadline=%llu brownout=%llu "
               "inflight=%llu live_flows=%llu\n",
               args.requests, elapsed, health_ok, digest_ok, digest_sheds,
               brownout_seen,
               static_cast<unsigned long long>(last.shed_global),
               static_cast<unsigned long long>(last.shed_conn),
               static_cast<unsigned long long>(last.shed_deadline),
               static_cast<unsigned long long>(last.shed_brownout),
               static_cast<unsigned long long>(last.inflight),
               static_cast<unsigned long long>(last.live_flows));

  emit(args, Report()
                 .put("mode", args.mode)
                 .put("rounds", args.requests)
                 .put("health_ok", health_ok)
                 .put("digest_ok", digest_ok)
                 .put("digest_sheds", digest_sheds)
                 .put("brownout_seen", brownout_seen)
                 .put("server_shed_total", last.shed_global + last.shed_conn +
                                               last.shed_deadline +
                                               last.shed_brownout)
                 .put("server_shed_global", last.shed_global)
                 .put("server_shed_conn", last.shed_conn)
                 .put("server_shed_deadline", last.shed_deadline)
                 .put("server_shed_brownout", last.shed_brownout)
                 .put("server_reaped_partial", last.reaped_partial)
                 .put("server_reaped_idle", last.reaped_idle)
                 .put("server_inflight", last.inflight)
                 .put("server_admits", last.admits)
                 .put("server_rejects", last.rejects)
                 .put("server_live_flows", last.live_flows)
                 .put("server_journal_lsn", last.journal_lsn)
                 .put("elapsed_s", elapsed));
  return failed ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    usage();
    return 2;
  }
  if (args.mode == "chaos") return run_chaos(args);
  if (args.mode == "federated") return run_federated(args);
  if (args.mode == "probe") return run_probe(args);
  return run_poll_loop(args);
}
