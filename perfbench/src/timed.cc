// Timed mode: the load generator (churn workloads) or the federation
// coordinator (federated-2pc), driving live broker processes over
// loopback, plus every post-run output check. Nothing here is traced:
// the only clocks read on the hot path are one per send round and one per
// socket read.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bbperf.h"
#include "core/broker.h"
#include "core/wire.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "federation/oracle.h"
#include "net/client.h"
#include "net/framing.h"
#include "stats.h"

namespace perfbench {

using namespace qosbb;

std::string read_command() {
  char buf[512];
  if (std::fgets(buf, sizeof(buf), stdin) == nullptr) return "";
  std::string s(buf);
  while (!s.empty() && (s.back() == '\n' || s.back() == '\r')) s.pop_back();
  return s;
}

void emit(const std::string& tag, const std::string& json) {
  std::printf("%s %s\n", tag.c_str(), json.c_str());
  std::fflush(stdout);
}

namespace {

std::vector<int> parse_ports(const std::string& line) {
  std::vector<int> ports;
  std::size_t pos = line.find(' ');
  while (pos != std::string::npos) {
    const std::size_t next = line.find(' ', pos + 1);
    const std::string tok = line.substr(pos + 1, next == std::string::npos
                                                     ? std::string::npos
                                                     : next - pos - 1);
    if (!tok.empty()) ports.push_back(std::atoi(tok.c_str()));
    pos = next;
  }
  return ports;
}

// ---- Control-plane probes (outside every measured window) ----

Result<WireBuffer> call(BlockingClient& c, const WireBuffer& msg) {
  if (Status s = c.send_message(msg); !s.is_ok()) return s;
  return c.read_message(30000);
}

Result<HealthReply> health(int port) {
  BlockingClient c;
  if (Status s = c.connect("127.0.0.1", static_cast<std::uint16_t>(port));
      !s.is_ok()) {
    return s;
  }
  auto reply = call(c, encode(HealthRequest{}));
  if (!reply.is_ok()) return reply.status();
  return decode_health_reply(reply.value());
}

Result<SnapshotDigestReply> snapshot_digest(int port) {
  BlockingClient c;
  if (Status s = c.connect("127.0.0.1", static_cast<std::uint16_t>(port));
      !s.is_ok()) {
    return s;
  }
  auto reply = call(c, encode(SnapshotDigestRequest{}));
  if (!reply.is_ok()) return reply.status();
  return decode_snapshot_digest_reply(reply.value());
}

/// First Health reply of each (restarted) broker; PROBE carries the
/// monotonic time it arrived, run.py subtracts the spawn time.
void probe(const std::vector<int>& ports) {
  bool ok = true;
  std::uint64_t live = 0;
  for (int port : ports) {
    auto h = health(port);
    if (!h.is_ok()) {
      ok = false;
      continue;
    }
    live += h.value().live_flows;
  }
  const double t = monotonic_s();
  emit("PROBE", JsonObject()
                    .boolean("ok", ok)
                    .num("t", t)
                    .integer("live_flows", static_cast<long long>(live))
                    .dump());
}

// ---- Churn workloads ----

struct InFlight {
  std::uint64_t index = 0;
  bool admit = true;
  std::uint64_t target = 0;
  double sent = 0.0;
};

struct Tally {
  std::uint64_t admit_requests = 0, admits = 0, rejects = 0;
  std::uint64_t teardown_requests = 0, teardowns = 0, teardown_failures = 0;
  std::uint64_t sheds = 0;  ///< admits answered kOverloadedReply
  std::uint64_t protocol_errors = 0;

  std::uint64_t attempted() const { return admit_requests + teardown_requests; }
  std::uint64_t decisions() const { return admits + rejects + teardowns; }
  std::uint64_t failed() const {
    return attempted() - decisions();  // sheds, errors, lost replies
  }
};

enum Verdict : std::int8_t {
  kUnknown = -1,
  kRejectedV = 0,
  kAdmittedV = 1,
  kTornDown = 2,
};

struct ChurnConn {
  ChurnConn(const ChurnConfig& cfg, int id, std::uint64_t seed)
      : stream(cfg, id, seed) {}
  int fd = -1;
  FrameDecoder decoder;
  WireBuffer out;
  std::size_t out_off = 0;
  ConnStream stream;
  std::deque<InFlight> inflight;
  std::vector<FlowId> flow_of;   ///< by op index; live admitted flows
  std::vector<std::int8_t> verdict;  ///< by op index
};

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class ChurnGen {
 public:
  ChurnGen(const ChurnConfig& cfg, std::uint64_t seed, std::uint64_t ops)
      : cfg_(cfg), seed_(seed) {
    const std::uint64_t per_conn =
        (ops + static_cast<std::uint64_t>(cfg.connections) - 1) /
        static_cast<std::uint64_t>(cfg.connections);
    prefill_limit_ = static_cast<std::uint64_t>(cfg.prefill_ops_per_conn);
    total_limit_ = prefill_limit_ + per_conn;
    for (int c = 0; c < cfg.connections; ++c) {
      conns_.push_back(std::make_unique<ChurnConn>(cfg, c, seed));
      conns_.back()->flow_of.assign(total_limit_, kInvalidFlowId);
      conns_.back()->verdict.assign(total_limit_, kUnknown);
    }
  }
  ~ChurnGen() { close_all(); }
  ChurnGen(const ChurnGen&) = delete;
  ChurnGen& operator=(const ChurnGen&) = delete;

  bool connect(int port) {
    for (auto& c : conns_) {
      c->fd = connect_loopback(port);
      if (c->fd < 0) return false;
    }
    return true;
  }
  void close_all() {
    for (auto& c : conns_) {
      if (c->fd >= 0) ::close(c->fd);
      c->fd = -1;
    }
  }

  bool prefill() { return run_until(prefill_limit_, nullptr); }
  bool measure(Tally* tally) { return run_until(total_limit_, tally); }

  std::vector<double>& admit_latency_us() { return lat_us_; }
  /// Replies during the prefill that were not verdicts (sheds, errors).
  std::uint64_t setup_errors() const { return setup_errors_; }
  std::uint64_t acked_live() const {
    std::uint64_t n = 0;
    for (const auto& c : conns_) {
      for (FlowId f : c->flow_of) n += f != kInvalidFlowId ? 1 : 0;
    }
    return n;
  }

  /// Tear down every acked flow over one control connection, pipelined in
  /// slabs. Returns the number of teardowns that failed.
  std::uint64_t teardown_all(int port, std::string* detail);

  /// Replay every connection's stream through a fresh library broker and
  /// demand the same verdict for every admit.
  bool replay_verdicts(std::string* detail) const;

 private:
  bool run_until(std::uint64_t limit, Tally* tally);
  void fill(ChurnConn& c, std::uint64_t limit, double now, Tally* tally);
  bool flush(ChurnConn& c);
  bool drain(ChurnConn& c, double now, Tally* tally);
  void on_reply(ChurnConn& c, const WireBuffer& payload, double now,
                Tally* tally);

  const ChurnConfig cfg_;
  const std::uint64_t seed_;
  std::uint64_t prefill_limit_ = 0;
  std::uint64_t total_limit_ = 0;
  std::vector<std::unique_ptr<ChurnConn>> conns_;
  std::vector<double> lat_us_;
  std::uint64_t setup_errors_ = 0;
};

void ChurnGen::fill(ChurnConn& c, std::uint64_t limit, double now,
                    Tally* tally) {
  while (c.inflight.size() < static_cast<std::size_t>(cfg_.window) &&
         c.stream.issued() < limit) {
    const std::uint64_t index = c.stream.issued();
    const ChurnOp op = c.stream.next();
    InFlight f{index, op.admit, op.target, now};
    WireBuffer msg;
    if (op.admit) {
      msg = encode(op.request, op.rid);
      if (tally != nullptr) ++tally->admit_requests;
    } else {
      msg = encode(TeardownRequest{c.flow_of[op.target], op.rid});
      if (tally != nullptr) ++tally->teardown_requests;
    }
    const WireBuffer frame = frame_net_message(msg);
    c.out.insert(c.out.end(), frame.begin(), frame.end());
    c.inflight.push_back(f);
  }
}

bool ChurnGen::flush(ChurnConn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

bool ChurnGen::drain(ChurnConn& c, double now, Tally* tally) {
  std::uint8_t buf[1 << 16];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;  // peer closed or error: the in-flight replies are lost
  }
  while (true) {
    auto frame = c.decoder.next();
    if (!frame.is_ok()) {
      if (frame.status().code() == StatusCode::kNeedMoreData) return true;
      return false;
    }
    if (c.inflight.empty()) return false;  // a reply nobody asked for
    on_reply(c, frame.value(), now, tally);
  }
}

void ChurnGen::on_reply(ChurnConn& c, const WireBuffer& payload, double now,
                        Tally* tally) {
  const InFlight f = c.inflight.front();
  c.inflight.pop_front();
  auto type = peek_type(payload);
  const MessageType t =
      type.is_ok() ? type.value() : static_cast<MessageType>(0);
  auto count = [&](std::uint64_t Tally::*field) {
    if (tally != nullptr) ++(tally->*field);
    else ++setup_errors_;
  };
  if (f.admit) {
    bool admitted = false;
    if (t == MessageType::kReservationReply) {
      auto r = decode_reservation(payload);
      if (r.is_ok()) {
        admitted = true;
        c.flow_of[f.index] = r.value().flow;
        c.verdict[f.index] = kAdmittedV;
        if (tally != nullptr) ++tally->admits;
      } else {
        count(&Tally::protocol_errors);
      }
    } else if (t == MessageType::kRejectReply) {
      c.verdict[f.index] = kRejectedV;
      if (tally != nullptr) ++tally->rejects;
    } else if (t == MessageType::kOverloadedReply) {
      count(&Tally::sheds);
    } else {
      count(&Tally::protocol_errors);
    }
    if (tally != nullptr && c.verdict[f.index] != kUnknown) {
      lat_us_.push_back(1e6 * (now - f.sent));
    }
    c.stream.on_verdict(f.index, admitted);
    return;
  }
  if (t == MessageType::kRejectReply) {
    auto r = decode_reject_reply(payload);
    if (r.is_ok() && r.value().reason == RejectReason::kNone) {
      c.flow_of[f.target] = kInvalidFlowId;
      c.verdict[f.index] = kTornDown;
      if (tally != nullptr) ++tally->teardowns;
      return;
    }
    count(&Tally::teardown_failures);
  } else {
    // A shed teardown is a failed teardown; protocol errors as for admits.
    count(t == MessageType::kOverloadedReply ? &Tally::teardown_failures
                                             : &Tally::protocol_errors);
  }
}

bool ChurnGen::run_until(std::uint64_t limit, Tally* tally) {
  std::vector<pollfd> fds(conns_.size());
  while (true) {
    bool done = true;
    const double now = monotonic_s();
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      ChurnConn& c = *conns_[k];
      fill(c, limit, now, tally);
      if (!flush(c)) return false;
      if (!c.inflight.empty() || c.stream.issued() < limit) done = false;
      fds[k].fd = c.fd;
      fds[k].events = static_cast<short>(
          (c.inflight.empty() ? 0 : POLLIN) |
          (c.out_off < c.out.size() ? POLLOUT : 0));
      fds[k].revents = 0;
    }
    if (done) return true;
    const int rc = ::poll(fds.data(), fds.size(), 30000);
    if (rc == 0) {
      std::fprintf(stderr, "bbperf: no reply for 30 s, replies lost\n");
      return false;
    }
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    const double t = monotonic_s();
    for (std::size_t k = 0; k < conns_.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        if (!drain(*conns_[k], t, tally)) return false;
      }
    }
  }
}

std::uint64_t ChurnGen::teardown_all(int port, std::string* detail) {
  BlockingClient client;
  if (Status s = client.connect("127.0.0.1", static_cast<std::uint16_t>(port));
      !s.is_ok()) {
    *detail = "teardown connect: " + s.to_string();
    return acked_live();
  }
  std::vector<FlowId> flows;
  for (const auto& c : conns_) {
    for (FlowId f : c->flow_of) {
      if (f != kInvalidFlowId) flows.push_back(f);
    }
  }
  std::uint64_t failed = 0;
  constexpr std::size_t kSlab = 256;
  for (std::size_t at = 0; at < flows.size(); at += kSlab) {
    const std::size_t end = std::min(flows.size(), at + kSlab);
    for (std::size_t i = at; i < end; ++i) {
      if (!client.send_message(encode(TeardownRequest{flows[i], kNoRequestId}))
               .is_ok()) {
        *detail = "teardown send failed";
        return flows.size() - at;
      }
    }
    for (std::size_t i = at; i < end; ++i) {
      auto reply = client.read_message(30000);
      if (!reply.is_ok()) {
        *detail = "teardown reply lost: " + reply.status().to_string();
        return failed + (end - i) + (flows.size() - end);
      }
      auto r = decode_reject_reply(reply.value());
      if (!r.is_ok() || r.value().reason != RejectReason::kNone) ++failed;
    }
  }
  for (auto& c : conns_) c->flow_of.assign(c->flow_of.size(), kInvalidFlowId);
  return failed;
}

bool ChurnGen::replay_verdicts(std::string* detail) const {
  const DomainSpec spec = dumbbell_topology(churn_topology_options(cfg_));
  BandwidthBroker bb(spec);
  for (int k = 0; k < cfg_.pairs(); ++k) {
    if (!bb.provision_path("I" + std::to_string(k), "E" + std::to_string(k))
             .is_ok()) {
      *detail = "replay: provisioning failed";
      return false;
    }
  }
  for (const auto& live : conns_) {
    const int id = static_cast<int>(&live - &conns_.front());
    ConnStream stream(cfg_, id, seed_);
    std::vector<FlowId> flows(total_limit_, kInvalidFlowId);
    for (std::uint64_t i = 0; i < live->stream.issued(); ++i) {
      const ChurnOp op = stream.next();
      if (!op.admit) {
        if (!bb.release_service(flows[op.target]).is_ok()) {
          *detail = "replay: teardown of op " + std::to_string(op.target) +
                    " failed on connection " + std::to_string(id);
          return false;
        }
        continue;
      }
      auto r = bb.request_service(op.request);
      const bool admitted = r.is_ok();
      if (admitted) flows[i] = r.value().flow;
      if (admitted != (live->verdict[i] == kAdmittedV)) {
        *detail = "replay: verdict of op " + std::to_string(i) +
                  " on connection " + std::to_string(id) + " differs (live " +
                  std::to_string(live->verdict[i]) + ")";
        return false;
      }
      stream.on_verdict(i, admitted);
    }
  }
  return true;
}

JsonObject latency_json(std::vector<double>& lat_us) {
  JsonObject o;
  Percentile p50 = percentile(lat_us, 50.0);
  Percentile p99 = percentile(lat_us, 99.0);
  Percentile top = highest_supported(lat_us, {50.0, 90.0, 99.0, 99.9});
  o.num("admit_p50_us", p50.value)
      .integer("admit_samples", static_cast<long long>(p50.count))
      .num("admit_p99_us", p99.value)
      .boolean("admit_p99_ok", p99.ok)
      .num("admit_top_q", top.q)
      .num("admit_top_us", top.value);
  return o;
}

int run_churn(const RunArgs& args) {
  const ChurnConfig cfg = churn_config(args.workload);
  if (args.ports.size() != 1) {
    std::fprintf(stderr, "bbperf: churn workloads take one --ports entry\n");
    return 2;
  }
  int port = args.ports[0];
  ChurnGen gen(cfg, args.seed, args.ops);
  if (!gen.connect(port)) {
    std::fprintf(stderr, "bbperf: cannot connect to port %d\n", port);
    return 1;
  }
  if (!gen.prefill() || gen.setup_errors() != 0) {
    std::fprintf(stderr, "bbperf: prefill failed\n");
    return 1;
  }
  emit("READY", JsonObject()
                    .integer("live_flows",
                             static_cast<long long>(gen.acked_live()))
                    .dump());

  Tally tally;
  bool run_ok = true;
  bool digest_seen = false;
  std::uint32_t digest_before = 0;
  JsonObject check;
  bool correct = true;
  std::string why;
  auto fail = [&](const std::string& d) {
    correct = false;
    if (why.empty()) why = d;
  };
  int exit_code = 0;
  for (std::string cmd = read_command(); !cmd.empty(); cmd = read_command()) {
    if (cmd == "quit") return exit_code;
    if (cmd == "go") {
      const double cpu0 = process_cpu_s();
      const double t0 = monotonic_s();
      run_ok = gen.measure(&tally);
      const double t1 = monotonic_s();
      const double cpu1 = process_cpu_s();
      gen.close_all();
      JsonObject o = latency_json(gen.admit_latency_us());
      o.boolean("ok", run_ok)
          .num("window_s", t1 - t0)
          .num("gen_cpu_s", cpu1 - cpu0)
          .integer("attempted", static_cast<long long>(tally.attempted()))
          .integer("decisions", static_cast<long long>(tally.decisions()))
          .integer("failed", static_cast<long long>(tally.failed()))
          .integer("admit_requests",
                   static_cast<long long>(tally.admit_requests))
          .integer("admits", static_cast<long long>(tally.admits))
          .integer("rejects", static_cast<long long>(tally.rejects))
          .integer("teardowns", static_cast<long long>(tally.teardowns))
          .integer("teardown_failures",
                   static_cast<long long>(tally.teardown_failures))
          .integer("sheds", static_cast<long long>(tally.sheds))
          .integer("protocol_errors",
                   static_cast<long long>(tally.protocol_errors));
      emit("DONE", o.dump());
    } else if (cmd == "digest") {
      auto d = snapshot_digest(port);
      auto h = health(port);
      JsonObject o;
      o.boolean("ok", d.is_ok() && h.is_ok());
      if (d.is_ok() && h.is_ok()) {
        o.integer("digest", d.value().digest)
            .integer("journal_lsn",
                     static_cast<long long>(d.value().journal_lsn))
            .integer("live_flows",
                     static_cast<long long>(h.value().live_flows));
        if (!digest_seen) {
          digest_before = d.value().digest;
          digest_seen = true;
        } else if (d.value().digest != digest_before) {
          fail("SnapshotDigest after recovery differs from before SIGTERM");
        }
      } else {
        fail("digest probe failed");
      }
      emit("DIGEST", o.dump());
    } else if (cmd.rfind("probe", 0) == 0) {
      const std::vector<int> ports = parse_ports(cmd);
      if (!ports.empty()) port = ports[0];
      probe(ports);
    } else if (cmd == "finish") {
      if (!run_ok) fail("measured run lost replies or hit a socket error");
      if (tally.failed() != 0) fail("failed operations in the measured run");
      if (tally.admits + tally.rejects + tally.sheds != tally.admit_requests) {
        fail("admits + rejects + sheds != admit requests");
      }
      auto h = health(port);
      const std::uint64_t acked = gen.acked_live();
      if (!h.is_ok()) {
        fail("health probe failed");
      } else if (h.value().live_flows != acked) {
        fail("broker holds " + std::to_string(h.value().live_flows) +
             " flows, client acked " + std::to_string(acked));
      }
      std::string detail;
      const std::uint64_t teardown_failed = gen.teardown_all(port, &detail);
      if (teardown_failed != 0) {
        fail("teardown of acked flows failed: " + std::to_string(teardown_failed) +
             " " + detail);
      }
      auto after = health(port);
      if (!after.is_ok() || after.value().live_flows != 0) {
        fail("live_flows != 0 after tearing down every acked flow");
      }
      if (!gen.replay_verdicts(&detail)) fail(detail);
      check.boolean("correct", correct)
          .str("detail", why)
          .integer("acked_live", static_cast<long long>(acked))
          .integer("teardown_failed", static_cast<long long>(teardown_failed));
      emit("CHECK", check.dump());
      exit_code = correct ? 0 : 1;
    } else {
      std::fprintf(stderr, "bbperf: unknown command '%s'\n", cmd.c_str());
      return 2;
    }
  }
  return 1;
}

// ---- Federated workload ----

struct FedTally {
  std::uint64_t admit_requests = 0, admits = 0, rejects = 0;
  std::uint64_t release_requests = 0, releases = 0, release_failures = 0;
  std::uint64_t attempted() const { return admit_requests + release_requests; }
  std::uint64_t decisions() const { return admits + rejects + releases; }
};

/// Drives `stream` through `front` for `count` ops. `verdicts` gets one
/// entry per op: 1 admitted, 0 rejected, 2 released, -1 failed release.
template <typename Front>
void fed_steps(Front& front, FedStream& stream, std::vector<FlowId>& live,
               std::uint64_t count, std::vector<std::int8_t>& verdicts,
               FedTally* tally, std::vector<double>* lat_us) {
  for (std::uint64_t i = 0; i < count; ++i) {
    const FedOp op = stream.next(live.size());
    if (op.admit) {
      const double t0 = lat_us != nullptr ? monotonic_s() : 0.0;
      const FederatedOutcome out = front.request_service(op.request);
      if (lat_us != nullptr) lat_us->push_back(1e6 * (monotonic_s() - t0));
      if (tally != nullptr) ++tally->admit_requests;
      if (out.result.is_ok()) {
        live.push_back(out.result.value().flow);
        verdicts.push_back(1);
        if (tally != nullptr) ++tally->admits;
      } else {
        verdicts.push_back(0);
        if (tally != nullptr) ++tally->rejects;
      }
      continue;
    }
    const FlowId flow = live[op.live_index];
    live[op.live_index] = live.back();
    live.pop_back();
    const bool ok = front.release_service(flow).is_ok();
    verdicts.push_back(ok ? 2 : -1);
    if (tally != nullptr) {
      ++tally->release_requests;
      ++(ok ? tally->releases : tally->release_failures);
    }
  }
}

int run_federated(const RunArgs& args) {
  const FedConfig cfg = fed_config();
  if (static_cast<int>(args.ports.size()) != cfg.domains) {
    std::fprintf(stderr, "bbperf: federated-2pc needs %d ports\n",
                 cfg.domains);
    return 2;
  }
  const FederationPlan plan = fed_plan(cfg);
  std::vector<std::unique_ptr<SocketMember>> members;
  std::vector<FederationMember*> raw;
  for (int d = 0; d < cfg.domains; ++d) {
    RetryingClientOptions opt;
    opt.port = static_cast<std::uint16_t>(args.ports[static_cast<std::size_t>(d)]);
    opt.reply_timeout_ms = 5000;
    opt.max_attempts = 4;
    opt.rng_seed = args.seed + static_cast<std::uint64_t>(d);
    members.push_back(std::make_unique<SocketMember>(d, opt));
    raw.push_back(members.back().get());
  }
  FederatedFrontOptions fopt;
  fopt.record_member_ops = true;  // the digest replay audit needs the log
  FederatedFront front(plan, raw, fopt);

  FedStream stream(cfg, args.seed);
  std::vector<FlowId> live;
  std::vector<std::int8_t> verdicts;
  fed_steps(front, stream, live, static_cast<std::uint64_t>(cfg.prefill_ops),
            verdicts, nullptr, nullptr);
  emit("READY", JsonObject()
                    .integer("live_flows", static_cast<long long>(live.size()))
                    .dump());

  FedTally tally;
  FederationStats before{}, after{};
  bool correct = true;
  std::string why;
  auto fail = [&](const std::string& d) {
    correct = false;
    if (why.empty()) why = d;
  };
  std::vector<int> ports = args.ports;
  int exit_code = 0;
  for (std::string cmd = read_command(); !cmd.empty(); cmd = read_command()) {
    if (cmd == "quit") return exit_code;
    if (cmd == "go") {
      std::vector<double> lat_us;
      before = front.stats();
      std::uint64_t resends0 = 0;
      for (const auto& m : members) resends0 += m->transport_stats().resends;
      const double cpu0 = thread_cpu_s();
      const double gcpu0 = process_cpu_s();
      const double t0 = monotonic_s();
      fed_steps(front, stream, live, args.ops, verdicts, &tally, &lat_us);
      const double t1 = monotonic_s();
      const double cpu1 = thread_cpu_s();
      const double gcpu1 = process_cpu_s();
      after = front.stats();
      std::uint64_t resends1 = 0;
      for (const auto& m : members) resends1 += m->transport_stats().resends;
      const std::uint64_t failed =
          tally.release_failures + (after.poisoned_txns - before.poisoned_txns) +
          (after.ack_failures - before.ack_failures);
      JsonObject o = latency_json(lat_us);
      o.boolean("ok", true)
          .num("window_s", t1 - t0)
          .num("gen_cpu_s", gcpu1 - gcpu0)
          .num("coord_cpu_s", cpu1 - cpu0)
          .integer("attempted", static_cast<long long>(tally.attempted()))
          .integer("decisions", static_cast<long long>(tally.decisions()))
          .integer("failed", static_cast<long long>(failed))
          .integer("admit_requests", static_cast<long long>(tally.admit_requests))
          .integer("admits", static_cast<long long>(tally.admits))
          .integer("rejects", static_cast<long long>(tally.rejects))
          .integer("releases", static_cast<long long>(tally.releases))
          .integer("release_failures",
                   static_cast<long long>(tally.release_failures))
          .integer("prepares",
                   static_cast<long long>(after.prepares - before.prepares))
          .integer("prepare_failures",
                   static_cast<long long>(after.prepare_failures -
                                          before.prepare_failures))
          .integer("aborts", static_cast<long long>(after.aborts - before.aborts))
          .integer("inter_requests",
                   static_cast<long long>(after.inter_requests -
                                          before.inter_requests))
          .integer("client_resends",
                   static_cast<long long>(resends1 - resends0));
      emit("DONE", o.dump());
    } else if (cmd.rfind("probe", 0) == 0) {
      ports = parse_ports(cmd);
      probe(ports);
    } else if (cmd == "finish") {
      // Every acked flow must release; then every member must be empty,
      // and each member's live digest must equal a fresh broker replaying
      // exactly the sub-ops the coordinator sent it.
      std::uint64_t release_failed = 0;
      for (FlowId f : live) release_failed += front.release_service(f).is_ok() ? 0 : 1;
      live.clear();
      if (release_failed != 0) fail("releasing acked federated flows failed");
      if (tally.release_failures != 0) fail("releases failed in the measured run");
      const FederationStats st = front.stats();
      if (st.poisoned_txns != 0 || st.ack_failures != 0) {
        fail("poisoned 2PC transactions or failed acks");
      }
      if (tally.admits + tally.rejects != tally.admit_requests) {
        fail("admits + rejects != admit requests");
      }
      auto digests = front.digests();
      if (!digests.is_ok()) {
        fail("member digest probe failed");
      } else {
        for (int d = 0; d < cfg.domains; ++d) {
          const FederatedDigestReply& dig =
              digests.value()[static_cast<std::size_t>(d)];
          if (dig.live_flows != 0) {
            fail("member " + std::to_string(d) + " holds flows after release");
          }
          const MemberReplayReport rep = replay_member_ops(
              plan.members[static_cast<std::size_t>(d)], BrokerOptions{},
              front.member_ops(d));
          if (!rep.ok || rep.digest != dig.digest ||
              rep.live_flows != dig.live_flows) {
            fail("member " + std::to_string(d) + " digest replay audit: " +
                 rep.detail);
          }
        }
      }
      // The seeded verdict sequence must repeat exactly through an
      // in-process federation of fresh brokers.
      std::vector<std::unique_ptr<InProcessMember>> local;
      std::vector<FederationMember*> local_raw;
      for (int d = 0; d < cfg.domains; ++d) {
        local.push_back(std::make_unique<InProcessMember>(
            d, plan.members[static_cast<std::size_t>(d)], BrokerOptions{}));
        local_raw.push_back(local.back().get());
      }
      FederatedFront ref(plan, local_raw);
      FedStream ref_stream(cfg, args.seed);
      std::vector<FlowId> ref_live;
      std::vector<std::int8_t> ref_verdicts;
      fed_steps(ref, ref_stream, ref_live,
                static_cast<std::uint64_t>(verdicts.size()), ref_verdicts,
                nullptr, nullptr);
      if (ref_verdicts != verdicts) fail("verdict sequence differs from replay");
      std::uint64_t admits_total = 0;
      for (std::int8_t v : verdicts) admits_total += v == 1 ? 1 : 0;
      emit("CHECK", JsonObject()
                        .boolean("correct", correct)
                        .str("detail", why)
                        .integer("verdict_admits",
                                 static_cast<long long>(admits_total))
                        .integer("verdict_ops",
                                 static_cast<long long>(verdicts.size()))
                        .dump());
      exit_code = correct ? 0 : 1;
    } else {
      std::fprintf(stderr, "bbperf: unknown command '%s'\n", cmd.c_str());
      return 2;
    }
  }
  return 1;
}

}  // namespace

int run_timed(const RunArgs& args) {
  return args.workload == Workload::kFederated2pc ? run_federated(args)
                                                  : run_churn(args);
}

}  // namespace perfbench
