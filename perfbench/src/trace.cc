// Trace mode: the per-layer breakdown. Replays the workload's seeded op
// stream through the layers' public functions, timed from outside:
//
//   net            FrameDecoder::feed/next + wire decode; reply encode +
//                  framing (frame_net_message)
//   core.front     ConcurrentBrokerFront::submit_batch / release_service
//   core.admission ConcurrentBrokerFront::request_service / release_service,
//                  one request at a time (a separate pass; it is nested
//                  inside core.front on the server path)
//   core.durable   DurableBroker::request_service_batch / release_service /
//                  open, self time excluding the journal appends
//   core.journal   JournalFile::append through TimedJournalFile
//   federation     FederatedFront::request_service / release_service, self
//                  time excluding member calls; member calls through
//                  TimedMember over live SocketMembers
//
// The "on-path" layers are the ones the workload's server executes for
// every decision; their self times add up to trace.self_us_per_decision,
// which run.py sets beside the timed cpu_us_per_decision. A layer the
// workload never enters reports zero calls and zero time.

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bbperf.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/wire.h"
#include "decorators.h"
#include "federation/federated_front.h"
#include "federation/member.h"
#include "net/framing.h"
#include "net/server.h"
#include "stats.h"

namespace perfbench {

using namespace qosbb;

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One layer boundary: calls, items (requests inside batched calls), total
/// time, and the part of it spent in child spans (self = total - nested).
struct Span {
  bool on_path = false;
  std::uint64_t calls = 0;
  std::uint64_t items = 0;
  std::uint64_t failures = 0;
  double total_s = 0.0;
  double nested_s = 0.0;

  double self_s() const { return total_s - nested_s; }
  double us_per_item() const {
    return items == 0 ? 0.0 : 1e6 * total_s / static_cast<double>(items);
  }
  double self_us_per_item() const {
    return items == 0 ? 0.0 : 1e6 * self_s() / static_cast<double>(items);
  }
};

class Trace {
 public:
  bool recording = false;

  Span& span(const std::string& name, bool on_path) {
    Span& s = spans_[name];
    s.on_path = on_path;
    return s;
  }
  void add(const std::string& name, bool on_path, double seconds,
           std::uint64_t items, double nested_s = 0.0, bool failed = false) {
    if (!recording) return;
    Span& s = span(name, on_path);
    ++s.calls;
    s.items += items;
    s.total_s += seconds;
    s.nested_s += nested_s;
    if (failed) ++s.failures;
  }
  const Span* find(const std::string& name) const {
    auto it = spans_.find(name);
    return it == spans_.end() ? nullptr : &it->second;
  }
  double on_path_self_s() const {
    double s = 0.0;
    for (const auto& [name, sp] : spans_) s += sp.on_path ? sp.self_s() : 0.0;
    return s;
  }
  void print(std::uint64_t decisions) const {
    std::fprintf(stderr,
                 "bbperf trace: %-26s %5s %10s %10s %10s %10s %8s\n", "layer",
                 "path", "calls", "items", "total_ms", "self_ms",
                 "self_us/d");
    for (const auto& [name, s] : spans_) {
      std::fprintf(stderr,
                   "bbperf trace: %-26s %5s %10llu %10llu %10.2f %10.2f %8.3f"
                   "%s\n",
                   name.c_str(), s.on_path ? "yes" : "no",
                   static_cast<unsigned long long>(s.calls),
                   static_cast<unsigned long long>(s.items), 1e3 * s.total_s,
                   1e3 * s.self_s(),
                   decisions == 0 ? 0.0
                                  : 1e6 * s.self_s() /
                                        static_cast<double>(decisions),
                   s.failures == 0
                       ? ""
                       : (" failures=" + std::to_string(s.failures)).c_str());
    }
  }

 private:
  std::map<std::string, Span> spans_;
};

struct Verdict {
  bool admitted = false;
  Reservation reservation;  ///< admitted: what the server would send back
  RejectReason reason = RejectReason::kNone;
};

/// Server-side dispatch over the in-memory front; optionally records the
/// executed ops in library order for run_differential_check.
struct FrontDispatch {
  ConcurrentBrokerFront& front;
  Trace& trace;
  bool on_path;
  std::vector<RecordedOp>* record = nullptr;

  std::vector<Verdict> admit(std::span<const FlowServiceRequest> reqs,
                             std::span<const RequestId>) {
    const auto t0 = Clock::now();
    std::vector<FrontOutcome> outs = front.submit_batch(reqs);
    trace.add("core.front.batch", on_path, since(t0), reqs.size());
    std::vector<Verdict> v(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
      v[i].admitted = outs[i].result.is_ok();
      if (v[i].admitted) v[i].reservation = outs[i].result.value();
      v[i].reason = outs[i].outcome.reason;
    }
    if (record != nullptr) {
      for (std::size_t idx : batch_grouped_order(reqs)) {
        RecordedOp op;
        op.kind = RecordedOp::Kind::kAdmit;
        op.request = reqs[idx];
        op.admitted = v[idx].admitted;
        op.assigned_flow = v[idx].reservation.flow;
        record->push_back(std::move(op));
      }
    }
    return v;
  }
  bool release(FlowId flow, RequestId) {
    const auto t0 = Clock::now();
    const bool ok = front.release_service(flow).is_ok();
    trace.add("core.front.release", on_path, since(t0), 1, 0.0, !ok);
    if (record != nullptr && ok) {
      RecordedOp op;
      op.kind = RecordedOp::Kind::kRelease;
      op.flow = flow;
      record->push_back(std::move(op));
    }
    return ok;
  }
};

/// One request at a time through the front (the admission layer alone).
struct SingleDispatch {
  ConcurrentBrokerFront& front;
  Trace& trace;

  std::vector<Verdict> admit(std::span<const FlowServiceRequest> reqs,
                             std::span<const RequestId>) {
    std::vector<Verdict> v(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      const auto t0 = Clock::now();
      FrontOutcome out = front.request_service(reqs[i]);
      trace.add("core.admission.request", false, since(t0), 1);
      v[i].admitted = out.result.is_ok();
      if (v[i].admitted) v[i].reservation = out.result.value();
    }
    return v;
  }
  bool release(FlowId flow, RequestId) {
    const auto t0 = Clock::now();
    const bool ok = front.release_service(flow).is_ok();
    trace.add("core.admission.release", false, since(t0), 1, 0.0, !ok);
    return ok;
  }
};

/// Server-side dispatch over the journaled broker. Journal appends made
/// inside a durable call are that call's child span.
struct DurableDispatch {
  DurableBroker& durable;
  TimedJournalFile& journal;
  Trace& trace;

  template <typename F>
  auto durable_call(const char* span, std::uint64_t items, F&& fn) {
    const std::uint64_t n0 = journal.appends().calls;
    const std::uint64_t b0 = journal.bytes_appended();
    const double a0 = journal.appends().total_s;
    const auto t0 = Clock::now();
    auto result = fn();
    const double took = since(t0);
    const double appending = journal.appends().total_s - a0;
    trace.add(span, true, took, items, appending);
    trace.add("core.journal.append", true, appending,
              journal.appends().calls - n0);
    if (trace.recording) bytes += journal.bytes_appended() - b0;
    return result;
  }

  std::vector<Verdict> admit(std::span<const FlowServiceRequest> reqs,
                             std::span<const RequestId> rids) {
    std::vector<Result<Reservation>> res =
        durable_call("core.durable.batch", reqs.size(), [&] {
          return durable.request_service_batch(rids, reqs, 0.0);
        });
    std::vector<Verdict> v(res.size());
    for (std::size_t i = 0; i < res.size(); ++i) {
      v[i].admitted = res[i].is_ok();
      if (v[i].admitted) v[i].reservation = res[i].value();
    }
    return v;
  }
  bool release(FlowId flow, RequestId rid) {
    return durable_call("core.durable.release", 1, [&] {
      return durable.release_service(rid, flow);
    }).is_ok();
  }

  std::uint64_t bytes = 0;  ///< journal bytes appended while recording
};

struct PassResult {
  std::uint64_t decisions = 0;
  std::uint64_t admit_requests = 0;
  std::uint64_t admits = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t reply_bytes = 0;
  /// Per connection, by op index: 1 admitted, 0 rejected, 2 torn down.
  std::vector<std::vector<std::int8_t>> verdicts;
  bool ok = true;
  std::string detail;
};

/// Replays the churn stream: per connection, a window of ops at a time is
/// encoded (client side, untimed), decoded and dispatched (server side),
/// and answered. `codec` times the decode and reply-encode spans.
/// `measured_ops` counts ops after the prefill; `limit_ops` (if non-zero)
/// stops the whole pass early.
template <typename Dispatch>
PassResult churn_pass(const ChurnConfig& cfg, std::uint64_t seed,
                      std::uint64_t measured_ops, std::size_t batch_cap,
                      bool codec, Trace& trace, Dispatch& dispatch,
                      std::uint64_t limit_ops = 0) {
  PassResult r;
  const std::uint64_t per_conn =
      (measured_ops + static_cast<std::uint64_t>(cfg.connections) - 1) /
      static_cast<std::uint64_t>(cfg.connections);
  std::uint64_t total = static_cast<std::uint64_t>(cfg.prefill_ops_per_conn) + per_conn;
  if (limit_ops != 0) total = std::min(total, limit_ops);
  std::vector<std::unique_ptr<ConnStream>> streams;
  std::vector<std::vector<FlowId>> flows;
  for (int c = 0; c < cfg.connections; ++c) {
    streams.push_back(std::make_unique<ConnStream>(cfg, c, seed));
    flows.emplace_back(total, kInvalidFlowId);
  }
  r.verdicts.assign(static_cast<std::size_t>(cfg.connections), {});
  const bool saved = trace.recording;
  double cpu0 = 0.0;
  Clock::time_point wall0;
  auto start_measuring = [&] {
    trace.recording = saved;
    cpu0 = thread_cpu_s();
    wall0 = Clock::now();
  };
  trace.recording = false;
  bool measuring = false;

  FrameDecoder decoder;
  std::vector<ChurnOp> ops;
  std::vector<FlowServiceRequest> reqs;
  std::vector<RequestId> rids;
  std::vector<std::size_t> run_index;
  std::vector<Verdict> verdicts;
  while (true) {
    bool progressed = false;
    for (int c = 0; c < cfg.connections; ++c) {
      ConnStream& stream = *streams[static_cast<std::size_t>(c)];
      std::vector<FlowId>& flow_of = flows[static_cast<std::size_t>(c)];
      const std::uint64_t base = stream.issued();
      if (base >= total) continue;
      if (!measuring &&
          base >= static_cast<std::uint64_t>(cfg.prefill_ops_per_conn)) {
        measuring = true;
        start_measuring();
      }
      progressed = true;
      const std::uint64_t n = std::min<std::uint64_t>(
          static_cast<std::uint64_t>(cfg.window), total - base);
      // Client: generate and frame a window of ops (untimed).
      ops.clear();
      WireBuffer bytes;
      for (std::uint64_t k = 0; k < n; ++k) {
        ops.push_back(stream.next());
        const ChurnOp& op = ops.back();
        const WireBuffer msg =
            op.admit ? encode(op.request, op.rid)
                     : encode(TeardownRequest{flow_of[op.target], op.rid});
        const WireBuffer frame = frame_net_message(msg);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
      }
      // Server: decode every frame of the read.
      std::vector<FlowServiceRequest> decoded(n);
      std::vector<TeardownRequest> torn(n);
      std::vector<RequestId> decoded_rid(n);
      const auto d0 = Clock::now();
      decoder.feed(bytes.data(), bytes.size());
      for (std::uint64_t k = 0; k < n; ++k) {
        auto frame = decoder.next();
        bool good = frame.is_ok();
        if (good && ops[k].admit) {
          auto req = decode_flow_service_request(frame.value(), &decoded_rid[k]);
          good = req.is_ok();
          if (good) decoded[k] = std::move(req).value();
        } else if (good) {
          auto td = decode_teardown_request(frame.value());
          good = td.is_ok();
          if (good) torn[k] = td.value();
        }
        if (!good) {
          r.ok = false;
          r.detail = "trace: a captured frame failed to decode";
          return r;
        }
      }
      if (codec) trace.add("net.decode", true, since(d0), n);
      // Server: dispatch admit runs as batches, teardowns one by one.
      std::vector<Verdict> out(n);
      std::uint64_t k = 0;
      while (k < n) {
        if (!ops[k].admit) {
          out[k].admitted = dispatch.release(torn[k].flow, torn[k].rid);
          if (!out[k].admitted) {
            r.ok = false;
            r.detail = "trace: teardown of an acked flow failed";
          }
          if (out[k].admitted) flow_of[ops[k].target] = kInvalidFlowId;
          ++k;
          continue;
        }
        reqs.clear();
        rids.clear();
        run_index.clear();
        while (k < n && ops[k].admit && reqs.size() < batch_cap) {
          reqs.push_back(decoded[k]);
          rids.push_back(decoded_rid[k]);
          run_index.push_back(k);
          ++k;
        }
        verdicts = dispatch.admit(reqs, rids);
        for (std::size_t j = 0; j < run_index.size(); ++j) {
          out[run_index[j]] = verdicts[j];
        }
      }
      // Server: encode and frame every reply (the byte count keeps the
      // work observable to the optimiser).
      const auto e0 = Clock::now();
      for (std::uint64_t j = 0; j < n; ++j) {
        WireBuffer msg;
        if (!ops[j].admit) {
          msg = encode(RejectReply{RejectReason::kNone, "torn-down"});
        } else if (out[j].admitted) {
          msg = encode(out[j].reservation);
        } else {
          msg = encode(RejectReply{out[j].reason, "rejected"});
        }
        r.reply_bytes += frame_net_message(msg).size();
      }
      if (codec) trace.add("net.encode", true, since(e0), n);
      // Client: verdicts feed the stream.
      std::vector<std::int8_t>& seen = r.verdicts[static_cast<std::size_t>(c)];
      for (std::uint64_t j = 0; j < n; ++j) {
        if (!ops[j].admit) {
          seen.push_back(2);
          if (measuring) ++r.decisions;
          continue;
        }
        seen.push_back(out[j].admitted ? 1 : 0);
        if (out[j].admitted) flow_of[base + j] = out[j].reservation.flow;
        stream.on_verdict(base + j, out[j].admitted);
        if (measuring) {
          ++r.decisions;
          ++r.admit_requests;
          r.admits += out[j].admitted ? 1 : 0;
        }
      }
    }
    if (!progressed) break;
  }
  r.wall_s = std::chrono::duration<double>(Clock::now() - wall0).count();
  r.cpu_s = thread_cpu_s() - cpu0;
  trace.recording = saved;
  return r;
}

void provision_front(ConcurrentBrokerFront& front, int pairs,
                     std::vector<RecordedOp>* record) {
  for (int k = 0; k < pairs; ++k) {
    const std::string in = "I" + std::to_string(k);
    const std::string out = "E" + std::to_string(k);
    (void)front.exclusive(
        [&](BandwidthBroker& bb) { return bb.provision_path(in, out); });
    if (record != nullptr) {
      RecordedOp op;
      op.kind = RecordedOp::Kind::kProvision;
      op.ingress = in;
      op.egress = out;
      record->push_back(std::move(op));
    }
  }
}

struct Metrics {
  JsonObject layers;
  void put(const std::string& name, double value, const char* unit) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "[%.17g, \"%s\"]", value, unit);
    layers.raw(name, buf);
  }
};

double ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

double p50_us(const CallStats& s) {
  std::vector<double> v = s.samples_us;
  return v.empty() ? 0.0 : percentile(v, 50.0).value;
}

struct TraceResult {
  PassResult path;  ///< the on-path pass
  double self_s = 0.0;
  Metrics metrics;
};

void front_metrics(Trace& tr, const ConcurrentBrokerFront* front,
                   std::uint64_t front_requests, Metrics& m) {
  const Span* batch = tr.find("core.front.batch");
  const Span* rel = tr.find("core.front.release");
  const Span* adm = tr.find("core.admission.request");
  const Span* adm_rel = tr.find("core.admission.release");
  m.put("core.front.batch_us_per_request", batch ? batch->us_per_item() : 0.0, "us");
  m.put("core.front.release_us", rel ? rel->us_per_item() : 0.0, "us");
  double conflicts = 0.0, agree = 0.0;
  if (front != nullptr) {
    conflicts = 1000.0 * ratio(static_cast<double>(front->occ_conflicts()),
                               static_cast<double>(front_requests));
    const auto pf = front->prefilter_stats();
    agree = ratio(static_cast<double>(pf.agreed), static_cast<double>(pf.checked));
  }
  m.put("core.front.occ_conflicts_per_1k", conflicts, "count");
  m.put("core.front.prefilter_agree_share", agree, "share");
  m.put("core.admission.request_us", adm ? adm->us_per_item() : 0.0, "us");
  m.put("core.admission.release_us", adm_rel ? adm_rel->us_per_item() : 0.0, "us");
}

void codec_metrics(Trace& tr, Metrics& m) {
  const Span* dec = tr.find("net.decode");
  const Span* enc = tr.find("net.encode");
  m.put("net.frame_decode_ns", dec ? 1e3 * dec->us_per_item() : 0.0, "ns");
  m.put("net.reply_encode_ns", enc ? 1e3 * enc->us_per_item() : 0.0, "ns");
}

void zero_metrics(Metrics& m, const std::vector<const char*>& names,
                  const char* unit) {
  for (const char* n : names) m.put(n, 0.0, unit);
}

/// The front pass (and, when `on_path`, the server's own path).
PassResult run_front_pass(const ChurnConfig& cfg, const RunArgs& args,
                          std::size_t cap, bool on_path, Trace& tr,
                          std::uint64_t* requests,
                          std::unique_ptr<BandwidthBroker>* bb_out,
                          std::unique_ptr<ConcurrentBrokerFront>* front_out) {
  const DomainSpec spec = dumbbell_topology(churn_topology_options(cfg));
  *bb_out = std::make_unique<BandwidthBroker>(spec);
  *front_out = std::make_unique<ConcurrentBrokerFront>(**bb_out, 1);
  provision_front(**front_out, cfg.pairs(), nullptr);
  FrontDispatch fd{**front_out, tr, on_path};
  PassResult r = churn_pass(cfg, args.seed, args.ops, cap, on_path, tr, fd);
  *requests = r.admit_requests;
  return r;
}

/// Unbatched admission pass over the same stream.
PassResult run_admission_pass(const ChurnConfig& cfg, const RunArgs& args,
                              Trace& tr) {
  const DomainSpec spec = dumbbell_topology(churn_topology_options(cfg));
  BandwidthBroker bb(spec);
  ConcurrentBrokerFront front(bb, 1);
  provision_front(front, cfg.pairs(), nullptr);
  SingleDispatch sd{front, tr};
  return churn_pass(cfg, args.seed, args.ops, 1, false, tr, sd);
}

/// The library differential over a prefix of the stream: a recorded front
/// pass replayed by run_differential_check through a fresh front.
bool differential_prefix(const ChurnConfig& cfg, const RunArgs& args,
                         std::string* detail) {
  const DomainSpec spec = dumbbell_topology(churn_topology_options(cfg));
  BandwidthBroker bb(spec);
  ConcurrentBrokerFront front(bb, 1);
  std::vector<RecordedOp> ops;
  provision_front(front, cfg.pairs(), &ops);
  Trace untimed;  // never recording
  FrontDispatch fd{front, untimed, false, &ops};
  const std::uint64_t prefix =
      static_cast<std::uint64_t>(cfg.prefill_ops_per_conn) + 20000;
  PassResult r = churn_pass(cfg, args.seed, args.ops, 64, false, untimed, fd,
                            prefix);
  if (!r.ok) {
    *detail = r.detail;
    return false;
  }
  const DifferentialReport rep = run_differential_check(spec, BrokerOptions{}, ops, bb);
  if (!rep.ok) *detail = "library differential: " + rep.detail;
  return rep.ok;
}

bool trace_churn(const RunArgs& args, Trace& tr, TraceResult* out,
                 std::string* detail) {
  const ChurnConfig cfg = churn_config(args.workload);
  const std::size_t cap = static_cast<std::size_t>(
      std::max(1.0, std::round(args.requests_per_batch)));
  Metrics& m = out->metrics;
  tr.recording = true;
  std::unique_ptr<BandwidthBroker> bb;
  std::unique_ptr<ConcurrentBrokerFront> front;
  std::uint64_t front_requests = 0;
  if (args.workload != Workload::kJournaledChurn) {
    out->path = run_front_pass(cfg, args, cap, true, tr, &front_requests, &bb,
                               &front);
    if (!out->path.ok) return false;
    zero_metrics(m, {"core.journal.append_us", "core.durable.batch_self_us_per_request",
                     "core.durable.replay_us_per_record"}, "us");
    zero_metrics(m, {"core.journal.appends_per_decision"}, "count");
    zero_metrics(m, {"core.journal.bytes_per_decision"}, "B");
  } else {
    // Server path: DurableBroker over a timed file journal.
    const DomainSpec spec = dumbbell_topology(churn_topology_options(cfg));
    const std::string path = args.scratch + "/trace.journal";
    std::remove(path.c_str());
    FsJournalFile file(path);
    TimedJournalFile journal(file);
    auto opened = DurableBroker::open(spec, BrokerOptions{}, journal);
    if (!opened.is_ok()) {
      *detail = "trace: journal open failed";
      return false;
    }
    std::unique_ptr<DurableBroker> durable = std::move(opened).value();
    for (int k = 0; k < cfg.pairs(); ++k) {
      (void)durable->provision_path(kNoRequestId, "I" + std::to_string(k),
                                    "E" + std::to_string(k));
    }
    DurableDispatch dd{*durable, journal, tr};
    out->path = churn_pass(cfg, args.seed, args.ops, cap, true, tr, dd);
    if (!out->path.ok) return false;
    const Span* batch = tr.find("core.durable.batch");
    const Span* js = tr.find("core.journal.append");
    const double decisions = static_cast<double>(out->path.decisions);
    const double appends = js ? static_cast<double>(js->items) : 0.0;
    m.put("core.journal.append_us", js ? js->us_per_item() : 0.0, "us");
    m.put("core.journal.appends_per_decision", ratio(appends, decisions), "count");
    m.put("core.journal.bytes_per_decision",
          ratio(static_cast<double>(dd.bytes), decisions), "B");
    m.put("core.durable.batch_self_us_per_request",
          batch ? batch->self_us_per_item() : 0.0, "us");
    // Recovery: DurableBroker::open over the journal just written, which
    // must rebuild the identical broker state.
    FsJournalFile again(path);
    const auto t0 = Clock::now();
    auto reopened = DurableBroker::open(spec, BrokerOptions{}, again);
    const double open_s = since(t0);
    tr.add("core.durable.replay", false, open_s,
           reopened.is_ok() ? reopened.value()->stats().replayed : 0);
    if (!reopened.is_ok()) {
      *detail = "trace: journal recovery failed: " + reopened.status().to_string();
      return false;
    }
    auto live = broker_state_digest(durable->broker());
    auto rec = broker_state_digest(reopened.value()->broker());
    if (!live.is_ok() || !rec.is_ok() || live.value() != rec.value()) {
      *detail = "trace: recovered journal state differs from the live broker";
      return false;
    }
    m.put("core.durable.replay_us_per_record",
          tr.find("core.durable.replay")->us_per_item(), "us");
    reopened = Status::internal("released");
    std::remove(path.c_str());
    // The front is off this workload's path: measured for comparison only.
    PassResult fr = run_front_pass(cfg, args, cap, false, tr, &front_requests,
                                   &bb, &front);
    if (!fr.ok) {
      *detail = fr.detail;
      return false;
    }
  }
  codec_metrics(tr, m);
  PassResult ar = run_admission_pass(cfg, args, tr);
  if (!ar.ok) {
    *detail = ar.detail;
    return false;
  }
  if (ar.verdicts != out->path.verdicts) {
    *detail = "trace: unbatched admission pass reached different verdicts";
    return false;
  }
  front_metrics(tr, front.get(), front_requests, m);
  zero_metrics(m, {"net.client_resends", "federation.member_calls_per_decision"},
               "count");
  zero_metrics(m, {"federation.prepare_us", "federation.commit_us",
                   "federation.intra_admit_us", "federation.coord_self_us"},
               "us");
  zero_metrics(m, {"federation.prepare_fail_share", "federation.abort_share"},
               "share");
  tr.recording = false;
  // The library differential snapshots both brokers. On edf-mixed the
  // broker's own snapshot self-check refuses (see perfbench/README.md,
  // "Known defect"), so it runs on the rate-based in-memory stream only.
  if (args.workload == Workload::kInmemChurn &&
      !differential_prefix(cfg, args, detail)) {
    return false;
  }
  out->self_s = tr.on_path_self_s();
  return true;
}

bool trace_federated(const RunArgs& args, Trace& tr, TraceResult* out,
                     std::string* detail) {
  const FedConfig cfg = fed_config();
  if (static_cast<int>(args.ports.size()) != cfg.domains) {
    *detail = "trace: federated-2pc needs the member ports";
    return false;
  }
  const FederationPlan plan = fed_plan(cfg);
  std::vector<std::unique_ptr<SocketMember>> sockets;
  std::vector<std::unique_ptr<TimedMember>> timed;
  std::vector<FederationMember*> raw;
  for (int d = 0; d < cfg.domains; ++d) {
    RetryingClientOptions opt;
    opt.port = static_cast<std::uint16_t>(args.ports[static_cast<std::size_t>(d)]);
    opt.reply_timeout_ms = 5000;
    opt.max_attempts = 4;
    opt.rng_seed = args.seed + static_cast<std::uint64_t>(d);
    sockets.push_back(std::make_unique<SocketMember>(d, opt));
    timed.push_back(std::make_unique<TimedMember>(*sockets.back()));
    raw.push_back(timed.back().get());
  }
  FederatedFront front(plan, raw);
  FedStream stream(cfg, args.seed);
  std::vector<FlowId> live;
  PassResult& r = out->path;
  double member_s0 = 0.0;
  std::uint64_t calls0 = 0;
  FederationStats st0{};
  double cpu0 = 0.0;
  Clock::time_point wall0;
  const std::uint64_t total = static_cast<std::uint64_t>(cfg.prefill_ops) + args.ops;
  for (std::uint64_t i = 0; i < total; ++i) {
    if (i == static_cast<std::uint64_t>(cfg.prefill_ops)) {
      tr.recording = true;
      for (auto& t : timed) {
        member_s0 += t->op_seconds();
        calls0 += t->op_calls();
      }
      st0 = front.stats();
      cpu0 = thread_cpu_s();
      wall0 = Clock::now();
      for (auto& t : timed) t->clear_samples();  // measured part only
    }
    const FedOp op = stream.next(live.size());
    double before = 0.0;
    for (auto& t : timed) before += t->op_seconds();
    const auto t0 = Clock::now();
    bool ok = true;
    if (op.admit) {
      const FederatedOutcome o = front.request_service(op.request);
      if (o.result.is_ok()) live.push_back(o.result.value().flow);
      if (tr.recording) {
        ++r.admit_requests;
        r.admits += o.result.is_ok() ? 1 : 0;
      }
    } else {
      const FlowId flow = live[op.live_index];
      live[op.live_index] = live.back();
      live.pop_back();
      ok = front.release_service(flow).is_ok();
    }
    const double took = since(t0);
    double after = 0.0;
    for (auto& t : timed) after += t->op_seconds();
    tr.add(op.admit ? "federation.request" : "federation.release", true, took,
           1, after - before, !ok);
    if (tr.recording && ok) ++r.decisions;
    if (!ok) {
      *detail = "trace: federated release failed";
      return false;
    }
  }
  r.wall_s = since(wall0);
  r.cpu_s = thread_cpu_s() - cpu0;
  tr.recording = false;
  for (FlowId f : live) (void)front.release_service(f);

  double member_s = -member_s0;
  std::uint64_t calls = 0;
  CallStats prepares, commits, admits;
  std::uint64_t resends = 0;
  for (auto& t : timed) {
    member_s += t->op_seconds();
    calls += t->op_calls();
    prepares.samples_us.insert(prepares.samples_us.end(),
                               t->prepares().samples_us.begin(),
                               t->prepares().samples_us.end());
    commits.samples_us.insert(commits.samples_us.end(),
                              t->commits().samples_us.begin(),
                              t->commits().samples_us.end());
    admits.samples_us.insert(admits.samples_us.end(),
                             t->admits().samples_us.begin(),
                             t->admits().samples_us.end());
  }
  for (auto& s : sockets) resends += s->transport_stats().resends;
  calls -= calls0;
  Span& ms = tr.span("federation.member_calls", true);
  ms.calls = calls;
  ms.items = calls;
  ms.total_s = member_s;
  const FederationStats st = front.stats();
  const double decisions = static_cast<double>(r.decisions);
  const Span* req = tr.find("federation.request");
  const Span* rel = tr.find("federation.release");
  const double coord_self =
      (req ? req->self_s() : 0.0) + (rel ? rel->self_s() : 0.0);
  Metrics& m = out->metrics;
  m.put("net.client_resends", static_cast<double>(resends), "count");
  m.put("federation.member_calls_per_decision",
        ratio(static_cast<double>(calls), decisions), "count");
  m.put("federation.prepare_us", p50_us(prepares), "us");
  m.put("federation.commit_us", p50_us(commits), "us");
  m.put("federation.intra_admit_us", p50_us(admits), "us");
  m.put("federation.coord_self_us", 1e6 * ratio(coord_self, decisions), "us");
  const double prepares_n = static_cast<double>(st.prepares - st0.prepares);
  m.put("federation.prepare_fail_share",
        ratio(static_cast<double>(st.prepare_failures - st0.prepare_failures),
              prepares_n),
        "share");
  m.put("federation.abort_share",
        ratio(static_cast<double>(st.aborts - st0.aborts),
              static_cast<double>(st.inter_requests - st0.inter_requests)),
        "share");
  zero_metrics(m, {"net.frame_decode_ns", "net.reply_encode_ns"}, "ns");
  zero_metrics(m, {"core.front.batch_us_per_request", "core.front.release_us",
                   "core.admission.request_us", "core.admission.release_us",
                   "core.journal.append_us",
                   "core.durable.batch_self_us_per_request",
                   "core.durable.replay_us_per_record"},
               "us");
  zero_metrics(m, {"core.front.occ_conflicts_per_1k",
                   "core.journal.appends_per_decision"},
               "count");
  zero_metrics(m, {"core.journal.bytes_per_decision"}, "B");
  zero_metrics(m, {"core.front.prefilter_agree_share"}, "share");
  out->self_s = tr.on_path_self_s();
  return true;
}

}  // namespace

int run_trace(const RunArgs& args) {
  emit("READY", "{}");
  for (std::string cmd = read_command(); !cmd.empty(); cmd = read_command()) {
    if (cmd == "quit") return 0;
    if (cmd != "go") {
      std::fprintf(stderr, "bbperf trace: unknown command '%s'\n", cmd.c_str());
      return 2;
    }
    Trace tr;
    TraceResult res;
    std::string detail;
    const bool ok = args.workload == Workload::kFederated2pc
                        ? trace_federated(args, tr, &res, &detail)
                        : trace_churn(args, tr, &res, &detail);
    if (!ok && detail.empty()) detail = res.path.detail;
    tr.print(res.path.decisions);
    const double decisions = static_cast<double>(res.path.decisions);
    emit("DONE", JsonObject()
                     .boolean("correct", ok)
                     .str("detail", detail)
                     .integer("decisions", static_cast<long long>(res.path.decisions))
                     .num("window_s", res.path.wall_s)
                     .num("cpu_s", res.path.cpu_s)
                     .num("self_us_per_decision",
                          decisions > 0 ? 1e6 * res.self_s / decisions : 0.0)
                     .raw("layers", res.metrics.layers.dump())
                     .dump());
  }
  return 1;
}

}  // namespace perfbench
