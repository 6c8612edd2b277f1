#include "core/durable_broker.h"

#include <algorithm>
#include <string>
#include <utility>

namespace qosbb {
namespace {

// Payload layout per record: [u64 rid] request-fields outcome-fields (rid
// omitted for internal events). The outcome encoders below produce the byte
// images that recovery re-derives and compares.

void put_profile(WireWriter& w, const TrafficProfile& p) {
  w.f64(p.sigma);
  w.f64(p.rho);
  w.f64(p.peak);
  w.f64(p.l_max);
}

Result<TrafficProfile> get_profile(WireReader& r) {
  auto sigma = r.f64();
  auto rho = r.f64();
  auto peak = r.f64();
  auto l_max = r.f64();
  for (const Status& s : {sigma.status(), rho.status(), peak.status(),
                          l_max.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!(l_max.value() > 0.0) || sigma.value() < l_max.value() ||
      !(rho.value() > 0.0) || peak.value() < rho.value()) {
    return Status::invalid_argument("corrupt traffic profile");
  }
  return TrafficProfile::make(sigma.value(), rho.value(), peak.value(),
                              l_max.value());
}

Result<StatusCode> get_status_code(WireReader& r) {
  auto c = r.u8();
  if (!c.is_ok()) return c.status();
  if (c.value() > static_cast<std::uint8_t>(StatusCode::kDataLoss)) {
    return Status::invalid_argument("unknown status code");
  }
  return static_cast<StatusCode>(c.value());
}

/// Admit request fields after the rid (kAdmit payload; replay_record
/// decodes them in this order).
void put_admit_request(WireWriter& w, const FlowServiceRequest& request,
                       Seconds now) {
  put_profile(w, request.profile);
  w.f64(request.e2e_delay_req);
  w.i64(request.priority);
  w.str(request.ingress);
  w.str(request.egress);
  w.f64(now);
}

/// execute_batch's result for a release member.
Result<Reservation> release_result(const Status& s, FlowId flow) {
  if (!s.is_ok()) return s;
  Reservation r;
  r.flow = flow;
  return r;
}

/// A rid reused by an operation of another kind: a client bug.
Status rid_reuse_error(RequestId rid, JournalOpKind recorded,
                       JournalOpKind kind) {
  return Status::invalid_argument(
      "request id " + std::to_string(rid) + " reused across operations (" +
      journal_op_kind_name(recorded) + " vs " + journal_op_kind_name(kind) +
      ")");
}

/// Status returned to a duplicate delivery whose original decision was an
/// error: same code, new message (Status equality compares codes only).
Status replayed_error(StatusCode code, const char* what) {
  return Status(code, std::string("duplicate ") + what +
                          ": original decision replayed");
}

// ---- per-kind outcome encoders (shared by live path and replay) ----

WireBuffer encode_reservation_outcome(const Result<Reservation>& res,
                                      const AdmissionOutcome& last) {
  WireWriter w;
  if (res.is_ok()) {
    w.u8(1);
    w.i64(res.value().flow);
    w.i64(res.value().path);
    w.f64(res.value().params.rate);
    w.f64(res.value().params.delay);
    w.f64(res.value().e2e_bound);
    w.u32(static_cast<std::uint32_t>(res.value().preempted.size()));
    for (FlowId id : res.value().preempted) w.i64(id);
  } else {
    w.u8(0);
    w.u8(static_cast<std::uint8_t>(res.status().code()));
    w.u8(static_cast<std::uint8_t>(last.reason));
  }
  return w.take();
}

Result<Reservation> decode_reservation_outcome(const WireBuffer& bytes,
                                               const char* what) {
  WireReader r(bytes);
  auto admitted = r.u8();
  if (!admitted.is_ok()) return admitted.status();
  if (admitted.value() == 0) {
    auto code = get_status_code(r);
    if (!code.is_ok()) return code.status();
    return replayed_error(code.value(), what);
  }
  Reservation out;
  auto flow = r.i64();
  auto path = r.i64();
  auto rate = r.f64();
  auto delay = r.f64();
  auto bound = r.f64();
  auto npre = r.u32();
  for (const Status& s : {flow.status(), path.status(), rate.status(),
                          delay.status(), bound.status(), npre.status()}) {
    if (!s.is_ok()) return s;
  }
  out.flow = flow.value();
  out.path = path.value();
  out.params = RateDelayPair{rate.value(), delay.value()};
  out.e2e_bound = bound.value();
  out.preempted.reserve(npre.value());
  for (std::uint32_t i = 0; i < npre.value(); ++i) {
    auto id = r.i64();
    if (!id.is_ok()) return id.status();
    out.preempted.push_back(id.value());
  }
  return out;
}

WireBuffer encode_status_outcome(const Status& s) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(s.code()));
  return w.take();
}

Status decode_status_outcome(const WireBuffer& bytes, const char* what) {
  WireReader r(bytes);
  auto code = get_status_code(r);
  if (!code.is_ok()) return code.status();
  if (code.value() == StatusCode::kOk) return Status::ok();
  return replayed_error(code.value(), what);
}

WireBuffer encode_path_outcome(const Result<PathId>& res) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(res.status().code()));
  if (res.is_ok()) w.i64(res.value());
  return w.take();
}

Result<PathId> decode_path_outcome(const WireBuffer& bytes) {
  WireReader r(bytes);
  auto code = get_status_code(r);
  if (!code.is_ok()) return code.status();
  if (code.value() != StatusCode::kOk) {
    return replayed_error(code.value(), "provision");
  }
  auto path = r.i64();
  if (!path.is_ok()) return path.status();
  return path.value();
}

WireBuffer encode_class_outcome(ClassId cls) {
  WireWriter w;
  w.i64(cls);
  return w.take();
}

WireBuffer encode_join_outcome(const JoinResult& j) {
  WireWriter w;
  w.u8(j.admitted ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(j.reason));
  w.i64(j.microflow);
  w.i64(j.macroflow);
  w.u8(j.new_macroflow ? 1 : 0);
  w.f64(j.base_rate);
  w.f64(j.contingency);
  w.i64(j.grant);
  w.f64(j.contingency_expires_at);
  w.f64(j.e2e_bound);
  return w.take();
}

Result<JoinResult> decode_join_outcome(const WireBuffer& bytes) {
  WireReader r(bytes);
  auto admitted = r.u8();
  auto reason = r.u8();
  auto micro = r.i64();
  auto macro = r.i64();
  auto fresh = r.u8();
  auto base = r.f64();
  auto cont = r.f64();
  auto grant = r.i64();
  auto expires = r.f64();
  auto bound = r.f64();
  for (const Status& s :
       {admitted.status(), reason.status(), micro.status(), macro.status(),
        fresh.status(), base.status(), cont.status(), grant.status(),
        expires.status(), bound.status()}) {
    if (!s.is_ok()) return s;
  }
  JoinResult j;
  j.admitted = admitted.value() != 0;
  j.reason = static_cast<RejectReason>(reason.value());
  j.microflow = micro.value();
  j.macroflow = macro.value();
  j.new_macroflow = fresh.value() != 0;
  j.base_rate = base.value();
  j.contingency = cont.value();
  j.grant = grant.value();
  j.contingency_expires_at = expires.value();
  j.e2e_bound = bound.value();
  j.detail = "duplicate join: original decision replayed";
  return j;
}

WireBuffer encode_leave_outcome(const Result<LeaveResult>& res) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(res.status().code()));
  if (res.is_ok()) {
    w.i64(res.value().macroflow);
    w.f64(res.value().base_rate);
    w.f64(res.value().contingency);
    w.i64(res.value().grant);
    w.f64(res.value().contingency_expires_at);
    w.u8(res.value().macroflow_removed ? 1 : 0);
  }
  return w.take();
}

Result<LeaveResult> decode_leave_outcome(const WireBuffer& bytes) {
  WireReader r(bytes);
  auto code = get_status_code(r);
  if (!code.is_ok()) return code.status();
  if (code.value() != StatusCode::kOk) {
    return replayed_error(code.value(), "leave");
  }
  auto macro = r.i64();
  auto base = r.f64();
  auto cont = r.f64();
  auto grant = r.i64();
  auto expires = r.f64();
  auto removed = r.u8();
  for (const Status& s : {macro.status(), base.status(), cont.status(),
                          grant.status(), expires.status(),
                          removed.status()}) {
    if (!s.is_ok()) return s;
  }
  LeaveResult out;
  out.macroflow = macro.value();
  out.base_rate = base.value();
  out.contingency = cont.value();
  out.grant = grant.value();
  out.contingency_expires_at = expires.value();
  out.macroflow_removed = removed.value() != 0;
  return out;
}

WireBuffer encode_release_amount_outcome(const Result<BitsPerSecond>& res) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(res.status().code()));
  if (res.is_ok()) w.f64(res.value());
  return w.take();
}

Result<BitsPerSecond> decode_release_amount_outcome(const WireBuffer& bytes) {
  WireReader r(bytes);
  auto code = get_status_code(r);
  if (!code.is_ok()) return code.status();
  if (code.value() != StatusCode::kOk) {
    return replayed_error(code.value(), "link release");
  }
  auto freed = r.f64();
  if (!freed.is_ok()) return freed.status();
  return freed.value();
}

/// Decode helper for replay: a payload decode failure after the CRC
/// passed means the log was written by incompatible code — data loss, not
/// a client error.
Status as_data_loss(const Status& s, std::uint64_t lsn) {
  return Status::data_loss("journal: bad payload at lsn " +
                           std::to_string(lsn) + ": " + s.to_string());
}

}  // namespace

DurableBroker::DurableBroker(const DomainSpec& spec,
                             const BrokerOptions& broker_options,
                             JournalFile& file,
                             DurableBrokerOptions options)
    : spec_(spec),
      broker_options_(broker_options),
      options_(options),
      file_(file),
      bb_(std::make_unique<BandwidthBroker>(spec, broker_options)) {}

Result<std::unique_ptr<DurableBroker>> DurableBroker::open(
    const DomainSpec& spec, const BrokerOptions& broker_options,
    JournalFile& file, DurableBrokerOptions options) {
  auto bytes = file.read_all();
  if (!bytes.is_ok()) return bytes.status();
  const JournalScan scan = scan_journal(bytes.value());
  if (!scan.error.is_ok()) return scan.error;
  std::unique_ptr<DurableBroker> db(
      new DurableBroker(spec, broker_options, file, options));
  std::size_t start = 0;
  if (!scan.records.empty() &&
      scan.records.front().kind == JournalOpKind::kAnchor) {
    if (Status s = db->load_anchor(scan.records.front()); !s.is_ok()) {
      return s;
    }
    start = 1;
  }
  for (std::size_t i = start; i < scan.records.size(); ++i) {
    const JournalRecord& rec = scan.records[i];
    if (rec.kind == JournalOpKind::kAnchor) {
      return Status::data_loss("journal: anchor record not at log head (lsn " +
                               std::to_string(rec.lsn) + ")");
    }
    if (Status s = db->replay_record(rec); !s.is_ok()) return s;
    db->next_lsn_ = rec.lsn + 1;
    ++db->stats_.replayed;
    ++db->records_since_anchor_;
  }
  db->recovered_order_ = std::move(db->window_order_);
  db->window_order_.clear();
  // A torn tail holds no acknowledged data — drop it so future appends
  // extend the clean prefix instead of a partial record.
  if (scan.torn_tail) {
    WireBuffer clean(bytes.value().begin(),
                     bytes.value().begin() +
                         static_cast<long>(scan.clean_bytes));
    if (Status s = file.replace(clean); !s.is_ok()) return s;
  }
  return db;
}

const DurableBroker::Decision* DurableBroker::find_decision(
    RequestId rid, JournalOpKind kind, Status* mismatch) {
  *mismatch = Status::ok();
  if (rid == kNoRequestId) return nullptr;
  auto it = window_.find(rid);
  if (it == window_.end()) return nullptr;
  if (it->second.kind != kind) {
    *mismatch = rid_reuse_error(rid, it->second.kind, kind);
    return nullptr;
  }
  ++stats_.dedup_hits;
  return &it->second;
}

void DurableBroker::remember(RequestId rid, JournalOpKind kind,
                             WireBuffer outcome) {
  if (rid == kNoRequestId) return;
  auto [it, inserted] = window_.try_emplace(rid);
  it->second = Decision{kind, std::move(outcome)};
  if (inserted) {
    window_order_.push_back(rid);
    while (window_order_.size() > options_.dedup_window) {
      window_.erase(window_order_.front());
      window_order_.pop_front();
    }
  }
}

Status DurableBroker::log_decision(RequestId rid, JournalOpKind kind,
                                   const WireBuffer& request,
                                   const WireBuffer& outcome) {
  frame_.clear();
  WireWriter& w = frame_.open_record(next_lsn_, kind);
  w.raw(request);
  w.raw(outcome);
  frame_.close_record();
  if (Status s = file_.append(frame_.bytes()); !s.is_ok()) return s;
  ++next_lsn_;
  ++stats_.appended;
  ++records_since_anchor_;
  remember(rid, kind, outcome);
  maybe_anchor();
  return Status::ok();
}

void DurableBroker::maybe_anchor() {
  if (options_.anchor_every > 0 &&
      records_since_anchor_ >= options_.anchor_every &&
      bb_->classes().active_grants() == 0) {
    // best-effort: the un-anchored log stays valid
    (void)checkpoint();  // qosbb-lint: allow(discarded-status)
  }
}

Status DurableBroker::checkpoint() {
  auto frame = bb_->snapshot();
  if (!frame.is_ok()) return frame.status();  // kUnavailable when live grants
  WireWriter p;
  p.bytes(frame.value());
  p.u32(static_cast<std::uint32_t>(recovered_order_.size() +
                                    window_order_.size()));
  for (const auto* order : {&recovered_order_, &window_order_}) {
    for (RequestId rid : *order) {
      const Decision& d = window_.at(rid);
      p.u64(rid);
      p.u8(static_cast<std::uint8_t>(d.kind));
      p.bytes(d.outcome);
    }
  }
  const WireBuffer rec =
      frame_journal_record(next_lsn_, JournalOpKind::kAnchor, p.take());
  if (Status s = file_.replace(rec); !s.is_ok()) return s;
  ++next_lsn_;
  ++stats_.checkpoints;
  records_since_anchor_ = 0;
  // Swap in the restored image: post-anchor live state is then bit-equal to
  // what recovery reconstructs from this anchor.
  auto restored = BandwidthBroker::restore(spec_, broker_options_,
                                           frame.value());
  if (!restored.is_ok()) {
    return Status::internal("checkpoint: snapshot failed to restore: " +
                            restored.status().to_string());
  }
  bb_ = std::move(restored.value());
  return Status::ok();
}

Status DurableBroker::load_anchor(const JournalRecord& rec) {
  WireReader r(rec.payload);
  auto snap = r.bytes();
  if (!snap.is_ok()) return as_data_loss(snap.status(), rec.lsn);
  auto restored = BandwidthBroker::restore(spec_, broker_options_,
                                           snap.value());
  if (!restored.is_ok()) {
    return Status::data_loss("journal: anchor snapshot rejected: " +
                             restored.status().to_string());
  }
  bb_ = std::move(restored.value());
  auto count = r.u32();
  if (!count.is_ok()) return as_data_loss(count.status(), rec.lsn);
  if (count.value() > (1u << 22)) {
    return Status::data_loss("journal: absurd dedup window in anchor");
  }
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto rid = r.u64();
    auto kind = r.u8();
    auto outcome = r.bytes();
    for (const Status& s :
         {rid.status(), kind.status(), outcome.status()}) {
      if (!s.is_ok()) return as_data_loss(s, rec.lsn);
    }
    if (kind.value() < 1 ||
        kind.value() >= static_cast<std::uint8_t>(JournalOpKind::kAnchor)) {
      return Status::data_loss("journal: bad decision kind in anchor");
    }
    remember(rid.value(), static_cast<JournalOpKind>(kind.value()),
             std::move(outcome.value()));
  }
  if (!r.exhausted()) {
    return Status::data_loss("journal: trailing bytes in anchor record");
  }
  next_lsn_ = rec.lsn + 1;
  return Status::ok();
}

// ---- journaled operations ----

Result<PathId> DurableBroker::provision_path(RequestId rid,
                                             const std::string& ingress,
                                             const std::string& egress) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kProvisionPath, &mismatch)) {
    return decode_path_outcome(d->outcome);
  }
  if (!mismatch.is_ok()) return mismatch;
  WireWriter q;
  q.u64(rid);
  q.str(ingress);
  q.str(egress);
  auto res = bb_->provision_path(ingress, egress);
  const WireBuffer outcome = encode_path_outcome(res);
  if (Status s = log_decision(rid, JournalOpKind::kProvisionPath,
                              q.buffer(), outcome);
      !s.is_ok()) {
    return s;
  }
  return res;
}

Result<Reservation> DurableBroker::request_service(
    RequestId rid, const FlowServiceRequest& request, Seconds now) {
  const DurableOp op = DurableOp::admit(rid, request);
  return std::move(execute_batch({&op, 1}, now).front());
}

std::vector<Result<Reservation>> DurableBroker::request_service_batch(
    std::span<const RequestId> rids,
    std::span<const FlowServiceRequest> requests, Seconds now) {
  QOSBB_REQUIRE(rids.size() == requests.size(),
                "request_service_batch: rid/request count mismatch");
  std::vector<DurableOp> ops;
  ops.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    ops.push_back(DurableOp::admit(rids[i], requests[i]));
  }
  return execute_batch(ops, now);
}

Status DurableBroker::release_service(RequestId rid, FlowId flow) {
  const DurableOp op = DurableOp::release(rid, flow);
  return execute_batch({&op, 1}, 0.0).front().status();
}

std::vector<Result<Reservation>> DurableBroker::execute_batch(
    std::span<const DurableOp> ops, Seconds now) {
  std::vector<Result<Reservation>> results(
      ops.size(), Result<Reservation>(Status::rejected("unset")));
  frame_.clear();
  fresh_.clear();
  batch_rids_.clear();
  std::size_t i = 0;
  while (i < ops.size()) {
    if (!ops[i].is_admit()) {
      execute_member(ops[i], i, now, &results[i]);
      ++i;
      continue;
    }
    run_.clear();
    for (std::size_t j = i; j < ops.size() && ops[j].is_admit(); ++j) {
      run_.push_back(ops[j].request);
    }
    for (const std::size_t k : batch_grouped_order(run_)) {
      execute_member(ops[i + k], i + k, now, &results[i + k]);
    }
    i += run_.size();
  }
  if (fresh_.empty()) return results;

  // Group commit: one append for every fresh record of the batch.
  if (Status s = file_.append(frame_.bytes()); !s.is_ok()) {
    for (const Fresh& f : fresh_) results[f.idx] = s;
    return results;
  }
  next_lsn_ += fresh_.size();
  stats_.appended += fresh_.size();
  records_since_anchor_ += fresh_.size();
  for (Fresh& f : fresh_) {
    remember(ops[f.idx].rid, f.kind, std::move(f.outcome));
  }
  maybe_anchor();
  return results;
}

void DurableBroker::execute_member(const DurableOp& op, std::size_t idx,
                                   Seconds now, Result<Reservation>* result) {
  const JournalOpKind kind =
      op.is_admit() ? JournalOpKind::kAdmit : JournalOpKind::kRelease;
  // A recorded decision: the window first, then the members this batch
  // already executed (they are remembered only after the append).
  Status mismatch = Status::ok();
  const WireBuffer* recorded = nullptr;
  if (const Decision* d = find_decision(op.rid, kind, &mismatch)) {
    recorded = &d->outcome;
  } else if (mismatch.is_ok() && op.rid != kNoRequestId) {
    if (auto it = batch_rids_.find(op.rid); it != batch_rids_.end()) {
      const Fresh& earlier = fresh_[it->second];
      if (earlier.kind != kind) {
        mismatch = rid_reuse_error(op.rid, earlier.kind, kind);
      } else {
        ++stats_.dedup_hits;
        recorded = &earlier.outcome;
      }
    }
  }
  if (!mismatch.is_ok()) {
    *result = mismatch;
    return;
  }
  if (recorded != nullptr) {
    if (op.is_admit()) {
      *result = decode_reservation_outcome(*recorded, "admit");
    } else {
      *result = release_result(decode_status_outcome(*recorded, "release"),
                               op.flow);
    }
    return;
  }

  WireWriter& w = frame_.open_record(next_lsn_ + fresh_.size(), kind);
  w.u64(op.rid);
  WireBuffer outcome;
  if (op.is_admit()) {
    put_admit_request(w, *op.request, now);
    auto res = bb_->request_service(*op.request, now);
    outcome = encode_reservation_outcome(res, bb_->last_outcome());
    *result = std::move(res);
  } else {
    w.i64(op.flow);
    const Status res = bb_->release_service(op.flow);
    outcome = encode_status_outcome(res);
    *result = release_result(res, op.flow);
  }
  w.raw(outcome);
  frame_.close_record();
  if (op.rid != kNoRequestId) batch_rids_.emplace(op.rid, fresh_.size());
  fresh_.push_back(Fresh{idx, kind, std::move(outcome)});
}

Result<Reservation> DurableBroker::renegotiate_service(RequestId rid,
                                                       FlowId flow,
                                                       Seconds new_delay_req,
                                                       Seconds now) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kRenegotiate, &mismatch)) {
    return decode_reservation_outcome(d->outcome, "renegotiate");
  }
  if (!mismatch.is_ok()) return mismatch;
  WireWriter q;
  q.u64(rid);
  q.i64(flow);
  q.f64(new_delay_req);
  q.f64(now);
  auto res = bb_->renegotiate_service(flow, new_delay_req, now);
  const WireBuffer outcome =
      encode_reservation_outcome(res, bb_->last_outcome());
  if (Status s = log_decision(rid, JournalOpKind::kRenegotiate, q.buffer(),
                              outcome);
      !s.is_ok()) {
    return s;
  }
  return res;
}

Result<ClassId> DurableBroker::define_class(RequestId rid, Seconds e2e_delay,
                                            Seconds delay_param,
                                            std::string name) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kClassDefine, &mismatch)) {
    WireReader r(d->outcome);
    auto cls = r.i64();
    if (!cls.is_ok()) return cls.status();
    return cls.value();
  }
  if (!mismatch.is_ok()) return mismatch;
  WireWriter q;
  q.u64(rid);
  q.f64(e2e_delay);
  q.f64(delay_param);
  q.str(name);
  const ClassId cls = bb_->define_class(e2e_delay, delay_param, name);
  const WireBuffer outcome = encode_class_outcome(cls);
  if (Status s = log_decision(rid, JournalOpKind::kClassDefine, q.buffer(),
                              outcome);
      !s.is_ok()) {
    return s;
  }
  return cls;
}

JoinResult DurableBroker::request_class_service(
    RequestId rid, ClassId cls, const TrafficProfile& profile,
    const std::string& ingress, const std::string& egress, Seconds now,
    std::optional<Bits> edge_backlog) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kClassJoin, &mismatch)) {
    auto j = decode_join_outcome(d->outcome);
    if (j.is_ok()) return j.value();
    mismatch = j.status();
  }
  if (!mismatch.is_ok()) {
    JoinResult out;
    out.admitted = false;
    out.reason = RejectReason::kPolicy;
    out.detail = mismatch.to_string();
    return out;
  }
  WireWriter q;
  q.u64(rid);
  q.i64(cls);
  put_profile(q, profile);
  q.str(ingress);
  q.str(egress);
  q.f64(now);
  q.u8(edge_backlog.has_value() ? 1 : 0);
  q.f64(edge_backlog.value_or(0.0));
  const JoinResult j = bb_->request_class_service(cls, profile, ingress,
                                                  egress, now, edge_backlog);
  const WireBuffer outcome = encode_join_outcome(j);
  if (Status s = log_decision(rid, JournalOpKind::kClassJoin, q.buffer(),
                              outcome);
      !s.is_ok()) {
    JoinResult out;
    out.admitted = false;
    out.reason = RejectReason::kPolicy;
    out.detail = s.to_string();
    return out;
  }
  return j;
}

Result<LeaveResult> DurableBroker::leave_class_service(
    RequestId rid, FlowId microflow, Seconds now,
    std::optional<Bits> edge_backlog) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kClassLeave, &mismatch)) {
    return decode_leave_outcome(d->outcome);
  }
  if (!mismatch.is_ok()) return mismatch;
  WireWriter q;
  q.u64(rid);
  q.i64(microflow);
  q.f64(now);
  q.u8(edge_backlog.has_value() ? 1 : 0);
  q.f64(edge_backlog.value_or(0.0));
  auto res = bb_->leave_class_service(microflow, now, edge_backlog);
  const WireBuffer outcome = encode_leave_outcome(res);
  if (Status s = log_decision(rid, JournalOpKind::kClassLeave, q.buffer(),
                              outcome);
      !s.is_ok()) {
    return s;
  }
  return res;
}

Status DurableBroker::reserve_link_external(RequestId rid,
                                            const std::string& link,
                                            BitsPerSecond amount) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kLinkReserve, &mismatch)) {
    return decode_status_outcome(d->outcome, "link reserve");
  }
  if (!mismatch.is_ok()) return mismatch;
  WireWriter q;
  q.u64(rid);
  q.str(link);
  q.f64(amount);
  const Status res = bb_->reserve_link_external(link, amount);
  const WireBuffer outcome = encode_status_outcome(res);
  if (Status s = log_decision(rid, JournalOpKind::kLinkReserve, q.buffer(),
                              outcome);
      !s.is_ok()) {
    return s;
  }
  return res;
}

Result<BitsPerSecond> DurableBroker::release_link_external(
    RequestId rid, const std::string& link, BitsPerSecond amount) {
  Status mismatch = Status::ok();
  if (const Decision* d =
          find_decision(rid, JournalOpKind::kLinkRelease, &mismatch)) {
    return decode_release_amount_outcome(d->outcome);
  }
  if (!mismatch.is_ok()) return mismatch;
  WireWriter q;
  q.u64(rid);
  q.str(link);
  q.f64(amount);
  auto res = bb_->release_link_external(link, amount);
  const WireBuffer outcome = encode_release_amount_outcome(res);
  if (Status s = log_decision(rid, JournalOpKind::kLinkRelease, q.buffer(),
                              outcome);
      !s.is_ok()) {
    return s;
  }
  return res;
}

Status DurableBroker::expire_contingency(GrantId grant, Seconds now) {
  WireWriter q;
  q.i64(grant);
  q.f64(now);
  bb_->expire_contingency(grant, now);
  return log_decision(kNoRequestId, JournalOpKind::kContingencyExpire,
                      q.buffer(), {});
}

Status DurableBroker::edge_buffer_empty(FlowId macroflow, Seconds now) {
  WireWriter q;
  q.i64(macroflow);
  q.f64(now);
  bb_->edge_buffer_empty(macroflow, now);
  return log_decision(kNoRequestId, JournalOpKind::kBufferEmpty, q.buffer(),
                      {});
}

// ---- recovery replay ----

Status DurableBroker::replay_record(const JournalRecord& rec) {
  WireReader r(rec.payload);
  // Verifies that re-execution reproduced the recorded outcome exactly:
  // the remaining payload bytes (past the request fields the caller
  // consumed) must equal the freshly re-encoded outcome.
  auto verify = [&](const WireBuffer& outcome, RequestId rid) -> Status {
    const std::size_t off = rec.payload.size() - r.remaining();
    if (r.remaining() != outcome.size() ||
        !std::equal(outcome.begin(), outcome.end(),
                    rec.payload.begin() + static_cast<long>(off))) {
      return Status::data_loss(
          "journal: replay divergence at lsn " + std::to_string(rec.lsn) +
          " (" + journal_op_kind_name(rec.kind) +
          "): re-execution does not reproduce the recorded decision");
    }
    remember(rid, rec.kind, outcome);
    return Status::ok();
  };

  switch (rec.kind) {
    case JournalOpKind::kProvisionPath: {
      auto rid = r.u64();
      auto ingress = r.str();
      auto egress = r.str();
      for (const Status& s :
           {rid.status(), ingress.status(), egress.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      auto res = bb_->provision_path(ingress.value(), egress.value());
      return verify(encode_path_outcome(res), rid.value());
    }
    case JournalOpKind::kAdmit: {
      auto rid = r.u64();
      auto profile = get_profile(r);
      auto d_req = r.f64();
      auto priority = r.i64();
      auto ingress = r.str();
      auto egress = r.str();
      auto now = r.f64();
      for (const Status& s :
           {rid.status(), profile.status(), d_req.status(),
            priority.status(), ingress.status(), egress.status(),
            now.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      FlowServiceRequest req;
      req.profile = profile.value();
      req.e2e_delay_req = d_req.value();
      req.ingress = ingress.value();
      req.egress = egress.value();
      req.priority = static_cast<FlowPriority>(priority.value());
      auto res = bb_->request_service(req, now.value());
      return verify(encode_reservation_outcome(res, bb_->last_outcome()),
                    rid.value());
    }
    case JournalOpKind::kRelease: {
      auto rid = r.u64();
      auto flow = r.i64();
      for (const Status& s : {rid.status(), flow.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      const Status res = bb_->release_service(flow.value());
      return verify(encode_status_outcome(res), rid.value());
    }
    case JournalOpKind::kRenegotiate: {
      auto rid = r.u64();
      auto flow = r.i64();
      auto d_req = r.f64();
      auto now = r.f64();
      for (const Status& s : {rid.status(), flow.status(), d_req.status(),
                              now.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      auto res = bb_->renegotiate_service(flow.value(), d_req.value(),
                                          now.value());
      return verify(encode_reservation_outcome(res, bb_->last_outcome()),
                    rid.value());
    }
    case JournalOpKind::kClassDefine: {
      auto rid = r.u64();
      auto e2e = r.f64();
      auto param = r.f64();
      auto name = r.str();
      for (const Status& s : {rid.status(), e2e.status(), param.status(),
                              name.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      const ClassId cls =
          bb_->define_class(e2e.value(), param.value(), name.value());
      return verify(encode_class_outcome(cls), rid.value());
    }
    case JournalOpKind::kClassJoin: {
      auto rid = r.u64();
      auto cls = r.i64();
      auto profile = get_profile(r);
      auto ingress = r.str();
      auto egress = r.str();
      auto now = r.f64();
      auto has_backlog = r.u8();
      auto backlog = r.f64();
      for (const Status& s :
           {rid.status(), cls.status(), profile.status(), ingress.status(),
            egress.status(), now.status(), has_backlog.status(),
            backlog.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      std::optional<Bits> edge_backlog;
      if (has_backlog.value() != 0) edge_backlog = backlog.value();
      const JoinResult j = bb_->request_class_service(
          cls.value(), profile.value(), ingress.value(), egress.value(),
          now.value(), edge_backlog);
      return verify(encode_join_outcome(j), rid.value());
    }
    case JournalOpKind::kClassLeave: {
      auto rid = r.u64();
      auto micro = r.i64();
      auto now = r.f64();
      auto has_backlog = r.u8();
      auto backlog = r.f64();
      for (const Status& s :
           {rid.status(), micro.status(), now.status(),
            has_backlog.status(), backlog.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      std::optional<Bits> edge_backlog;
      if (has_backlog.value() != 0) edge_backlog = backlog.value();
      auto res = bb_->leave_class_service(micro.value(), now.value(),
                                          edge_backlog);
      return verify(encode_leave_outcome(res), rid.value());
    }
    case JournalOpKind::kContingencyExpire: {
      auto grant = r.i64();
      auto now = r.f64();
      for (const Status& s : {grant.status(), now.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      bb_->expire_contingency(grant.value(), now.value());
      return verify({}, kNoRequestId);
    }
    case JournalOpKind::kBufferEmpty: {
      auto macro = r.i64();
      auto now = r.f64();
      for (const Status& s : {macro.status(), now.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      bb_->edge_buffer_empty(macro.value(), now.value());
      return verify({}, kNoRequestId);
    }
    case JournalOpKind::kLinkReserve: {
      auto rid = r.u64();
      auto link = r.str();
      auto amount = r.f64();
      for (const Status& s : {rid.status(), link.status(),
                              amount.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      const Status res =
          bb_->reserve_link_external(link.value(), amount.value());
      return verify(encode_status_outcome(res), rid.value());
    }
    case JournalOpKind::kLinkRelease: {
      auto rid = r.u64();
      auto link = r.str();
      auto amount = r.f64();
      for (const Status& s : {rid.status(), link.status(),
                              amount.status()}) {
        if (!s.is_ok()) return as_data_loss(s, rec.lsn);
      }
      auto res = bb_->release_link_external(link.value(), amount.value());
      return verify(encode_release_amount_outcome(res), rid.value());
    }
    case JournalOpKind::kAnchor:
      break;  // handled by open(); unreachable here
  }
  return Status::data_loss("journal: unhandled record kind at lsn " +
                           std::to_string(rec.lsn));
}

}  // namespace qosbb
