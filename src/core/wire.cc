#include "core/wire.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

namespace qosbb {
namespace {

/// Header: magic(u16) version(u8) type(u8) body_len(u32).
constexpr std::size_t kHeaderSize = 8;

WireBuffer finish(MessageType type, WireWriter body) {
  WireWriter head;
  head.u16(kWireMagic);
  head.u8(kWireVersion);
  head.u8(static_cast<std::uint8_t>(type));
  head.u32(static_cast<std::uint32_t>(body.buffer().size()));
  WireBuffer out = head.take();
  const WireBuffer& b = body.buffer();
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Validates the frame and returns a reader positioned at the body.
Result<WireReader> open_body(const WireBuffer& buffer,
                             MessageType expected) {
  if (buffer.size() < kHeaderSize) {
    return Status::invalid_argument("frame shorter than header");
  }
  WireReader head(buffer);
  auto magic = head.u16();
  auto version = head.u8();
  auto type = head.u8();
  auto body_len = head.u32();
  if (!magic.is_ok() || magic.value() != kWireMagic) {
    return Status::invalid_argument("bad magic");
  }
  if (!version.is_ok() || version.value() != kWireVersion) {
    return Status::invalid_argument("unsupported version");
  }
  if (!type.is_ok() ||
      type.value() != static_cast<std::uint8_t>(expected)) {
    return Status::invalid_argument("unexpected message type");
  }
  if (!body_len.is_ok() ||
      static_cast<std::size_t>(body_len.value()) + kHeaderSize !=
          buffer.size()) {
    return Status::invalid_argument("body length mismatch");
  }
  WireReader body(buffer);
  // Skip the header (reads cannot fail: checked above).
  (void)body.u16();
  (void)body.u8();
  (void)body.u8();
  (void)body.u32();
  return body;
}

Status check_rate(double v, const char* field) {
  if (!(v > 0.0) || !std::isfinite(v)) {
    return Status::invalid_argument(std::string(field) +
                                    " must be positive and finite");
  }
  return Status::ok();
}

Status check_nonneg(double v, const char* field) {
  if (v < 0.0 || !std::isfinite(v)) {
    return Status::invalid_argument(std::string(field) +
                                    " must be non-negative and finite");
  }
  return Status::ok();
}

}  // namespace

// ---- WireWriter ----

void WireWriter::u8(std::uint8_t v) { buf_.push_back(v); }

void WireWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v & 0xff));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void WireWriter::i64(std::int64_t v) {
  u64(static_cast<std::uint64_t>(v));
}

void WireWriter::f64(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  u64(bits);
}

void WireWriter::str(const std::string& v) {
  const std::size_t n = std::min<std::size_t>(v.size(), 255);
  u8(static_cast<std::uint8_t>(n));
  buf_.insert(buf_.end(), v.begin(), v.begin() + static_cast<long>(n));
}

void WireWriter::bytes(const WireBuffer& v) {
  u32(static_cast<std::uint32_t>(v.size()));
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireWriter::raw(std::span<const std::uint8_t> v) {
  buf_.insert(buf_.end(), v.begin(), v.end());
}

void WireWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  QOSBB_REQUIRE(offset + 4 <= buf_.size(), "WireWriter::patch_u32 past end");
  for (int i = 0; i < 4; ++i) {
    buf_[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

// ---- WireStream ----

WireStream::WireStream(Sink sink) : sink_(std::move(sink)) {
  QOSBB_REQUIRE(sink_ != nullptr, "WireStream: no sink");
}

Status WireStream::flush() {
  if (status_.is_ok() && !w_.buffer().empty()) status_ = sink_(w_.buffer());
  w_.clear();
  return status_;
}

// ---- WireReader ----

Status WireReader::short_read(const char* what) const {
  if (mode_ == Mode::kStreaming) {
    return Status::need_more_data(std::string("incomplete ") + what);
  }
  return Status::truncated(std::string("truncated ") + what);
}

Result<std::uint8_t> WireReader::u8() {
  if (remaining() < 1) return short_read("u8");
  return buf_[pos_++];
}

Result<std::uint16_t> WireReader::u16() {
  if (remaining() < 2) return short_read("u16");
  std::uint16_t v = static_cast<std::uint16_t>(buf_[pos_]) |
                    static_cast<std::uint16_t>(buf_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

Result<std::uint32_t> WireReader::u32() {
  if (remaining() < 4) return short_read("u32");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<std::uint64_t> WireReader::u64() {
  if (remaining() < 8) return short_read("u64");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(buf_[pos_ + static_cast<std::size_t>(i)])
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::int64_t> WireReader::i64() {
  auto v = u64();
  if (!v.is_ok()) return v.status();
  return static_cast<std::int64_t>(v.value());
}

Result<double> WireReader::f64() {
  auto bits = u64();
  if (!bits.is_ok()) return bits.status();
  double v;
  std::uint64_t raw = bits.value();
  std::memcpy(&v, &raw, sizeof(v));
  if (std::isnan(v) || std::isinf(v)) {
    return Status::invalid_argument("non-finite float on the wire");
  }
  return v;
}

Result<std::string> WireReader::str() {
  auto n = u8();
  if (!n.is_ok()) return n.status();
  if (remaining() < n.value()) {
    pos_ -= 1;  // un-read the length prefix: a retry re-decodes the field
    return short_read("string");
  }
  // buf_.data() + pos_, not &buf_[pos_]: an empty string that ends the
  // message sits at pos_ == size(), where operator[] is out of range.
  std::string s(reinterpret_cast<const char*>(buf_.data() + pos_),
                n.value());
  pos_ += n.value();
  return s;
}

Result<WireBuffer> WireReader::bytes() {
  auto n = u32();
  if (!n.is_ok()) return n.status();
  if (remaining() < n.value()) {
    pos_ -= 4;  // un-read the length prefix: a retry re-decodes the field
    return short_read("byte block");
  }
  WireBuffer out(buf_.begin() + static_cast<long>(pos_),
                 buf_.begin() + static_cast<long>(pos_ + n.value()));
  pos_ += n.value();
  return out;
}

// ---- Messages ----

WireBuffer encode(const FlowServiceRequest& msg, RequestId rid) {
  WireWriter w;
  w.f64(msg.profile.sigma);
  w.f64(msg.profile.rho);
  w.f64(msg.profile.peak);
  w.f64(msg.profile.l_max);
  w.f64(msg.e2e_delay_req);
  w.str(msg.ingress);
  w.str(msg.egress);
  w.u64(rid);
  return finish(MessageType::kFlowServiceRequest, std::move(w));
}

Result<FlowServiceRequest> decode_flow_service_request(
    const WireBuffer& buffer, RequestId* rid) {
  auto body = open_body(buffer, MessageType::kFlowServiceRequest);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto sigma = r.f64();
  auto rho = r.f64();
  auto peak = r.f64();
  auto l_max = r.f64();
  auto d_req = r.f64();
  auto ingress = r.str();
  auto egress = r.str();
  auto req_id = r.u64();
  for (const Status& s :
       {sigma.status(), rho.status(), peak.status(), l_max.status(),
        d_req.status(), ingress.status(), egress.status(),
        req_id.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  // Semantic validation: a hostile peer must not be able to smuggle a
  // profile that violates TrafficProfile's invariants into the broker
  // (TrafficProfile::make throws on contract violations; here they are
  // input errors, so pre-check).
  if (Status s = check_rate(rho.value(), "rho"); !s.is_ok()) return s;
  if (Status s = check_rate(l_max.value(), "l_max"); !s.is_ok()) return s;
  if (Status s = check_nonneg(d_req.value(), "delay requirement"); !s.is_ok())
    return s;
  if (sigma.value() < l_max.value() || peak.value() < rho.value() ||
      !std::isfinite(sigma.value()) || !std::isfinite(peak.value())) {
    return Status::invalid_argument("profile violates sigma>=L, P>=rho");
  }
  FlowServiceRequest out;
  out.profile = TrafficProfile::make(sigma.value(), rho.value(),
                                     peak.value(), l_max.value());
  out.e2e_delay_req = d_req.value();
  out.ingress = ingress.value();
  out.egress = egress.value();
  if (rid != nullptr) *rid = req_id.value();
  return out;
}

WireBuffer encode(const Reservation& msg) {
  WireWriter w;
  w.i64(msg.flow);
  w.i64(msg.path);
  w.f64(msg.params.rate);
  w.f64(msg.params.delay);
  w.f64(msg.e2e_bound);
  return finish(MessageType::kReservationReply, std::move(w));
}

Result<Reservation> decode_reservation(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kReservationReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto flow = r.i64();
  auto path = r.i64();
  auto rate = r.f64();
  auto delay = r.f64();
  auto bound = r.f64();
  for (const Status& s : {flow.status(), path.status(), rate.status(),
                          delay.status(), bound.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (Status s = check_rate(rate.value(), "rate"); !s.is_ok()) return s;
  if (Status s = check_nonneg(delay.value(), "delay"); !s.is_ok()) return s;
  Reservation out;
  out.flow = flow.value();
  out.path = path.value();
  out.params = RateDelayPair{rate.value(), delay.value()};
  out.e2e_bound = bound.value();
  return out;
}

WireBuffer encode(const RejectReply& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(msg.reason));
  w.str(msg.detail);
  return finish(MessageType::kRejectReply, std::move(w));
}

Result<RejectReply> decode_reject_reply(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kRejectReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto reason = r.u8();
  auto detail = r.str();
  if (!reason.is_ok()) return reason.status();
  if (!detail.is_ok()) return detail.status();
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (reason.value() >
      static_cast<std::uint8_t>(RejectReason::kInsufficientBuffer)) {
    return Status::invalid_argument("unknown reject reason");
  }
  RejectReply out;
  out.reason = static_cast<RejectReason>(reason.value());
  out.detail = detail.value();
  return out;
}

WireBuffer encode(const EdgeConditionerConfig& msg) {
  WireWriter w;
  w.i64(msg.flow);
  w.f64(msg.rate);
  w.f64(msg.delay_param);
  return finish(MessageType::kEdgeConditionerConfig, std::move(w));
}

Result<EdgeConditionerConfig> decode_edge_conditioner_config(
    const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kEdgeConditionerConfig);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto flow = r.i64();
  auto rate = r.f64();
  auto delay = r.f64();
  for (const Status& s : {flow.status(), rate.status(), delay.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (Status s = check_rate(rate.value(), "rate"); !s.is_ok()) return s;
  if (Status s = check_nonneg(delay.value(), "delay"); !s.is_ok()) return s;
  EdgeConditionerConfig out;
  out.flow = flow.value();
  out.rate = rate.value();
  out.delay_param = delay.value();
  return out;
}

WireBuffer encode(const TeardownRequest& msg) {
  WireWriter w;
  w.i64(msg.flow);
  w.u64(msg.rid);
  return finish(MessageType::kTeardownRequest, std::move(w));
}

Result<TeardownRequest> decode_teardown_request(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kTeardownRequest);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto flow = r.i64();
  auto rid = r.u64();
  if (!flow.is_ok()) return flow.status();
  if (!rid.is_ok()) return rid.status();
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  return TeardownRequest{flow.value(), rid.value()};
}

const char* shed_reason_name(ShedReason r) {
  switch (r) {
    case ShedReason::kNone: return "none";
    case ShedReason::kGlobalBudget: return "global-budget";
    case ShedReason::kConnBudget: return "conn-budget";
    case ShedReason::kDeadline: return "deadline";
    case ShedReason::kBrownout: return "brownout";
  }
  return "unknown";
}

WireBuffer encode(const OverloadedReply& msg) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(msg.reason));
  w.u32(msg.retry_after_ms);
  w.str(msg.detail);
  return finish(MessageType::kOverloadedReply, std::move(w));
}

Result<OverloadedReply> decode_overloaded_reply(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kOverloadedReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto reason = r.u8();
  auto retry_after = r.u32();
  auto detail = r.str();
  for (const Status& s :
       {reason.status(), retry_after.status(), detail.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (reason.value() > static_cast<std::uint8_t>(kMaxShedReason)) {
    return Status::invalid_argument("unknown shed reason");
  }
  OverloadedReply out;
  out.reason = static_cast<ShedReason>(reason.value());
  out.retry_after_ms = retry_after.value();
  out.detail = detail.value();
  return out;
}

WireBuffer encode(const HealthRequest&) {
  return finish(MessageType::kHealthRequest, WireWriter{});
}

Result<HealthRequest> decode_health_request(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kHealthRequest);
  if (!body.is_ok()) return body.status();
  if (!body.value().exhausted()) {
    return Status::invalid_argument("trailing bytes");
  }
  return HealthRequest{};
}

WireBuffer encode(const HealthReply& msg) {
  WireWriter w;
  w.u64(msg.inflight);
  w.u64(msg.connections);
  w.u64(msg.admits);
  w.u64(msg.rejects);
  w.u64(msg.shed_global);
  w.u64(msg.shed_conn);
  w.u64(msg.shed_deadline);
  w.u64(msg.shed_brownout);
  w.u64(msg.reaped_partial);
  w.u64(msg.reaped_idle);
  w.u64(msg.journal_lsn);
  w.u64(msg.dedup_entries);
  w.u64(msg.live_flows);
  w.u8(msg.brownout_active);
  return finish(MessageType::kHealthReply, std::move(w));
}

Result<HealthReply> decode_health_reply(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kHealthReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  HealthReply out;
  std::uint64_t* const fields[] = {
      &out.inflight,      &out.connections,   &out.admits,
      &out.rejects,       &out.shed_global,   &out.shed_conn,
      &out.shed_deadline, &out.shed_brownout, &out.reaped_partial,
      &out.reaped_idle,   &out.journal_lsn,   &out.dedup_entries,
      &out.live_flows};
  for (std::uint64_t* f : fields) {
    auto v = r.u64();
    if (!v.is_ok()) return v.status();
    *f = v.value();
  }
  auto brownout = r.u8();
  if (!brownout.is_ok()) return brownout.status();
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (brownout.value() > 1) {
    return Status::invalid_argument("brownout flag must be 0 or 1");
  }
  out.brownout_active = brownout.value();
  return out;
}

WireBuffer encode(const SnapshotDigestRequest&) {
  return finish(MessageType::kSnapshotDigestRequest, WireWriter{});
}

Result<SnapshotDigestRequest> decode_snapshot_digest_request(
    const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kSnapshotDigestRequest);
  if (!body.is_ok()) return body.status();
  if (!body.value().exhausted()) {
    return Status::invalid_argument("trailing bytes");
  }
  return SnapshotDigestRequest{};
}

WireBuffer encode(const SnapshotDigestReply& msg) {
  WireWriter w;
  w.u32(msg.digest);
  w.u64(msg.journal_lsn);
  return finish(MessageType::kSnapshotDigestReply, std::move(w));
}

Result<SnapshotDigestReply> decode_snapshot_digest_reply(
    const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kSnapshotDigestReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto digest = r.u32();
  auto lsn = r.u64();
  if (!digest.is_ok()) return digest.status();
  if (!lsn.is_ok()) return lsn.status();
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  SnapshotDigestReply out;
  out.digest = digest.value();
  out.journal_lsn = lsn.value();
  return out;
}

WireBuffer encode(const PrepareSegment& msg) {
  WireWriter w;
  w.u64(msg.txn);
  w.u64(msg.rid_segment);
  w.u64(msg.rid_contingency);
  w.str(msg.ingress);
  w.str(msg.egress);
  w.f64(msg.rate);
  w.f64(msg.l_max);
  w.f64(msg.contingency_rate);
  w.str(msg.boundary_from);
  w.str(msg.boundary_to);
  return finish(MessageType::kPrepareSegment, std::move(w));
}

Result<PrepareSegment> decode_prepare_segment(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kPrepareSegment);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto txn = r.u64();
  auto rid_seg = r.u64();
  auto rid_cont = r.u64();
  auto ingress = r.str();
  auto egress = r.str();
  auto rate = r.f64();
  auto l_max = r.f64();
  auto cont_rate = r.f64();
  auto b_from = r.str();
  auto b_to = r.str();
  for (const Status& s :
       {txn.status(), rid_seg.status(), rid_cont.status(), ingress.status(),
        egress.status(), rate.status(), l_max.status(), cont_rate.status(),
        b_from.status(), b_to.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (Status s = check_rate(rate.value(), "segment rate"); !s.is_ok())
    return s;
  if (Status s = check_rate(l_max.value(), "l_max"); !s.is_ok()) return s;
  if (Status s = check_nonneg(cont_rate.value(), "contingency rate");
      !s.is_ok())
    return s;
  if (ingress.value().empty() || egress.value().empty()) {
    return Status::invalid_argument("segment endpoints must be named");
  }
  if (cont_rate.value() > 0.0 &&
      (b_from.value().empty() || b_to.value().empty())) {
    return Status::invalid_argument(
        "contingency rate without a boundary link");
  }
  PrepareSegment out;
  out.txn = txn.value();
  out.rid_segment = rid_seg.value();
  out.rid_contingency = rid_cont.value();
  out.ingress = ingress.value();
  out.egress = egress.value();
  out.rate = rate.value();
  out.l_max = l_max.value();
  out.contingency_rate = cont_rate.value();
  out.boundary_from = b_from.value();
  out.boundary_to = b_to.value();
  return out;
}

WireBuffer encode(const PrepareReply& msg) {
  WireWriter w;
  w.u64(msg.txn);
  w.u8(msg.prepared ? 1 : 0);
  w.i64(msg.segment_flow);
  w.i64(msg.contingency_flow);
  w.u8(static_cast<std::uint8_t>(msg.reason));
  w.str(msg.detail);
  return finish(MessageType::kPrepareReply, std::move(w));
}

Result<PrepareReply> decode_prepare_reply(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kPrepareReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto txn = r.u64();
  auto prepared = r.u8();
  auto seg_flow = r.i64();
  auto cont_flow = r.i64();
  auto reason = r.u8();
  auto detail = r.str();
  for (const Status& s :
       {txn.status(), prepared.status(), seg_flow.status(),
        cont_flow.status(), reason.status(), detail.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (prepared.value() > 1) {
    return Status::invalid_argument("prepared flag must be 0 or 1");
  }
  if (reason.value() >
      static_cast<std::uint8_t>(RejectReason::kInsufficientBuffer)) {
    return Status::invalid_argument("unknown reject reason");
  }
  PrepareReply out;
  out.txn = txn.value();
  out.prepared = prepared.value() == 1;
  out.segment_flow = seg_flow.value();
  out.contingency_flow = cont_flow.value();
  out.reason = static_cast<RejectReason>(reason.value());
  out.detail = detail.value();
  return out;
}

WireBuffer encode(const CommitSegment& msg) {
  WireWriter w;
  w.u64(msg.txn);
  w.u64(msg.rid);
  w.i64(msg.contingency_flow);
  return finish(MessageType::kCommitSegment, std::move(w));
}

Result<CommitSegment> decode_commit_segment(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kCommitSegment);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto txn = r.u64();
  auto rid = r.u64();
  auto cont_flow = r.i64();
  for (const Status& s : {txn.status(), rid.status(), cont_flow.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  return CommitSegment{txn.value(), rid.value(), cont_flow.value()};
}

WireBuffer encode(const AbortSegment& msg) {
  WireWriter w;
  w.u64(msg.txn);
  w.u64(msg.rid_segment);
  w.u64(msg.rid_contingency);
  w.i64(msg.segment_flow);
  w.i64(msg.contingency_flow);
  return finish(MessageType::kAbortSegment, std::move(w));
}

Result<AbortSegment> decode_abort_segment(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kAbortSegment);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto txn = r.u64();
  auto rid_seg = r.u64();
  auto rid_cont = r.u64();
  auto seg_flow = r.i64();
  auto cont_flow = r.i64();
  for (const Status& s :
       {txn.status(), rid_seg.status(), rid_cont.status(), seg_flow.status(),
        cont_flow.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  AbortSegment out;
  out.txn = txn.value();
  out.rid_segment = rid_seg.value();
  out.rid_contingency = rid_cont.value();
  out.segment_flow = seg_flow.value();
  out.contingency_flow = cont_flow.value();
  return out;
}

WireBuffer encode(const SegmentAck& msg) {
  WireWriter w;
  w.u64(msg.txn);
  w.u8(msg.ok ? 1 : 0);
  w.str(msg.detail);
  return finish(MessageType::kSegmentAck, std::move(w));
}

Result<SegmentAck> decode_segment_ack(const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kSegmentAck);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto txn = r.u64();
  auto ok = r.u8();
  auto detail = r.str();
  for (const Status& s : {txn.status(), ok.status(), detail.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  if (ok.value() > 1) {
    return Status::invalid_argument("ok flag must be 0 or 1");
  }
  SegmentAck out;
  out.txn = txn.value();
  out.ok = ok.value() == 1;
  out.detail = detail.value();
  return out;
}

WireBuffer encode(const FederatedDigestRequest&) {
  return finish(MessageType::kFederatedDigestRequest, WireWriter{});
}

Result<FederatedDigestRequest> decode_federated_digest_request(
    const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kFederatedDigestRequest);
  if (!body.is_ok()) return body.status();
  if (!body.value().exhausted()) {
    return Status::invalid_argument("trailing bytes");
  }
  return FederatedDigestRequest{};
}

WireBuffer encode(const FederatedDigestReply& msg) {
  WireWriter w;
  w.u32(msg.digest);
  w.u64(msg.live_flows);
  w.u64(msg.journal_lsn);
  return finish(MessageType::kFederatedDigestReply, std::move(w));
}

Result<FederatedDigestReply> decode_federated_digest_reply(
    const WireBuffer& buffer) {
  auto body = open_body(buffer, MessageType::kFederatedDigestReply);
  if (!body.is_ok()) return body.status();
  WireReader& r = body.value();
  auto digest = r.u32();
  auto live = r.u64();
  auto lsn = r.u64();
  for (const Status& s : {digest.status(), live.status(), lsn.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!r.exhausted()) return Status::invalid_argument("trailing bytes");
  FederatedDigestReply out;
  out.digest = digest.value();
  out.live_flows = live.value();
  out.journal_lsn = lsn.value();
  return out;
}

Result<MessageType> peek_type(const WireBuffer& buffer) {
  if (buffer.size() < kHeaderSize) {
    return Status::invalid_argument("frame shorter than header");
  }
  WireReader head(buffer);
  auto magic = head.u16();
  auto version = head.u8();
  auto type = head.u8();
  if (!magic.is_ok() || magic.value() != kWireMagic) {
    return Status::invalid_argument("bad magic");
  }
  if (!version.is_ok() || version.value() != kWireVersion) {
    return Status::invalid_argument("unsupported version");
  }
  if (!type.is_ok() || type.value() < 1 ||
      type.value() > static_cast<std::uint8_t>(kMaxMessageType)) {
    return Status::invalid_argument("unknown message type");
  }
  return static_cast<MessageType>(type.value());
}

}  // namespace qosbb
