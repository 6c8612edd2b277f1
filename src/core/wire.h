// Binary wire format for the BB's signaling messages.
//
// In a deployment the ingress routers talk to the bandwidth broker over a
// protocol such as COPS (Section 2.2: the BB "will also pass (using, e.g.,
// COPS) the QoS reservation information ... to the ingress router"). This
// module defines that exchange's payload encoding:
//
//   message  := magic(u16) version(u8) type(u8) body_len(u32) body
//   body     := message-specific fixed-layout fields (little-endian)
//
// Encoding never fails; decoding is hardened against untrusted input —
// every read is bounds-checked and returns a Status instead of reading out
// of bounds, throwing, or trusting embedded lengths. Floating-point fields
// are validated (finite, non-negative where the domain demands it) before a
// decoded message is handed to the control plane.

#ifndef QOSBB_CORE_WIRE_H_
#define QOSBB_CORE_WIRE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/types.h"
#include "util/status.h"

namespace qosbb {

using WireBuffer = std::vector<std::uint8_t>;

constexpr std::uint16_t kWireMagic = 0x51B2;  // "QB"
constexpr std::uint8_t kWireVersion = 2;

enum class MessageType : std::uint8_t {
  kFlowServiceRequest = 1,  // ingress -> BB
  kReservationReply = 2,    // BB -> ingress (admitted)
  kRejectReply = 3,         // BB -> ingress (rejected)
  kEdgeConditionerConfig = 4,  // BB -> edge conditioner
  kTeardownRequest = 5,     // ingress -> BB
  kBrokerSnapshot = 6,      // BB state checkpoint (crash recovery)
  kOverloadedReply = 7,     // BB -> ingress (shed, NOT executed — retry)
  kHealthRequest = 8,       // ingress/operator -> BB (never shed)
  kHealthReply = 9,         // BB -> requester (degradation counters)
  kSnapshotDigestRequest = 10,  // operator -> BB (expensive: brownout-shed)
  kSnapshotDigestReply = 11,    // BB -> operator
  // Broker-to-broker federation ops (coordinator -> member). They ride the
  // same framing/retry/rid-dedup machinery as client signaling: a retried
  // prepare/commit/abort re-sends the SAME rids, so a mid-2PC member crash
  // never loses or duplicates an acked admission.
  kPrepareSegment = 12,          // coordinator -> member (2PC phase 1)
  kPrepareReply = 13,            // member -> coordinator
  kCommitSegment = 14,           // coordinator -> member (2PC phase 2)
  kAbortSegment = 15,            // coordinator -> member (2PC rollback)
  kSegmentAck = 16,              // member -> coordinator (commit/abort ack)
  kFederatedDigestRequest = 17,  // coordinator/auditor -> member
  kFederatedDigestReply = 18,    // member -> requester
};
constexpr MessageType kMaxMessageType = MessageType::kFederatedDigestReply;

/// Reject reply payload.
struct RejectReply {
  RejectReason reason = RejectReason::kNone;
  std::string detail;  // truncated to 255 bytes on the wire
};

/// Teardown payload. `rid` is the client's idempotency key (kNoRequestId
/// opts out); a retried teardown re-sends the same rid.
struct TeardownRequest {
  FlowId flow = kInvalidFlowId;
  RequestId rid = kNoRequestId;
};

/// Why the server shed a request instead of executing it. Carried as u8 in
/// the kOverloadedReply body; a shed request was NOT executed and is always
/// safe to retry (with the same rid).
enum class ShedReason : std::uint8_t {
  kNone = 0,
  kGlobalBudget = 1,  ///< server-wide in-flight budget exhausted
  kConnBudget = 2,    ///< this connection's in-flight budget exhausted
  kDeadline = 3,      ///< queued longer than the per-request deadline
  kBrownout = 4,      ///< expensive op shed while the server is degraded
};
constexpr ShedReason kMaxShedReason = ShedReason::kBrownout;

const char* shed_reason_name(ShedReason r);

/// Explicit overload reply: the positional answer to a request the server
/// refused to execute. Shed, never stall — the client sees this instead of
/// an ever-growing queue delay.
struct OverloadedReply {
  ShedReason reason = ShedReason::kNone;
  std::uint32_t retry_after_ms = 0;  ///< server's backoff hint (0 = none)
  std::string detail;                // truncated to 255 bytes on the wire
};

/// Health probe (empty body). Served even in brownout so degradation is
/// observable exactly when it matters.
struct HealthRequest {};

/// Health reply: the server's degradation counters, a point-in-time view.
struct HealthReply {
  std::uint64_t inflight = 0;        ///< ops queued awaiting dispatch
  std::uint64_t connections = 0;     ///< open client connections
  std::uint64_t admits = 0;          ///< executed admission requests
  std::uint64_t rejects = 0;         ///< admission rejections (executed)
  std::uint64_t shed_global = 0;     ///< sheds: global budget
  std::uint64_t shed_conn = 0;       ///< sheds: per-connection budget
  std::uint64_t shed_deadline = 0;   ///< sheds: deadline expiries
  std::uint64_t shed_brownout = 0;   ///< sheds: brownout (expensive ops)
  std::uint64_t reaped_partial = 0;  ///< conns closed: stalled partial frame
  std::uint64_t reaped_idle = 0;     ///< conns closed: idle timeout
  std::uint64_t journal_lsn = 0;     ///< durable mode: next LSN (else 0)
  std::uint64_t dedup_entries = 0;   ///< durable mode: dedup window size
  std::uint64_t live_flows = 0;      ///< flows currently reserved
  std::uint8_t brownout_active = 0;  ///< 1 while the brownout gate is closed
};

/// Snapshot digest probe (empty body): asks for the CRC of a full broker
/// snapshot — deliberately expensive, the first thing brownout sheds.
struct SnapshotDigestRequest {};

struct SnapshotDigestReply {
  std::uint32_t digest = 0;         ///< CRC-32 of the encoded snapshot
  std::uint64_t journal_lsn = 0;    ///< durable mode: next LSN (else 0)
};

/// 2PC phase 1: reserve one per-domain segment of an inter-domain path as a
/// pinned-rate flow (P = ρ = `rate`, delay requirement effectively open —
/// the coordinator already folded the end-to-end delay into `rate`), plus
/// the §4 contingency reservation on the outgoing boundary link. Both
/// admissions are ordinary journaled ops keyed by the coordinator-chosen
/// rids; a member that already remembers a rid replays its recorded
/// decision, so retries after a member crash are exactly-once.
struct PrepareSegment {
  std::uint64_t txn = 0;              ///< coordinator transaction id (logs)
  RequestId rid_segment = kNoRequestId;
  RequestId rid_contingency = kNoRequestId;
  std::string ingress;                ///< segment entry node
  std::string egress;                 ///< segment exit node (mirror when
                                      ///< the segment ends at a boundary)
  BitsPerSecond rate = 0.0;           ///< pinned segment rate r*
  Bits l_max = 0.0;                   ///< flow maximum packet size
  /// Thm-2 contingency Δr >= P − r* on the boundary link; 0 = none (last
  /// segment, or Δr below resolution).
  BitsPerSecond contingency_rate = 0.0;
  std::string boundary_from;
  std::string boundary_to;
};

/// Phase-1 outcome. On failure the member does NOT roll back its own
/// partial work (a torn-down flow would make a rid replay inconsistent);
/// it reports the flows it holds and the coordinator aborts them.
struct PrepareReply {
  std::uint64_t txn = 0;
  bool prepared = false;
  FlowId segment_flow = kInvalidFlowId;
  FlowId contingency_flow = kInvalidFlowId;
  RejectReason reason = RejectReason::kNone;
  std::string detail;  // truncated to 255 bytes on the wire
};

/// 2PC phase 2: the path is fully reserved — release the transient
/// boundary contingency (kInvalidFlowId = none was reserved).
struct CommitSegment {
  std::uint64_t txn = 0;
  RequestId rid = kNoRequestId;  ///< idempotency key of the teardown
  FlowId contingency_flow = kInvalidFlowId;
};

/// 2PC rollback: tear down whatever phase 1 reserved on this member.
/// Either flow may be kInvalidFlowId (that op never happened).
struct AbortSegment {
  std::uint64_t txn = 0;
  RequestId rid_segment = kNoRequestId;
  RequestId rid_contingency = kNoRequestId;
  FlowId segment_flow = kInvalidFlowId;
  FlowId contingency_flow = kInvalidFlowId;
};

/// Ack for CommitSegment / AbortSegment.
struct SegmentAck {
  std::uint64_t txn = 0;
  bool ok = false;
  std::string detail;  // truncated to 255 bytes on the wire
};

/// Member-state probe for federation audits (empty body). Cheaper than a
/// full snapshot exchange: a CRC of the member's snapshot plus the live
/// flow count, enough to compare a member against a replayed ground truth.
struct FederatedDigestRequest {};

struct FederatedDigestReply {
  std::uint32_t digest = 0;       ///< CRC-32 of the encoded member snapshot
  std::uint64_t live_flows = 0;   ///< flows currently reserved
  std::uint64_t journal_lsn = 0;  ///< durable mode: next LSN (else 0)
};

/// Delay requirement of a pinned-rate segment flow: effectively open, so
/// the §3.1 test books exactly `rate` (P = ρ makes T_on = 0 and r_min
/// vanish). Part of the protocol: coordinator, member, and every replay
/// must build the identical request for the same PrepareSegment.
constexpr double kPinnedSegmentDelayReq = 1e6;

/// The member-side admission a PrepareSegment (or its replay) executes:
/// a CBR flow of exactly `rate` over the member's local route.
inline FlowServiceRequest pinned_segment_request(const std::string& ingress,
                                                 const std::string& egress,
                                                 double rate, double l_max) {
  FlowServiceRequest req;
  req.profile = TrafficProfile::make(l_max, rate, rate, l_max);
  req.e2e_delay_req = kPinnedSegmentDelayReq;
  req.ingress = ingress;
  req.egress = egress;
  return req;
}

// ---- Encoding (infallible) ----
/// `rid` is the client's idempotency key, carried on the wire so retries
/// can re-send the SAME identity (exactly-once at a durable broker).
WireBuffer encode(const FlowServiceRequest& msg, RequestId rid = kNoRequestId);
WireBuffer encode(const Reservation& msg);
WireBuffer encode(const RejectReply& msg);
WireBuffer encode(const EdgeConditionerConfig& msg);
WireBuffer encode(const TeardownRequest& msg);
WireBuffer encode(const OverloadedReply& msg);
WireBuffer encode(const HealthRequest& msg);
WireBuffer encode(const HealthReply& msg);
WireBuffer encode(const SnapshotDigestRequest& msg);
WireBuffer encode(const SnapshotDigestReply& msg);
WireBuffer encode(const PrepareSegment& msg);
WireBuffer encode(const PrepareReply& msg);
WireBuffer encode(const CommitSegment& msg);
WireBuffer encode(const AbortSegment& msg);
WireBuffer encode(const SegmentAck& msg);
WireBuffer encode(const FederatedDigestRequest& msg);
WireBuffer encode(const FederatedDigestReply& msg);

// ---- Decoding (hardened) ----
/// Type of a well-formed frame without decoding the body.
Result<MessageType> peek_type(const WireBuffer& buffer);

/// If `rid` is non-null it receives the request's idempotency key.
Result<FlowServiceRequest> decode_flow_service_request(
    const WireBuffer& buffer, RequestId* rid = nullptr);
Result<Reservation> decode_reservation(const WireBuffer& buffer);
Result<RejectReply> decode_reject_reply(const WireBuffer& buffer);
Result<EdgeConditionerConfig> decode_edge_conditioner_config(
    const WireBuffer& buffer);
Result<TeardownRequest> decode_teardown_request(const WireBuffer& buffer);
Result<OverloadedReply> decode_overloaded_reply(const WireBuffer& buffer);
Result<HealthRequest> decode_health_request(const WireBuffer& buffer);
Result<HealthReply> decode_health_reply(const WireBuffer& buffer);
Result<SnapshotDigestRequest> decode_snapshot_digest_request(
    const WireBuffer& buffer);
Result<SnapshotDigestReply> decode_snapshot_digest_reply(
    const WireBuffer& buffer);
Result<PrepareSegment> decode_prepare_segment(const WireBuffer& buffer);
Result<PrepareReply> decode_prepare_reply(const WireBuffer& buffer);
Result<CommitSegment> decode_commit_segment(const WireBuffer& buffer);
Result<AbortSegment> decode_abort_segment(const WireBuffer& buffer);
Result<SegmentAck> decode_segment_ack(const WireBuffer& buffer);
Result<FederatedDigestRequest> decode_federated_digest_request(
    const WireBuffer& buffer);
Result<FederatedDigestReply> decode_federated_digest_reply(
    const WireBuffer& buffer);

/// Low-level cursor primitives (exposed for tests and for extending the
/// protocol). All reads are bounds-checked.
class WireWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  /// Length-prefixed (u8) string, truncated to 255 bytes.
  void str(const std::string& v);
  /// Length-prefixed (u32) raw byte block (frame embedding, e.g. a snapshot
  /// inside a journal anchor record).
  void bytes(const WireBuffer& v);
  /// Unprefixed bytes, appended verbatim.
  void raw(std::span<const std::uint8_t> v);
  /// Overwrite four already-written bytes at `offset` with `v` (header
  /// fields that are only known once the bytes after them are written).
  void patch_u32(std::size_t offset, std::uint32_t v);
  /// Drop the contents and keep the capacity, so a long-lived writer
  /// encodes without allocating once it has grown.
  void clear() { buf_.clear(); }

  const WireBuffer& buffer() const { return buf_; }
  WireBuffer take() { return std::move(buf_); }

 private:
  WireBuffer buf_;
};

/// WireWriter's primitives, counting bytes instead of writing them: a
/// sizing pass over an encoder, for headers that precede what they size.
class WireSizer {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u16(std::uint16_t) { n_ += 2; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void i64(std::int64_t) { n_ += 8; }
  void f64(double) { n_ += 8; }
  void str(const std::string& v) {
    n_ += 1 + std::min<std::size_t>(v.size(), 255);
  }
  void raw(std::span<const std::uint8_t> v) { n_ += v.size(); }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// WireWriter's primitives, streamed: bytes collect in one buffer that is
/// handed to `sink` and cleared whenever it reaches kChunk bytes, so
/// encoding a message of any size holds about one chunk. After the sink
/// fails once, later bytes are dropped and flush() keeps returning that
/// error.
class WireStream {
 public:
  using Sink = std::function<Status(std::span<const std::uint8_t>)>;
  static constexpr std::size_t kChunk = 16 * 1024;

  explicit WireStream(Sink sink);

  void u8(std::uint8_t v) { w_.u8(v); spill(); }
  void u16(std::uint16_t v) { w_.u16(v); spill(); }
  void u32(std::uint32_t v) { w_.u32(v); spill(); }
  void u64(std::uint64_t v) { w_.u64(v); spill(); }
  void i64(std::int64_t v) { w_.i64(v); spill(); }
  void f64(double v) { w_.f64(v); spill(); }
  void str(const std::string& v) { w_.str(v); spill(); }
  void raw(std::span<const std::uint8_t> v) { w_.raw(v); spill(); }

  /// Hand the buffered bytes to the sink; the first sink error, if any.
  Status flush();

 private:
  void spill() {
    // A sink error sticks in status_; flush() reports it to the caller.
    if (w_.buffer().size() < kChunk) return;
    (void)flush();  // qosbb-lint: allow(discarded-status)
  }

  Sink sink_;
  WireWriter w_;
  Status status_ = Status::ok();
};

/// Bounds-checked cursor over a WireBuffer. A read that runs past the end
/// of the buffer fails with StatusCode::kTruncated — distinct from
/// kInvalidArgument (structural corruption) so that log-structured callers
/// (core/journal.cc) can tell "clean end of input" from "corrupt input".
///
/// A STREAMING reader (Mode::kStreaming) instead reports a read past the
/// end as kNeedMoreData: the buffer is a growing prefix of a byte stream
/// (a socket read buffer), so "ran out of bytes" means "wait for more",
/// not "the frame is damaged". Structural failures (bad magic, CRC
/// mismatch, non-finite floats) stay hard errors in both modes. A failed
/// read never advances the cursor, so a streaming caller can re-decode
/// from the same position once more bytes have arrived.
class WireReader {
 public:
  enum class Mode {
    kComplete,   ///< buffer holds the whole input: short read = kTruncated
    kStreaming,  ///< buffer is a stream prefix: short read = kNeedMoreData
  };

  explicit WireReader(const WireBuffer& buffer, Mode mode = Mode::kComplete)
      : buf_(buffer), mode_(mode) {}

  Result<std::uint8_t> u8();
  Result<std::uint16_t> u16();
  Result<std::uint32_t> u32();
  Result<std::uint64_t> u64();
  Result<std::int64_t> i64();
  /// Rejects NaN/Inf — wire floats must be finite.
  Result<double> f64();
  Result<std::string> str();
  Result<WireBuffer> bytes();

  std::size_t remaining() const { return buf_.size() - pos_; }
  bool exhausted() const { return pos_ == buf_.size(); }
  std::size_t position() const { return pos_; }
  Mode mode() const { return mode_; }

 private:
  /// Short-read status in this reader's mode.
  Status short_read(const char* what) const;

  const WireBuffer& buf_;
  std::size_t pos_ = 0;
  Mode mode_ = Mode::kComplete;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_WIRE_H_
