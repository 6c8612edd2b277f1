// Minimal blocking client for the qosbbd signaling protocol — the "edge
// router" side of the exchange, used by unit tests, examples, and the
// control paths of tools. (tools/loadgen.cc's closed and open loops only
// connect through BlockingClient and then drive the sockets non-blocking
// themselves; its chaos, probe and federated modes use RetryingClient.)

#ifndef QOSBB_NET_CLIENT_H_
#define QOSBB_NET_CLIENT_H_

#include <cstdint>
#include <string>

#include "core/wire.h"
#include "net/framing.h"
#include "util/backoff.h"
#include "util/rng.h"
#include "util/status.h"

namespace qosbb {

class BlockingClient {
 public:
  BlockingClient() = default;
  ~BlockingClient();
  BlockingClient(const BlockingClient&) = delete;
  BlockingClient& operator=(const BlockingClient&) = delete;

  /// `rcvbuf_bytes` > 0 shrinks SO_RCVBUF before connecting — backpressure
  /// tests use a tiny window to make the server's reply buffer back up.
  Status connect(const std::string& host, std::uint16_t port,
                 int rcvbuf_bytes = 0);
  void close();
  bool connected() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Frame and send one wire.h message (blocking full write).
  Status send_message(const WireBuffer& message_frame);
  /// Send raw bytes verbatim — hostile-input tests only.
  Status send_raw(const WireBuffer& bytes);
  /// Half-close the send side (signals end-of-requests to the server).
  void shutdown_send();

  /// Next reply payload (one wire.h message frame). Blocks up to
  /// `timeout_ms`; kUnavailable on timeout, kDataLoss on a corrupt stream,
  /// kNotFound on clean peer close with no pending frame.
  Result<WireBuffer> read_message(int timeout_ms = 5000);

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

struct RetryingClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Per-attempt reply wait; a timeout closes the connection (a late reply
  /// would desynchronize positional correlation) and retries.
  int reply_timeout_ms = 1000;
  /// Sleep schedule between attempts (reconnects and re-sends).
  BackoffPolicy backoff;
  /// Total send attempts per operation before giving up (>= 1).
  std::uint32_t max_attempts = 32;
  std::uint64_t rng_seed = 1;  ///< jitter determinism for tests
};

struct RetryingClientStats {
  std::uint64_t attempts = 0;    ///< frames sent (first tries + re-sends)
  std::uint64_t resends = 0;     ///< attempts beyond the first, per op
  std::uint64_t reconnects = 0;  ///< sockets (re)established after the first
  std::uint64_t timeouts = 0;    ///< reply waits that expired
  std::uint64_t sheds_seen = 0;  ///< kOverloadedReply received
};

/// At-least-once transport + exactly-once semantics: sends one message,
/// waits for its positional reply, and on timeout / connection loss /
/// overload backs off (capped, jittered), reconnects, and RE-SENDS THE SAME
/// BYTES — same embedded RequestId — so a DurableBroker backend dedups the
/// retry into the originally recorded decision. One operation in flight at
/// a time: after a reconnect there is no stale pipeline to mis-correlate.
///
/// Not thread-safe; make one per client thread.
class RetryingClient {
 public:
  explicit RetryingClient(RetryingClientOptions options);

  /// Send `message_frame` and return its reply payload, retrying through
  /// failures. With `retry_overloaded` false a kOverloadedReply is returned
  /// to the caller instead of retried (probes that want to OBSERVE sheds).
  /// kUnavailable once max_attempts is exhausted.
  Result<WireBuffer> call(const WireBuffer& message_frame,
                          bool retry_overloaded = true);

  /// Typed helpers over call(). `admit` returns the reservation, or
  /// kRejected carrying the broker's reason for an executed-but-denied
  /// request (NOT a transport failure, do not retry).
  Result<Reservation> admit(const FlowServiceRequest& request, RequestId rid);
  /// Teardown ack. kNotFound when the broker does not know the flow.
  Status teardown(FlowId flow, RequestId rid);
  Result<HealthReply> health();
  /// Expensive probe; by design NOT retried through overload — returns
  /// kUnavailable("shed: ...") when the server browned it out.
  Result<SnapshotDigestReply> snapshot_digest();

  /// Federation 2PC ops (coordinator -> member). All retry the SAME bytes
  /// — the embedded rids make them exactly-once at a durable member even
  /// across a member crash/restart mid-transaction.
  Result<PrepareReply> prepare(const PrepareSegment& request);
  Result<SegmentAck> commit_segment(const CommitSegment& request);
  Result<SegmentAck> abort_segment(const AbortSegment& request);
  /// Member-state probe; retried through overload (audits can wait out a
  /// brownout window).
  Result<FederatedDigestReply> federated_digest();

  void close() { conn_.close(); }
  const RetryingClientStats& stats() const { return stats_; }

 private:
  /// Connected socket or a status after exhausting the backoff budget.
  Status ensure_connected();
  void backoff_sleep();

  RetryingClientOptions options_;
  BlockingClient conn_;
  Backoff backoff_;
  RetryingClientStats stats_;
  bool ever_connected_ = false;
};

}  // namespace qosbb

#endif  // QOSBB_NET_CLIENT_H_
