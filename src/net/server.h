// The bandwidth broker as a network service: an epoll event-loop signaling
// server (the process behind tools/qosbbd.cc).
//
// The paper's BB is signaled by edge routers over the network (Section 2.2
// names COPS); this server is that front. Each TCP connection carries a
// pipelined stream of net frames (net/framing.h), each holding one wire.h
// signaling message. Requests on one connection are answered IN ORDER, so
// a client correlates replies positionally — the same discipline as
// pipelined HTTP/1.1 — and can keep hundreds of requests in flight.
//
// Dispatch is BATCHED: one readable-socket drain decodes every complete
// frame buffered on the connection, and consecutive admits and teardowns
// share one slab of at most 256 ops, executed by one execute_batch call in
// the slab's defined order (each admit run in batch_grouped_order, each
// teardown in its position), so per-connection operation order is
// preserved. Every live decision is made by ConcurrentBrokerFront (one
// snapshot capture + one group OCC commit per same-pair group instead of
// per-request work). In memory the server calls the front directly;
// against a DurableBroker it calls the durable broker, which deduplicates,
// lets the same front decide, and commits the whole slab as ONE journal
// append (group commit). Both modes send the same replies.
//
// Backpressure: replies accumulate in a per-connection write buffer that
// is flushed opportunistically and on EPOLLOUT. When a slow reader's
// buffer crosses the high watermark the server STOPS READING that
// connection (EPOLLIN removed) until the buffer drains below the low
// watermark — memory stays bounded and TCP flow control pushes back to
// the client; other connections are unaffected.
//
// Every executed operation can be recorded (ServerOptions::record_ops) in
// its exact library-level execution order — slabs expanded in
// slab_execution_order, the order execute_batch defines its semantics in —
// so that run_differential_check() can replay the whole session through a
// fresh library-level front and demand a bit-identical state digest: the
// proof that the network path (framing -> decode -> batch dispatch)
// admitted exactly what the library would have.
//
// Overload policy (DESIGN.md §13): decoded operations land in a
// per-connection PENDING QUEUE before dispatch. An op that arrives past the
// per-connection or global in-flight budget is marked SHED at enqueue and
// answered with an explicit kOverloadedReply in its positional slot — shed,
// never stall, and never out of order. Ops that waited in the queue longer
// than the per-request deadline are shed at dispatch (the work is stale
// before it runs). A brownout latch engages while budgets are actively
// shedding (and for brownout_window_ms after) and sheds EXPENSIVE ops
// (snapshot digests) at enqueue while admits keep flowing; Health probes
// are never shed, so degradation stays observable exactly when it matters.
// Connections stuck mid-frame longer than partial_frame_timeout_ms
// (slowloris) and — optionally — fully idle connections are reaped by a
// periodic sweep. A shed operation was NOT executed: retrying it with the
// same RequestId is always safe, and exactly-once against a DurableBroker
// backend (the dedup window replays the recorded decision).

#ifndef QOSBB_NET_SERVER_H_
#define QOSBB_NET_SERVER_H_

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/wire.h"
#include "net/framing.h"
#include "util/status.h"

namespace qosbb {

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral; QosbbServer::port() reports it
  int backlog = 256;
  /// Stop reading a connection when its unflushed reply bytes exceed this.
  std::size_t write_high_watermark = 1u << 20;
  /// Resume reading once the backlog drains below this.
  std::size_t write_low_watermark = 64u << 10;
  /// Keep the executed-op log for run_differential_check (costs memory
  /// proportional to the session; off for long-lived production runs).
  bool record_ops = false;
  /// Wall-clock budget for the stop-drain (serve already-received work and
  /// flush pending replies), ms.
  int drain_timeout_ms = 5000;

  // ---- Overload control (0 disables the individual knob) ----
  /// Queued-but-undispatched ops one connection may hold; excess is shed
  /// with kOverloadedReply (ShedReason::kConnBudget).
  std::size_t max_inflight_per_conn = 1024;
  /// Queued-but-undispatched ops across ALL connections; excess is shed
  /// with ShedReason::kGlobalBudget.
  std::size_t max_inflight_global = 8192;
  /// Ops that waited in the pending queue longer than this are shed at
  /// dispatch (ShedReason::kDeadline) instead of executing stale work.
  int request_deadline_ms = 0;
  /// Brownout latch: after any budget/deadline shed, expensive ops
  /// (snapshot digests) are shed for this long (ShedReason::kBrownout).
  int brownout_window_ms = 1000;
  /// Instantaneous brownout trigger: global pending at/above this sheds
  /// expensive ops even before the first budget shed.
  std::size_t brownout_inflight = 4096;
  /// A connection holding an incomplete frame with no completed frame for
  /// this long is closed (slowloris defence).
  int partial_frame_timeout_ms = 30000;
  /// A fully idle connection (no pending ops, no buffered bytes) older
  /// than this is closed. Off by default: signaling clients legitimately
  /// idle between flows.
  int idle_timeout_ms = 0;
  /// Backoff hint stamped into kOverloadedReply.retry_after_ms.
  std::uint32_t retry_after_hint_ms = 50;
  /// SO_SNDBUF for accepted connections (0 = kernel default). Tests use a
  /// tiny value so the kernel cannot absorb replies and backpressure /
  /// deadline behavior becomes observable at small request counts.
  int sndbuf_bytes = 0;
};

struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t admit_requests = 0;
  std::uint64_t admits = 0;
  std::uint64_t rejects = 0;
  std::uint64_t teardowns = 0;
  std::uint64_t teardown_failures = 0;
  /// Corrupt frames / undecodable messages; each closes its connection.
  std::uint64_t decode_errors = 0;
  std::uint64_t batches = 0;           ///< admit runs dispatched
  std::uint64_t batched_requests = 0;  ///< admit requests inside them
  std::uint64_t backpressure_pauses = 0;
  // Overload-control counters (see the header comment).
  std::uint64_t shed_global = 0;    ///< sheds: global in-flight budget
  std::uint64_t shed_conn = 0;      ///< sheds: per-connection budget
  std::uint64_t shed_deadline = 0;  ///< sheds: queued past the deadline
  std::uint64_t shed_brownout = 0;  ///< sheds: expensive op in brownout
  std::uint64_t reaped_partial = 0;  ///< conns closed mid-frame (slowloris)
  std::uint64_t reaped_idle = 0;     ///< conns closed idle
  std::uint64_t health_requests = 0;
  std::uint64_t digest_requests = 0;  ///< served (non-shed) digest probes
  // Federation member ops (coordinator -> this broker).
  std::uint64_t prepares = 0;          ///< PrepareSegment executed
  std::uint64_t prepare_failures = 0;  ///< ... that answered prepared=false
  std::uint64_t commits = 0;           ///< CommitSegment executed
  std::uint64_t aborts = 0;            ///< AbortSegment executed
  std::uint64_t fed_digest_requests = 0;

  std::uint64_t sheds() const {
    return shed_global + shed_conn + shed_deadline + shed_brownout;
  }
};

/// One library-level operation the server executed, in execution order.
struct RecordedOp {
  enum class Kind : std::uint8_t { kProvision, kAdmit, kRelease };
  Kind kind = Kind::kAdmit;
  FlowServiceRequest request;  ///< kAdmit
  std::string ingress, egress;  ///< kProvision
  FlowId flow = kInvalidFlowId;  ///< kRelease target
  // Recorded decision (kAdmit): replay must reproduce it exactly.
  bool admitted = false;
  FlowId assigned_flow = kInvalidFlowId;
};

class QosbbServer {
 public:
  /// Serve admissions through the concurrent front (in-memory state).
  QosbbServer(ConcurrentBrokerFront& front, ServerOptions options);
  /// Serve admissions through the durable broker (journaled state).
  QosbbServer(DurableBroker& durable, ServerOptions options);
  ~QosbbServer();

  QosbbServer(const QosbbServer&) = delete;
  QosbbServer& operator=(const QosbbServer&) = delete;

  /// Bind + listen + epoll setup. After OK, port() is the bound port.
  Status start();
  /// Event loop; returns after request_stop() (or a fatal epoll error)
  /// once pending replies are drained.
  void run();
  /// Ask the loop to stop and drain. Callable from any thread AND from a
  /// signal handler (one async-signal-safe write on a pipe).
  void request_stop();

  std::uint16_t port() const { return port_; }
  const ServerStats& stats() const { return stats_; }
  const std::vector<RecordedOp>& recorded_ops() const { return ops_; }

  /// Provision the candidate routes for a signaling endpoint pair up front
  /// (and record it), so the admit fast path never escalates on first use.
  Status provision_pair(const std::string& ingress, const std::string& egress);

  /// The live broker behind whichever dispatch mode was configured.
  BandwidthBroker& broker();

 private:
  struct Conn;
  using Clock = std::chrono::steady_clock;

  /// One decoded-but-undispatched operation in a connection's pending
  /// queue. Replies are emitted in queue order (positional correlation),
  /// so a shed op is kept in its slot with `shed` set rather than answered
  /// out of band.
  struct PendingOp {
    enum class Kind : std::uint8_t {
      kAdmit,
      kTeardown,
      kHealth,
      kDigest,
      kPrepare,    ///< federation 2PC phase 1
      kCommit,     ///< federation 2PC phase 2
      kAbort,      ///< federation 2PC rollback
      kFedDigest,  ///< federation member-state probe (expensive: brownout)
      kError,  ///< protocol failure: reply + close_after_flush at dispatch
    };
    Kind kind = Kind::kAdmit;
    FlowServiceRequest request;        ///< kAdmit
    RequestId rid = kNoRequestId;      ///< kAdmit / kTeardown
    FlowId flow = kInvalidFlowId;      ///< kTeardown
    std::string detail;                ///< kError
    PrepareSegment prepare;            ///< kPrepare
    CommitSegment commit;              ///< kCommit
    AbortSegment abort;                ///< kAbort
    ShedReason shed = ShedReason::kNone;
    Clock::time_point enqueued;
  };

  void accept_ready();
  void conn_readable(Conn& c);
  void conn_writable(Conn& c);
  /// Decode every complete frame the decoder holds into the pending queue,
  /// classifying sheds against the in-flight budgets at enqueue time.
  void decode_frames(Conn& c);
  /// Classify one decoded op against the budgets and append it.
  void enqueue_op(Conn& c, PendingOp op);
  /// Dispatch queued ops in order until the queue empties or the write
  /// backlog crosses the high watermark; expire deadline-stale ops.
  void dispatch_pending(Conn& c);
  /// dispatch_pending + flush + backpressure-resume + close bookkeeping.
  void service_conn(Conn& c);
  /// Execute the pending slab (slab_) and queue its replies in position
  /// order.
  void dispatch_slab(Conn& c);
  void dispatch_digest(Conn& c);
  void dispatch_prepare(Conn& c, const PrepareSegment& p);
  void dispatch_commit(Conn& c, const CommitSegment& m);
  void dispatch_abort(Conn& c, const AbortSegment& a);
  void dispatch_fed_digest(Conn& c);
  HealthReply make_health_reply();
  /// True while the brownout gate sheds expensive ops.
  bool brownout_active(Clock::time_point now) const;
  /// Reap slowloris / idle connections; returns the epoll tick (ms).
  void reap_stale_conns(Clock::time_point now);
  int epoll_timeout_ms() const;
  /// Frame + queue one reply message.
  void queue_reply(Conn& c, const WireBuffer& message_frame);
  void queue_overloaded(Conn& c, ShedReason reason);
  void try_flush(Conn& c);
  void update_interest(Conn& c);
  void close_conn(Conn& c);
  void sweep_dead_conns();
  void drain_and_exit();

  /// Execute `ops` on whichever backend was configured, into outcomes_.
  void execute_slab(std::span<const SlabOp> ops);
  /// Log one executed op for run_differential_check (record_ops only).
  void record(const SlabOp& op, const FrontOutcome& out);
  /// One federation sub-operation (a segment or contingency admit, or a
  /// teardown) as a single-op slab, recorded like a client op.
  FrontOutcome fed_execute(const SlabOp& op);
  /// One federation teardown; kInvalidFlowId is a no-op success.
  Status fed_release(FlowId flow, RequestId rid);

  ConcurrentBrokerFront* front_ = nullptr;
  DurableBroker* durable_ = nullptr;

  ServerOptions options_;
  ServerStats stats_;
  std::vector<RecordedOp> ops_;

  // Dispatch buffers, reused across slabs. start() reserves slab_requests_
  // to the slab cap, so the request pointers in slab_ stay valid.
  std::vector<FlowServiceRequest> slab_requests_;
  std::vector<SlabOp> slab_;
  std::vector<FrontOutcome> outcomes_;  ///< parallel to the executed slab
  std::vector<std::size_t> order_;      ///< record_ops execution order

  int epoll_fd_ = -1;
  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe for request_stop
  std::uint16_t port_ = 0;
  bool stopping_ = false;
  std::vector<Conn*> conns_;  ///< live connections (owned)
  std::size_t global_inflight_ = 0;  ///< non-shed pending ops, all conns
  Clock::time_point last_budget_shed_{};  ///< brownout latch anchor
};

/// CRC-32 fingerprint of the broker's full snapshot frame (requires a
/// quiescent broker — always true for a drained per-flow signaling server).
Result<std::uint32_t> broker_state_digest(const BandwidthBroker& bb);

/// Replay `ops` (a QosbbServer recorded session) through a fresh
/// library-level broker + concurrent front built from the same domain and
/// options, checking every recorded admit decision (admit bit + assigned
/// flow id) and finally comparing full snapshot frames byte-for-byte
/// against `live`.
struct DifferentialReport {
  bool ok = false;
  std::string detail;
  std::size_t ops_replayed = 0;
  std::uint32_t live_digest = 0;
  std::uint32_t replay_digest = 0;
};
DifferentialReport run_differential_check(const DomainSpec& spec,
                                          const BrokerOptions& options,
                                          const std::vector<RecordedOp>& ops,
                                          const BandwidthBroker& live);

}  // namespace qosbb

#endif  // QOSBB_NET_SERVER_H_
