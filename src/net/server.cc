#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <sstream>

#include "core/journal.h"

namespace qosbb {
namespace {

/// One epoll_wait batch. Events per fd are coalesced, so a connection sees
/// at most one event per batch — handlers may close it without another
/// event in the same batch dangling.
constexpr int kMaxEpollEvents = 128;
constexpr std::size_t kReadChunk = 64u << 10;
/// Largest dispatch slab: admits and teardowns for one execute_batch call
/// (one journal append, journaled).
constexpr std::size_t kMaxAdmitBatch = 256;

Status errno_status(const char* what) {
  return Status::internal(std::string(what) + ": " + std::strerror(errno));
}

/// The detail a reject reply carries: the admission test's diagnosis, or
/// the status message when no test ran (policy, replayed decisions).
std::string reject_detail(const FrontOutcome& o) {
  return o.outcome.detail.empty() ? o.result.status().message()
                                  : o.outcome.detail;
}

}  // namespace

struct QosbbServer::Conn {
  int fd = -1;
  FrameDecoder decoder;
  std::deque<PendingOp> pending;  ///< decoded, awaiting dispatch (in order)
  std::size_t inflight = 0;       ///< non-shed entries in `pending`
  WireBuffer out;
  std::size_t out_pos = 0;
  std::uint32_t events = 0;  ///< current epoll interest set
  bool paused = false;       ///< reading suspended (write backpressure)
  bool want_write = false;
  bool close_after_flush = false;
  bool read_closed = false;   ///< peer half-closed; quiesce then close
  bool stop_decoding = false; ///< protocol error queued; ignore later bytes
  bool dead = false;
  std::size_t index = 0;  ///< position in conns_
  Clock::time_point last_activity{};  ///< last byte read (idle reaping)
  Clock::time_point last_progress{};  ///< last completed frame (slowloris)

  std::size_t backlog() const { return out.size() - out_pos; }
};

QosbbServer::QosbbServer(ConcurrentBrokerFront& front, ServerOptions options)
    : front_(&front), options_(std::move(options)) {}

QosbbServer::QosbbServer(DurableBroker& durable, ServerOptions options)
    : durable_(&durable), options_(std::move(options)) {}

QosbbServer::~QosbbServer() {
  for (Conn* c : conns_) {
    if (c->fd >= 0) ::close(c->fd);
    delete c;
  }
  conns_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  for (int fd : wake_fds_) {
    if (fd >= 0) ::close(fd);
  }
}

BandwidthBroker& QosbbServer::broker() {
  return front_ != nullptr ? front_->broker() : durable_->broker();
}

Status QosbbServer::start() {
  slab_requests_.reserve(kMaxAdmitBatch);
  if (::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) != 0) {
    return errno_status("pipe2");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return errno_status("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::invalid_argument("bad bind address: " +
                                    options_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return errno_status("bind");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    &addr_len) != 0) {
    return errno_status("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return errno_status("listen");
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return errno_status("epoll_create1");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = &listen_fd_;  // sentinel tag: the listen socket
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return errno_status("epoll_ctl(listen)");
  }
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_fds_[0];  // sentinel tag: the stop pipe
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fds_[0], &ev) != 0) {
    return errno_status("epoll_ctl(wake)");
  }
  return Status::ok();
}

void QosbbServer::request_stop() {
  const char byte = 's';
  // Async-signal-safe; a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] ssize_t n = ::write(wake_fds_[1], &byte, 1);
}

int QosbbServer::epoll_timeout_ms() const {
  // Wake periodically only when there is something a timer could act on:
  // stale-connection reaping or deadline expiry of queued (backpressured)
  // work. Otherwise sleep until a socket fires.
  if (conns_.empty()) return -1;
  if (options_.partial_frame_timeout_ms <= 0 &&
      options_.idle_timeout_ms <= 0 && options_.request_deadline_ms <= 0) {
    return -1;
  }
  return 100;
}

void QosbbServer::sweep_dead_conns() {
  for (std::size_t i = 0; i < conns_.size();) {
    if (!conns_[i]->dead) {
      ++i;
      continue;
    }
    Conn* dead = conns_[i];
    Conn* last = conns_.back();
    conns_[i] = last;
    last->index = i;
    conns_.pop_back();
    delete dead;
  }
}

void QosbbServer::reap_stale_conns(Clock::time_point now) {
  for (Conn* c : conns_) {
    if (c->dead) continue;
    if (options_.partial_frame_timeout_ms > 0 && c->decoder.buffered() > 0 &&
        now - c->last_progress >
            std::chrono::milliseconds(options_.partial_frame_timeout_ms)) {
      ++stats_.reaped_partial;
      close_conn(*c);
      continue;
    }
    if (options_.idle_timeout_ms > 0 && c->pending.empty() &&
        c->backlog() == 0 && c->decoder.buffered() == 0 &&
        now - c->last_activity >
            std::chrono::milliseconds(options_.idle_timeout_ms)) {
      ++stats_.reaped_idle;
      close_conn(*c);
    }
  }
}

void QosbbServer::run() {
  epoll_event events[kMaxEpollEvents];
  while (!stopping_) {
    const int n =
        ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, epoll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &listen_fd_) {
        accept_ready();
        continue;
      }
      if (tag == &wake_fds_[0]) {
        char sink[16];
        while (::read(wake_fds_[0], sink, sizeof(sink)) > 0) {
        }
        stopping_ = true;
        continue;
      }
      Conn& c = *static_cast<Conn*>(tag);
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
          !c.dead) {
        conn_readable(c);
      }
      if ((events[i].events & EPOLLOUT) != 0 && !c.dead) {
        conn_writable(c);
      }
    }
    const auto now = Clock::now();
    reap_stale_conns(now);
    // A paused (backpressured) connection gets no socket events until the
    // peer reads, but its queued work still ages: expire deadlines on the
    // timer tick so a stalled peer cannot pin stale ops forever.
    if (options_.request_deadline_ms > 0) {
      for (Conn* c : conns_) {
        if (!c->dead && !c->pending.empty()) service_conn(*c);
      }
    }
    sweep_dead_conns();
  }
  drain_and_exit();
}

void QosbbServer::drain_and_exit() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Serve what has already been received: decode, dispatch, flush. The
  // drain keeps READING too — a client that pipelined a batch just before
  // the stop signal still gets every reply (bounded by drain_timeout_ms).
  for (Conn* c : conns_) {
    if (!c->dead) {
      decode_frames(*c);
      service_conn(*c);
    }
  }
  sweep_dead_conns();
  const auto deadline = Clock::now() +
                        std::chrono::milliseconds(options_.drain_timeout_ms);
  epoll_event events[kMaxEpollEvents];
  auto quiesced = [&] {
    for (Conn* c : conns_) {
      if (!c->dead && (c->backlog() > 0 || !c->pending.empty())) return false;
    }
    return true;
  };
  while (!quiesced() && Clock::now() < deadline) {
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEpollEvents, 50);
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &listen_fd_ || tag == &wake_fds_[0]) continue;
      Conn& c = *static_cast<Conn*>(tag);
      if ((events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0 &&
          !c.dead) {
        conn_readable(c);
      }
      if ((events[i].events & EPOLLOUT) != 0 && !c.dead) conn_writable(c);
    }
    // Deadline-expire and re-flush backpressured queues during the drain.
    for (Conn* c : conns_) {
      if (!c->dead && !c->pending.empty()) service_conn(*c);
    }
    sweep_dead_conns();
  }
  for (Conn* c : conns_) {
    if (!c->dead) close_conn(*c);
    delete c;
  }
  conns_.clear();
}

void QosbbServer::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.sndbuf_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.sndbuf_bytes,
                   sizeof(options_.sndbuf_bytes));
    }
    auto* c = new Conn();
    c->fd = fd;
    c->index = conns_.size();
    c->events = EPOLLIN;
    c->last_activity = Clock::now();
    c->last_progress = c->last_activity;
    conns_.push_back(c);
    epoll_event ev{};
    ev.events = c->events;
    ev.data.ptr = c;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      conns_.pop_back();
      ::close(fd);
      delete c;
      continue;
    }
    ++stats_.connections_accepted;
  }
}

void QosbbServer::conn_readable(Conn& c) {
  std::uint8_t chunk[kReadChunk];
  bool peer_closed = false;
  bool read_any = false;
  while (!c.paused && !c.close_after_flush) {
    const ssize_t n = ::read(c.fd, chunk, sizeof(chunk));
    if (n > 0) {
      read_any = true;
      stats_.bytes_in += static_cast<std::uint64_t>(n);
      c.decoder.feed(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) break;
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    peer_closed = true;
    break;
  }
  if (read_any) c.last_activity = Clock::now();
  if (peer_closed) c.read_closed = true;
  decode_frames(c);
  service_conn(c);
}

void QosbbServer::conn_writable(Conn& c) {
  try_flush(c);
  if (c.dead) return;
  service_conn(c);
}

void QosbbServer::service_conn(Conn& c) {
  dispatch_pending(c);
  try_flush(c);
  // If the flush already drained below the low watermark, resume NOW: a
  // fully-flushed pause leaves no pending EPOLLOUT to resume it later.
  while (!c.dead && c.paused && c.backlog() < options_.write_low_watermark) {
    c.paused = false;
    dispatch_pending(c);
    try_flush(c);
  }
  if (c.dead) return;
  if (c.read_closed && c.pending.empty()) {
    // Half-close: every received op has been answered; tear the connection
    // down once the replies are flushed.
    c.close_after_flush = true;
    if (c.backlog() == 0) {
      close_conn(c);
      return;
    }
  }
  update_interest(c);
}

bool QosbbServer::brownout_active(Clock::time_point now) const {
  if (options_.brownout_inflight > 0 &&
      global_inflight_ >= options_.brownout_inflight) {
    return true;
  }
  return options_.brownout_window_ms > 0 &&
         last_budget_shed_.time_since_epoch().count() != 0 &&
         now - last_budget_shed_ <=
             std::chrono::milliseconds(options_.brownout_window_ms);
}

void QosbbServer::enqueue_op(Conn& c, PendingOp op) {
  op.enqueued = Clock::now();
  // Health probes bypass the budgets entirely: they are constant-cost and
  // exist to observe exactly the states where everything else is shed.
  if (op.kind != PendingOp::Kind::kHealth &&
      op.kind != PendingOp::Kind::kError) {
    if (options_.max_inflight_global > 0 &&
        global_inflight_ >= options_.max_inflight_global) {
      op.shed = ShedReason::kGlobalBudget;
      ++stats_.shed_global;
      last_budget_shed_ = op.enqueued;
    } else if (options_.max_inflight_per_conn > 0 &&
               c.inflight >= options_.max_inflight_per_conn) {
      op.shed = ShedReason::kConnBudget;
      ++stats_.shed_conn;
      last_budget_shed_ = op.enqueued;
    } else if ((op.kind == PendingOp::Kind::kDigest ||
                op.kind == PendingOp::Kind::kFedDigest) &&
               brownout_active(op.enqueued)) {
      // Brownout: shed the expensive op while admits keep flowing. Does
      // NOT feed the latch — brownout must decay once budget sheds stop.
      op.shed = ShedReason::kBrownout;
      ++stats_.shed_brownout;
    } else {
      ++global_inflight_;
      ++c.inflight;
    }
  }
  c.pending.push_back(std::move(op));
}

void QosbbServer::decode_frames(Conn& c) {
  while (!c.stop_decoding) {
    auto frame = c.decoder.next();
    if (!frame.is_ok()) {
      if (frame.status().code() == StatusCode::kNeedMoreData) break;
      ++stats_.decode_errors;
      PendingOp err;
      err.kind = PendingOp::Kind::kError;
      err.detail = frame.status().message();
      enqueue_op(c, std::move(err));
      c.stop_decoding = true;
      break;
    }
    ++stats_.frames_in;
    c.last_progress = Clock::now();
    const WireBuffer& payload = frame.value();
    PendingOp op;
    Status decoded = Status::ok();
    auto type = peek_type(payload);
    if (!type.is_ok()) {
      decoded = type.status();
    } else {
      switch (type.value()) {
        case MessageType::kFlowServiceRequest: {
          auto req = decode_flow_service_request(payload, &op.rid);
          if (!req.is_ok()) {
            decoded = req.status();
          } else {
            op.kind = PendingOp::Kind::kAdmit;
            op.request = std::move(req).value();
            ++stats_.admit_requests;
          }
          break;
        }
        case MessageType::kTeardownRequest: {
          auto td = decode_teardown_request(payload);
          if (!td.is_ok()) {
            decoded = td.status();
          } else {
            op.kind = PendingOp::Kind::kTeardown;
            op.flow = td.value().flow;
            op.rid = td.value().rid;
          }
          break;
        }
        case MessageType::kHealthRequest: {
          auto hr = decode_health_request(payload);
          if (!hr.is_ok()) {
            decoded = hr.status();
          } else {
            op.kind = PendingOp::Kind::kHealth;
          }
          break;
        }
        case MessageType::kSnapshotDigestRequest: {
          auto dr = decode_snapshot_digest_request(payload);
          if (!dr.is_ok()) {
            decoded = dr.status();
          } else {
            op.kind = PendingOp::Kind::kDigest;
          }
          break;
        }
        case MessageType::kPrepareSegment: {
          auto pr = decode_prepare_segment(payload);
          if (!pr.is_ok()) {
            decoded = pr.status();
          } else {
            op.kind = PendingOp::Kind::kPrepare;
            op.prepare = std::move(pr).value();
          }
          break;
        }
        case MessageType::kCommitSegment: {
          auto cm = decode_commit_segment(payload);
          if (!cm.is_ok()) {
            decoded = cm.status();
          } else {
            op.kind = PendingOp::Kind::kCommit;
            op.commit = cm.value();
          }
          break;
        }
        case MessageType::kAbortSegment: {
          auto ab = decode_abort_segment(payload);
          if (!ab.is_ok()) {
            decoded = ab.status();
          } else {
            op.kind = PendingOp::Kind::kAbort;
            op.abort = ab.value();
          }
          break;
        }
        case MessageType::kFederatedDigestRequest: {
          auto fr = decode_federated_digest_request(payload);
          if (!fr.is_ok()) {
            decoded = fr.status();
          } else {
            op.kind = PendingOp::Kind::kFedDigest;
          }
          break;
        }
        default:
          decoded = Status::invalid_argument("unexpected message type");
          break;
      }
    }
    if (!decoded.is_ok()) {
      ++stats_.decode_errors;
      PendingOp err;
      err.kind = PendingOp::Kind::kError;
      err.detail = decoded.message();
      enqueue_op(c, std::move(err));
      c.stop_decoding = true;
      break;
    }
    enqueue_op(c, std::move(op));
  }
}

void QosbbServer::dispatch_pending(Conn& c) {
  const auto deadline = std::chrono::milliseconds(
      options_.request_deadline_ms > 0 ? options_.request_deadline_ms : 0);
  while (!c.pending.empty() && !c.close_after_flush) {
    if (c.backlog() >= options_.write_high_watermark) {
      if (!c.paused) {
        c.paused = true;
        ++stats_.backpressure_pauses;
      }
      break;
    }
    PendingOp op = std::move(c.pending.front());
    c.pending.pop_front();
    if (op.shed != ShedReason::kNone) {
      // Flush the accumulated slab first: replies are correlated by
      // POSITION, so the shed notice must not overtake earlier admits.
      dispatch_slab(c);
      queue_overloaded(c, op.shed);
      continue;
    }
    const bool counted = op.kind != PendingOp::Kind::kHealth &&
                         op.kind != PendingOp::Kind::kError;
    if (counted) {
      --global_inflight_;
      --c.inflight;
    }
    if (counted && deadline.count() > 0 &&
        Clock::now() - op.enqueued > deadline) {
      // The op went stale waiting behind a slow reader or a long queue:
      // executing it now would burn broker time on an answer the client
      // has already given up on. Shed it in its positional slot.
      ++stats_.shed_deadline;
      last_budget_shed_ = Clock::now();
      dispatch_slab(c);  // positional order, as above
      queue_overloaded(c, ShedReason::kDeadline);
      continue;
    }
    switch (op.kind) {
      case PendingOp::Kind::kAdmit:
      case PendingOp::Kind::kTeardown:
        // Per-connection order of operations is part of the protocol
        // contract: a teardown joins the slab and execute_batch runs it in
        // its position.
        if (op.kind == PendingOp::Kind::kAdmit) {
          slab_requests_.push_back(std::move(op.request));
          slab_.push_back(SlabOp::admit(op.rid, slab_requests_.back()));
        } else {
          slab_.push_back(SlabOp::release(op.rid, op.flow));
        }
        // Bound both the backend call's latency and the reply bytes a
        // single slab can queue before the watermark check at the loop top
        // sees them (and keep slab_requests_ within its reservation).
        if (slab_.size() >= kMaxAdmitBatch) dispatch_slab(c);
        continue;
      case PendingOp::Kind::kHealth:
        dispatch_slab(c);
        ++stats_.health_requests;
        queue_reply(c, encode(make_health_reply()));
        continue;
      case PendingOp::Kind::kDigest:
        dispatch_slab(c);
        dispatch_digest(c);
        continue;
      case PendingOp::Kind::kPrepare:
        // Federation ops end the slab: their member sub-operations must
        // execute in their positional slot.
        dispatch_slab(c);
        dispatch_prepare(c, op.prepare);
        continue;
      case PendingOp::Kind::kCommit:
        dispatch_slab(c);
        dispatch_commit(c, op.commit);
        continue;
      case PendingOp::Kind::kAbort:
        dispatch_slab(c);
        dispatch_abort(c, op.abort);
        continue;
      case PendingOp::Kind::kFedDigest:
        dispatch_slab(c);
        dispatch_fed_digest(c);
        continue;
      case PendingOp::Kind::kError:
        dispatch_slab(c);
        queue_reply(c, encode(RejectReply{RejectReason::kPolicy,
                                          "protocol error: " + op.detail}));
        c.close_after_flush = true;
        continue;
    }
  }
  dispatch_slab(c);
}

void QosbbServer::execute_slab(std::span<const SlabOp> ops) {
  // Durable mode: the CLIENT's rid is the idempotency key — a retried
  // request re-sends the same rid and the dedup window replays the recorded
  // decision (exactly-once across reconnects and server restarts).
  // kNoRequestId members are journaled but never deduplicated.
  outcomes_.resize(ops.size());
  if (durable_ != nullptr) {
    durable_->execute_batch(ops, 0.0, outcomes_);
  } else {
    front_->execute_batch(ops, 0.0, outcomes_);
  }
}

void QosbbServer::record(const SlabOp& op, const FrontOutcome& out) {
  if (!options_.record_ops) return;
  RecordedOp rec;
  if (op.is_admit()) {
    rec.kind = RecordedOp::Kind::kAdmit;
    rec.request = *op.request;
    rec.admitted = out.result.is_ok();
    rec.assigned_flow =
        rec.admitted ? out.result.value().flow : kInvalidFlowId;
  } else {
    if (!out.result.is_ok()) return;
    rec.kind = RecordedOp::Kind::kRelease;
    rec.flow = op.flow;
  }
  ops_.push_back(std::move(rec));
}

void QosbbServer::dispatch_slab(Conn& c) {
  if (slab_.empty()) return;
  execute_slab(slab_);
  // The batch counters count admit runs; record_ops logs the library-level
  // execution order execute_batch defines its semantics in.
  for (std::size_t i = 0; i < slab_.size(); ++i) {
    if (!slab_[i].is_admit()) continue;
    ++stats_.batched_requests;
    if (i == 0 || !slab_[i - 1].is_admit()) ++stats_.batches;
  }
  if (options_.record_ops) {
    slab_execution_order(slab_, &order_);
    for (const std::size_t i : order_) record(slab_[i], outcomes_[i]);
  }
  for (std::size_t i = 0; i < slab_.size(); ++i) {
    const FrontOutcome& o = outcomes_[i];
    if (!slab_[i].is_admit()) {
      if (o.result.is_ok()) {
        ++stats_.teardowns;
        // Generic status ack: a RejectReply whose reason is kNone means
        // "operation succeeded" (teardowns have no richer reply message).
        queue_reply(c, encode(RejectReply{RejectReason::kNone, "torn-down"}));
      } else {
        ++stats_.teardown_failures;
        queue_reply(c, encode(RejectReply{RejectReason::kPolicy,
                                          o.result.status().message()}));
      }
    } else if (o.result.is_ok()) {
      ++stats_.admits;
      queue_reply(c, encode(o.result.value()));
    } else {
      ++stats_.rejects;
      queue_reply(c, encode(RejectReply{o.outcome.reason, reject_detail(o)}));
    }
  }
  slab_.clear();
  slab_requests_.clear();
}

HealthReply QosbbServer::make_health_reply() {
  HealthReply h;
  h.inflight = global_inflight_;
  h.connections = conns_.size();
  h.admits = stats_.admits;
  h.rejects = stats_.rejects;
  h.shed_global = stats_.shed_global;
  h.shed_conn = stats_.shed_conn;
  h.shed_deadline = stats_.shed_deadline;
  h.shed_brownout = stats_.shed_brownout;
  h.reaped_partial = stats_.reaped_partial;
  h.reaped_idle = stats_.reaped_idle;
  if (durable_ != nullptr) {
    h.journal_lsn = durable_->next_lsn();
    h.dedup_entries = durable_->dedup_window_size();
  }
  h.live_flows = broker().flows().count();
  h.brownout_active = brownout_active(Clock::now()) ? 1 : 0;
  return h;
}

void QosbbServer::dispatch_digest(Conn& c) {
  auto digest = broker_state_digest(broker());
  if (!digest.is_ok()) {
    queue_reply(c, encode(RejectReply{RejectReason::kPolicy,
                                      digest.status().message()}));
    return;
  }
  ++stats_.digest_requests;
  SnapshotDigestReply reply;
  reply.digest = digest.value();
  reply.journal_lsn = durable_ != nullptr ? durable_->next_lsn() : 0;
  queue_reply(c, encode(reply));
}

FrontOutcome QosbbServer::fed_execute(const SlabOp& op) {
  execute_slab({&op, 1});
  record(op, outcomes_[0]);
  return std::move(outcomes_[0]);
}

Status QosbbServer::fed_release(FlowId flow, RequestId rid) {
  if (flow == kInvalidFlowId) return Status::ok();
  return fed_execute(SlabOp::release(rid, flow)).result.status();
}

void QosbbServer::dispatch_prepare(Conn& c, const PrepareSegment& p) {
  ++stats_.prepares;
  PrepareReply reply;
  reply.txn = p.txn;
  // Phase 1a: the segment itself, a pinned-rate flow over the member's
  // local route. An already-remembered rid replays the recorded decision.
  const FlowServiceRequest segment =
      pinned_segment_request(p.ingress, p.egress, p.rate, p.l_max);
  const FrontOutcome seg =
      fed_execute(SlabOp::admit(p.rid_segment, segment));
  if (!seg.result.is_ok()) {
    ++stats_.prepare_failures;
    reply.reason = seg.outcome.reason;
    reply.detail = reject_detail(seg);
    queue_reply(c, encode(reply));
    return;
  }
  reply.segment_flow = seg.result.value().flow;
  // Phase 1b: §4 contingency on the outgoing boundary link, held until
  // commit. On failure the coordinator aborts; no local rollback (see
  // PrepareReply's contract).
  if (p.contingency_rate > 0.0) {
    const FlowServiceRequest contingency = pinned_segment_request(
        p.boundary_from, p.boundary_to, p.contingency_rate, p.l_max);
    const FrontOutcome cont =
        fed_execute(SlabOp::admit(p.rid_contingency, contingency));
    if (!cont.result.is_ok()) {
      ++stats_.prepare_failures;
      reply.reason = cont.outcome.reason;
      reply.detail = "contingency: " + reject_detail(cont);
      queue_reply(c, encode(reply));
      return;
    }
    reply.contingency_flow = cont.result.value().flow;
  }
  reply.prepared = true;
  queue_reply(c, encode(reply));
}

void QosbbServer::dispatch_commit(Conn& c, const CommitSegment& m) {
  ++stats_.commits;
  SegmentAck ack;
  ack.txn = m.txn;
  const Status s = fed_release(m.contingency_flow, m.rid);
  ack.ok = s.is_ok();
  if (!s.is_ok()) ack.detail = s.message();
  queue_reply(c, encode(ack));
}

void QosbbServer::dispatch_abort(Conn& c, const AbortSegment& a) {
  ++stats_.aborts;
  SegmentAck ack;
  ack.txn = a.txn;
  // Release both phase-1 flows; each teardown is individually idempotent
  // under its rid, so a retried abort converges instead of double-failing.
  const Status seg = fed_release(a.segment_flow, a.rid_segment);
  const Status cont = fed_release(a.contingency_flow, a.rid_contingency);
  ack.ok = seg.is_ok() && cont.is_ok();
  if (!seg.is_ok()) ack.detail = "segment: " + seg.message();
  if (!cont.is_ok()) {
    if (!ack.detail.empty()) ack.detail += "; ";
    ack.detail += "contingency: " + cont.message();
  }
  queue_reply(c, encode(ack));
}

void QosbbServer::dispatch_fed_digest(Conn& c) {
  auto digest = broker_state_digest(broker());
  if (!digest.is_ok()) {
    queue_reply(c, encode(RejectReply{RejectReason::kPolicy,
                                      digest.status().message()}));
    return;
  }
  ++stats_.fed_digest_requests;
  FederatedDigestReply reply;
  reply.digest = digest.value();
  reply.live_flows = broker().flows().count();
  reply.journal_lsn = durable_ != nullptr ? durable_->next_lsn() : 0;
  queue_reply(c, encode(reply));
}

Status QosbbServer::provision_pair(const std::string& ingress,
                                   const std::string& egress) {
  Result<PathId> path = Status::internal("unset");
  if (front_ != nullptr) {
    path = front_->exclusive([&](BandwidthBroker& bb) {
      return bb.provision_path(ingress, egress);
    });
  } else {
    path = durable_->provision_path(kNoRequestId, ingress, egress);
  }
  if (!path.is_ok()) return path.status();
  if (options_.record_ops) {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kProvision;
    op.ingress = ingress;
    op.egress = egress;
    ops_.push_back(std::move(op));
  }
  return Status::ok();
}

void QosbbServer::queue_reply(Conn& c, const WireBuffer& message_frame) {
  const WireBuffer framed = frame_net_message(message_frame);
  c.out.insert(c.out.end(), framed.begin(), framed.end());
  ++stats_.frames_out;
}

void QosbbServer::queue_overloaded(Conn& c, ShedReason reason) {
  OverloadedReply reply;
  reply.reason = reason;
  reply.retry_after_ms = options_.retry_after_hint_ms;
  reply.detail = shed_reason_name(reason);
  queue_reply(c, encode(reply));
}

void QosbbServer::try_flush(Conn& c) {
  while (c.out_pos < c.out.size()) {
    const ssize_t n = ::write(c.fd, c.out.data() + c.out_pos,
                              c.out.size() - c.out_pos);
    if (n > 0) {
      stats_.bytes_out += static_cast<std::uint64_t>(n);
      c.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      c.want_write = true;
      // Reclaim the flushed prefix so a long-lived slow reader does not
      // accrete an unbounded buffer.
      if (c.out_pos > (1u << 20)) {
        c.out.erase(c.out.begin(), c.out.begin() + static_cast<long>(c.out_pos));
        c.out_pos = 0;
      }
      return;
    }
    if (n < 0 && errno == EINTR) continue;
    close_conn(c);  // peer reset
    return;
  }
  c.out.clear();
  c.out_pos = 0;
  c.want_write = false;
  if (c.close_after_flush) close_conn(c);
}

void QosbbServer::update_interest(Conn& c) {
  if (c.dead) return;
  // No EPOLLIN once the peer half-closed: level-triggered EOF would spin
  // the loop while queued replies wait for EPOLLOUT.
  const std::uint32_t want =
      (c.paused || c.read_closed ? 0u : static_cast<std::uint32_t>(EPOLLIN)) |
      (c.want_write ? static_cast<std::uint32_t>(EPOLLOUT) : 0u);
  if (want == c.events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.ptr = &c;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev) == 0) {
    c.events = want;
  }
}

void QosbbServer::close_conn(Conn& c) {
  if (c.dead) return;
  ::close(c.fd);
  c.fd = -1;
  c.dead = true;
  // Queued work dies with the connection: return its budget.
  global_inflight_ -= c.inflight;
  c.inflight = 0;
  c.pending.clear();
  ++stats_.connections_closed;
}

// ---- Differential digest ----

Result<std::uint32_t> broker_state_digest(const BandwidthBroker& bb) {
  auto snap = bb.snapshot();
  if (!snap.is_ok()) return snap.status();
  return journal_crc32(snap.value().data(), snap.value().size());
}

DifferentialReport run_differential_check(const DomainSpec& spec,
                                          const BrokerOptions& options,
                                          const std::vector<RecordedOp>& ops,
                                          const BandwidthBroker& live) {
  DifferentialReport rep;
  BandwidthBroker fresh(spec, options);
  ConcurrentBrokerFront front(fresh);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RecordedOp& op = ops[i];
    std::ostringstream at;
    at << "op " << i << " (";
    switch (op.kind) {
      case RecordedOp::Kind::kProvision: {
        at << "provision " << op.ingress << "->" << op.egress << ")";
        auto path = front.exclusive([&](BandwidthBroker& bb) {
          return bb.provision_path(op.ingress, op.egress);
        });
        if (!path.is_ok()) {
          rep.detail = at.str() + ": " + path.status().to_string();
          return rep;
        }
        break;
      }
      case RecordedOp::Kind::kAdmit: {
        at << "admit " << op.request.ingress << "->" << op.request.egress
           << ")";
        FrontOutcome out = front.request_service(op.request);
        const bool admitted = out.result.is_ok();
        if (admitted != op.admitted) {
          rep.detail = at.str() + ": decision divergence (server " +
                       (op.admitted ? "admitted" : "rejected") +
                       ", library replay " +
                       (admitted ? "admitted" : "rejected") + ")";
          return rep;
        }
        if (admitted && out.result.value().flow != op.assigned_flow) {
          std::ostringstream os;
          os << at.str() << ": flow id divergence (server "
             << op.assigned_flow << ", replay " << out.result.value().flow
             << ")";
          rep.detail = os.str();
          return rep;
        }
        break;
      }
      case RecordedOp::Kind::kRelease: {
        at << "release " << op.flow << ")";
        const Status s = front.release_service(op.flow);
        if (!s.is_ok()) {
          rep.detail = at.str() + ": " + s.to_string();
          return rep;
        }
        break;
      }
    }
    ++rep.ops_replayed;
  }
  auto live_snap = live.snapshot();
  auto replay_snap = fresh.snapshot();
  if (!live_snap.is_ok() || !replay_snap.is_ok()) {
    rep.detail = "snapshot failed: " +
                 (!live_snap.is_ok() ? live_snap.status().to_string()
                                     : replay_snap.status().to_string());
    return rep;
  }
  rep.live_digest =
      journal_crc32(live_snap.value().data(), live_snap.value().size());
  rep.replay_digest =
      journal_crc32(replay_snap.value().data(), replay_snap.value().size());
  if (live_snap.value() != replay_snap.value()) {
    rep.detail = "state digest divergence: server-admitted snapshot differs "
                 "from library replay";
    return rep;
  }
  rep.ok = true;
  std::ostringstream os;
  os << rep.ops_replayed << " ops replayed, digest " << std::hex
     << rep.live_digest;
  rep.detail = os.str();
  return rep;
}

}  // namespace qosbb
