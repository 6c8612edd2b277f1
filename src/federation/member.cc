#include "federation/member.h"

#include <utility>

#include "net/server.h"

namespace qosbb {

// ---- InProcessMember ----

InProcessMember::InProcessMember(int domain, DomainSpec spec,
                                 BrokerOptions options)
    : domain_(domain),
      spec_(std::move(spec)),
      options_(options),
      bb_(std::make_unique<BandwidthBroker>(spec_, options_)),
      front_(std::make_unique<ConcurrentBrokerFront>(*bb_)) {}

Result<Reservation> InProcessMember::admit(const FlowServiceRequest& request,
                                           RequestId /*rid*/) {
  // In-process calls never retry, so the rid has nothing to deduplicate.
  return front_->request_service(request).result;
}

Status InProcessMember::release(FlowId flow, RequestId /*rid*/) {
  return front_->release_service(flow);
}

Result<PrepareReply> InProcessMember::prepare(const PrepareSegment& request) {
  PrepareReply reply;
  reply.txn = request.txn;
  FrontOutcome seg = front_->request_service(pinned_segment_request(
      request.ingress, request.egress, request.rate, request.l_max));
  if (!seg.result.is_ok()) {
    reply.reason = seg.outcome.reason;
    reply.detail = seg.outcome.detail.empty() ? seg.result.status().message()
                                              : seg.outcome.detail;
    return reply;
  }
  reply.segment_flow = seg.result.value().flow;
  if (request.contingency_rate > 0.0) {
    FrontOutcome cont = front_->request_service(
        pinned_segment_request(request.boundary_from, request.boundary_to,
                               request.contingency_rate, request.l_max));
    if (!cont.result.is_ok()) {
      reply.reason = cont.outcome.reason;
      reply.detail =
          "contingency: " + (cont.outcome.detail.empty()
                                 ? cont.result.status().message()
                                 : cont.outcome.detail);
      return reply;
    }
    reply.contingency_flow = cont.result.value().flow;
  }
  reply.prepared = true;
  return reply;
}

Result<SegmentAck> InProcessMember::commit(const CommitSegment& request) {
  SegmentAck ack;
  ack.txn = request.txn;
  ack.ok = true;
  if (request.contingency_flow != kInvalidFlowId) {
    const Status s = front_->release_service(request.contingency_flow);
    if (!s.is_ok()) {
      ack.ok = false;
      ack.detail = s.message();
    }
  }
  return ack;
}

Result<SegmentAck> InProcessMember::abort(const AbortSegment& request) {
  SegmentAck ack;
  ack.txn = request.txn;
  ack.ok = true;
  if (request.segment_flow != kInvalidFlowId) {
    const Status s = front_->release_service(request.segment_flow);
    if (!s.is_ok()) {
      ack.ok = false;
      ack.detail = "segment: " + s.message();
    }
  }
  if (request.contingency_flow != kInvalidFlowId) {
    const Status s = front_->release_service(request.contingency_flow);
    if (!s.is_ok()) {
      ack.ok = false;
      if (!ack.detail.empty()) ack.detail += "; ";
      ack.detail += "contingency: " + s.message();
    }
  }
  return ack;
}

Result<FederatedDigestReply> InProcessMember::digest() {
  return front_->exclusive(
      [](BandwidthBroker& bb) -> Result<FederatedDigestReply> {
        auto digest = broker_state_digest(bb);
        if (!digest.is_ok()) return digest.status();
        FederatedDigestReply reply;
        reply.digest = digest.value();
        reply.live_flows = bb.flows().count();
        reply.journal_lsn = 0;
        return reply;
      });
}

Result<WireBuffer> InProcessMember::snapshot() {
  return front_->exclusive(
      [](BandwidthBroker& bb) -> Result<WireBuffer> { return bb.snapshot(); });
}

Status InProcessMember::restore(const WireBuffer& frame) {
  auto restored = BandwidthBroker::restore(spec_, options_, frame);
  if (!restored.is_ok()) return restored.status();
  front_.reset();  // drops the reference into the old broker first
  bb_ = std::move(restored).value();
  front_ = std::make_unique<ConcurrentBrokerFront>(*bb_);
  return Status::ok();
}

// ---- SocketMember ----

SocketMember::SocketMember(int domain, RetryingClientOptions options)
    : domain_(domain), client_(std::move(options)) {}

Result<Reservation> SocketMember::admit(const FlowServiceRequest& request,
                                        RequestId rid) {
  return client_.admit(request, rid);
}

Status SocketMember::release(FlowId flow, RequestId rid) {
  return client_.teardown(flow, rid);
}

Result<PrepareReply> SocketMember::prepare(const PrepareSegment& request) {
  return client_.prepare(request);
}

Result<SegmentAck> SocketMember::commit(const CommitSegment& request) {
  return client_.commit_segment(request);
}

Result<SegmentAck> SocketMember::abort(const AbortSegment& request) {
  return client_.abort_segment(request);
}

Result<FederatedDigestReply> SocketMember::digest() {
  return client_.federated_digest();
}

Result<WireBuffer> SocketMember::snapshot() {
  return Status::failed_precondition(
      "socket members persist via their journal; snapshot is not transported");
}

Status SocketMember::restore(const WireBuffer&) {
  return Status::failed_precondition(
      "socket members recover from their journal; restore is not transported");
}

}  // namespace qosbb
