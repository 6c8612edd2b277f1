// The federation's member transport seam.
//
// A FederationMember is one domain-scoped broker as the federation
// coordinator sees it: plain admit/release for intra-domain flows, the 2PC
// segment ops for inter-domain flows, and a digest probe for audits. Two
// transports implement it:
//
//   * InProcessMember — a BandwidthBroker + ConcurrentBrokerFront embedded
//     in the coordinator's process. Calls are plain function calls; intra
//     admissions ride the front's optimistic group path. Supports
//     snapshot/restore, so an in-process federation can checkpoint
//     consistently (FederatedFront::snapshot quiesces every member).
//   * SocketMember — a RetryingClient speaking the wire protocol to a
//     qosbbd member (net/server.cc handles kPrepareSegment & co). Retries
//     re-send the same bytes/rids, so against a durable (journaled) qosbbd
//     every op is exactly-once even across a member crash + restart.
//     Snapshot/restore is not transported — a durable member's journal IS
//     its persistence; audits use digest() instead.

#ifndef QOSBB_FEDERATION_MEMBER_H_
#define QOSBB_FEDERATION_MEMBER_H_

#include <memory>
#include <string>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/wire.h"
#include "net/client.h"
#include "topo/fig8.h"

namespace qosbb {

class FederationMember {
 public:
  virtual ~FederationMember() = default;

  virtual int domain() const = 0;

  /// Intra-domain admission, delegated whole (the member routes locally).
  virtual Result<Reservation> admit(const FlowServiceRequest& request,
                                    RequestId rid) = 0;
  virtual Status release(FlowId flow, RequestId rid) = 0;

  // ---- 2PC segment ops (inter-domain flows) ----
  virtual Result<PrepareReply> prepare(const PrepareSegment& request) = 0;
  virtual Result<SegmentAck> commit(const CommitSegment& request) = 0;
  virtual Result<SegmentAck> abort(const AbortSegment& request) = 0;

  virtual Result<FederatedDigestReply> digest() = 0;

  /// Consistent checkpointing (in-process members only; a socket member
  /// returns kFailedPrecondition — its journal is its persistence).
  virtual Result<WireBuffer> snapshot() = 0;
  virtual Status restore(const WireBuffer& frame) = 0;
};

class InProcessMember : public FederationMember {
 public:
  InProcessMember(int domain, DomainSpec spec, BrokerOptions options);

  int domain() const override { return domain_; }
  Result<Reservation> admit(const FlowServiceRequest& request,
                            RequestId rid) override;
  Status release(FlowId flow, RequestId rid) override;
  Result<PrepareReply> prepare(const PrepareSegment& request) override;
  Result<SegmentAck> commit(const CommitSegment& request) override;
  Result<SegmentAck> abort(const AbortSegment& request) override;
  Result<FederatedDigestReply> digest() override;
  Result<WireBuffer> snapshot() override;
  Status restore(const WireBuffer& frame) override;

  BandwidthBroker& broker() { return *bb_; }
  ConcurrentBrokerFront& front() { return *front_; }
  const DomainSpec& spec() const { return spec_; }

 private:
  int domain_;
  DomainSpec spec_;
  BrokerOptions options_;
  std::unique_ptr<BandwidthBroker> bb_;
  std::unique_ptr<ConcurrentBrokerFront> front_;
};

class SocketMember : public FederationMember {
 public:
  SocketMember(int domain, RetryingClientOptions options);

  int domain() const override { return domain_; }
  Result<Reservation> admit(const FlowServiceRequest& request,
                            RequestId rid) override;
  Status release(FlowId flow, RequestId rid) override;
  Result<PrepareReply> prepare(const PrepareSegment& request) override;
  Result<SegmentAck> commit(const CommitSegment& request) override;
  Result<SegmentAck> abort(const AbortSegment& request) override;
  Result<FederatedDigestReply> digest() override;
  Result<WireBuffer> snapshot() override;
  Status restore(const WireBuffer& frame) override;

  const RetryingClientStats& transport_stats() const {
    return client_.stats();
  }

 private:
  int domain_;
  RetryingClient client_;
};

}  // namespace qosbb

#endif  // QOSBB_FEDERATION_MEMBER_H_
