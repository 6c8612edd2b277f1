#include "federation/federated_front.h"

#include <cmath>
#include <limits>
#include <utility>

#include "topo/routing.h"

namespace qosbb {

namespace {

/// Locks a dynamic set of mutexes in the order given; unlocks in reverse on
/// scope exit. (MutexLock cannot express a runtime-sized set, and clang's
/// thread-safety analysis cannot track one either — the acquisition order
/// is the member-index order required by the lock hierarchy.)
class OrderedLockSet {
 public:
  OrderedLockSet() = default;
  OrderedLockSet(const OrderedLockSet&) = delete;
  OrderedLockSet& operator=(const OrderedLockSet&) = delete;
  ~OrderedLockSet() NO_THREAD_SAFETY_ANALYSIS {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) (*it)->unlock();
  }
  void lock(Mutex& mu) NO_THREAD_SAFETY_ANALYSIS {
    mu.lock();
    held_.push_back(&mu);
  }

 private:
  std::vector<Mutex*> held_;
};

/// Magic word of a cross-federation snapshot frame ("FSNP").
constexpr std::uint32_t kFederationSnapshotMagic = 0x46534e50u;

/// A transport-level failure leaves the member's state unknown to the
/// coordinator (the op may or may not have executed). Clean rejections and
/// structural errors are NOT transport failures.
bool transport_failure(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kDataLoss;
}

FederatedOutcome local_reject(RejectReason reason, std::string detail,
                              bool inter) {
  FederatedOutcome out;
  out.inter_domain = inter;
  out.reason = reason;
  out.detail = detail;
  out.result = Status::rejected(std::string(reject_reason_name(reason)) +
                                ": " + std::move(detail));
  return out;
}

}  // namespace

FederatedFront::FederatedFront(FederationPlan plan,
                               std::vector<FederationMember*> members,
                               FederatedFrontOptions options)
    : plan_(std::move(plan)),
      global_graph_(plan_.global.to_graph()),
      options_(options),
      next_rid_(options.first_rid) {
  QOSBB_REQUIRE(members.size() == plan_.members.size(),
                "FederatedFront: one member per plan domain");
  for (std::size_t i = 0; i < members.size(); ++i) {
    QOSBB_REQUIRE(members[i] != nullptr, "FederatedFront: null member");
    QOSBB_REQUIRE(members[i]->domain() == static_cast<int>(i),
                  "FederatedFront: member order must match plan domains");
    slots_.push_back(std::make_unique<MemberSlot>(members[i]));
  }
}

BitsPerSecond FederatedFront::inter_domain_segment_rate(
    const PathAbstract& path, const TrafficProfile& p, Seconds d_req,
    int num_segments) {
  const Seconds t_on = p.t_on();
  const Seconds denom = d_req - path.total_error_and_prop() + t_on;
  if (denom <= 0.0) return std::numeric_limits<double>::infinity();
  const double extra_hops =
      static_cast<double>(path.hop_count() + num_segments);
  const BitsPerSecond r_min = (t_on * p.peak + extra_hops * p.l_max) / denom;
  // Beyond the peak no rate helps (the edge bound is already L/P-tight);
  // with num_segments == 1 this is exactly the flat §3.1 infeasibility.
  if (r_min > p.peak) return std::numeric_limits<double>::infinity();
  return std::max(p.rho, r_min);
}

// ---- per-member wrappers (slot mutex held across call + log append) ----

Result<Reservation> FederatedFront::member_admit(
    MemberSlot& slot, const FlowServiceRequest& request, RequestId rid) {
  MutexLock lock(slot.member_mu_);
  auto res = slot.member->admit(request, rid);
  if (options_.record_member_ops &&
      (res.is_ok() || res.status().code() == StatusCode::kRejected)) {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kAdmit;
    op.request = request;
    op.admitted = res.is_ok();
    op.assigned_flow = res.is_ok() ? res.value().flow : kInvalidFlowId;
    slot.ops.push_back(std::move(op));
  }
  return res;
}

Status FederatedFront::member_release(MemberSlot& slot, FlowId flow,
                                      RequestId rid) {
  MutexLock lock(slot.member_mu_);
  const Status s = slot.member->release(flow, rid);
  if (options_.record_member_ops && s.is_ok()) {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kRelease;
    op.flow = flow;
    slot.ops.push_back(std::move(op));
  }
  return s;
}

Result<PrepareReply> FederatedFront::member_prepare(
    MemberSlot& slot, const PrepareSegment& request) {
  MutexLock lock(slot.member_mu_);
  auto res = slot.member->prepare(request);
  if (options_.record_member_ops && res.is_ok()) {
    // Mirror exactly the sub-admissions the member executed, in its order:
    // the pinned segment, then (only if the segment held and a contingency
    // was requested) the pinned boundary contingency.
    const PrepareReply& reply = res.value();
    RecordedOp seg;
    seg.kind = RecordedOp::Kind::kAdmit;
    seg.request = pinned_segment_request(request.ingress, request.egress,
                                         request.rate, request.l_max);
    seg.admitted = reply.segment_flow != kInvalidFlowId;
    seg.assigned_flow = reply.segment_flow;
    slot.ops.push_back(std::move(seg));
    if (request.contingency_rate > 0.0 &&
        reply.segment_flow != kInvalidFlowId) {
      RecordedOp cont;
      cont.kind = RecordedOp::Kind::kAdmit;
      cont.request = pinned_segment_request(
          request.boundary_from, request.boundary_to,
          request.contingency_rate, request.l_max);
      cont.admitted = reply.contingency_flow != kInvalidFlowId;
      cont.assigned_flow = reply.contingency_flow;
      slot.ops.push_back(std::move(cont));
    }
  }
  return res;
}

Result<SegmentAck> FederatedFront::member_commit(MemberSlot& slot,
                                                 const CommitSegment& request) {
  MutexLock lock(slot.member_mu_);
  auto res = slot.member->commit(request);
  if (options_.record_member_ops && res.is_ok() && res.value().ok &&
      request.contingency_flow != kInvalidFlowId) {
    RecordedOp op;
    op.kind = RecordedOp::Kind::kRelease;
    op.flow = request.contingency_flow;
    slot.ops.push_back(std::move(op));
  }
  return res;
}

Result<SegmentAck> FederatedFront::member_abort(MemberSlot& slot,
                                                const AbortSegment& request) {
  MutexLock lock(slot.member_mu_);
  auto res = slot.member->abort(request);
  if (options_.record_member_ops && res.is_ok() && res.value().ok) {
    // Server-side abort releases segment first, then contingency.
    for (FlowId flow : {request.segment_flow, request.contingency_flow}) {
      if (flow == kInvalidFlowId) continue;
      RecordedOp op;
      op.kind = RecordedOp::Kind::kRelease;
      op.flow = flow;
      slot.ops.push_back(std::move(op));
    }
  }
  return res;
}

// ---- classification + admission ----

FederatedOutcome FederatedFront::request_service(
    const FlowServiceRequest& request) {
  {
    MutexLock lock(fed_mu_);
    ++stats_.requests;
  }
  if (!plan_.node_domain.contains(request.ingress) ||
      !plan_.node_domain.contains(request.egress)) {
    return local_reject(RejectReason::kNoPath,
                        "endpoint outside the federation", false);
  }
  const auto route =
      shortest_path(global_graph_, request.ingress, request.egress);
  if (!route.is_ok()) {
    return local_reject(RejectReason::kNoPath,
                        "no route " + request.ingress + " -> " +
                            request.egress,
                        false);
  }
  const auto segments = segment_path(plan_, route.value());
  if (segments.size() == 1) {
    return admit_intra(request, segments.front().domain);
  }
  return admit_inter(request, route.value(), segments);
}

FederatedOutcome FederatedFront::admit_intra(const FlowServiceRequest& request,
                                             int domain) {
  RequestId rid;
  {
    MutexLock lock(fed_mu_);
    ++stats_.intra_requests;
    rid = next_rid_++;
  }
  FederatedOutcome out;
  out.inter_domain = false;
  auto res = member_admit(*slots_[domain], request, rid);
  if (!res.is_ok()) {
    out.result = res.status();
    out.detail = res.status().message();
    MutexLock lock(fed_mu_);
    if (transport_failure(res.status())) ++stats_.poisoned_txns;
    return out;
  }
  Reservation reservation = std::move(res).value();
  MutexLock lock(fed_mu_);
  const FlowId fed_id = next_flow_++;
  FedFlowRecord rec;
  rec.inter = false;
  rec.domain = domain;
  rec.member_flow = reservation.flow;
  flows_[fed_id] = std::move(rec);
  ++stats_.intra_admitted;
  reservation.flow = fed_id;
  out.result = std::move(reservation);
  return out;
}

FederatedOutcome FederatedFront::admit_inter(
    const FlowServiceRequest& request, const std::vector<std::string>& route,
    const std::vector<PathSegment>& segments) {
  {
    MutexLock lock(fed_mu_);
    ++stats_.inter_requests;
  }
  const PathAbstract abstract = path_abstract(plan_.global, route);
  if (abstract.delay_based_count() > 0) {
    {
      MutexLock lock(fed_mu_);
      ++stats_.inter_rejected_local;
    }
    return local_reject(RejectReason::kNoFeasibleRate,
                        "inter-domain path crosses a delay-based hop", true);
  }
  const int num_segments = static_cast<int>(segments.size());
  const BitsPerSecond r_star = inter_domain_segment_rate(
      abstract, request.profile, request.e2e_delay_req, num_segments);
  if (!std::isfinite(r_star)) {
    MutexLock lock(fed_mu_);
    ++stats_.inter_rejected_local;
    return local_reject(RejectReason::kNoFeasibleRate,
                        "federated delay requirement unattainable", true);
  }
  const BitsPerSecond contingency =
      std::max(0.0, request.profile.peak - r_star);

  std::uint64_t txn;
  std::vector<SegmentRids> rids(segments.size());
  {
    MutexLock lock(fed_mu_);
    txn = next_txn_++;
    for (auto& r : rids) {
      r.prepare_segment = next_rid_++;
      r.prepare_contingency = next_rid_++;
      r.commit = next_rid_++;
      r.abort_segment = next_rid_++;
      r.abort_contingency = next_rid_++;
    }
  }

  // Phase 1: prepare every segment in path order. Stop at the first
  // failure and roll back everything already held.
  std::vector<PrepareSegment> sent;
  std::vector<PrepareReply> replies;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const PathSegment& seg = segments[i];
    PrepareSegment prep;
    prep.txn = txn;
    prep.rid_segment = rids[i].prepare_segment;
    prep.rid_contingency = rids[i].prepare_contingency;
    prep.ingress = seg.nodes.front();
    prep.egress = seg.nodes.back();
    prep.rate = r_star;
    prep.l_max = plan_.global.l_max;
    prep.contingency_rate = seg.has_boundary ? contingency : 0.0;
    prep.boundary_from = seg.boundary_from;
    prep.boundary_to = seg.boundary_to;
    {
      MutexLock lock(fed_mu_);
      ++stats_.prepares;
    }
    auto reply = member_prepare(*slots_[seg.domain], prep);
    sent.push_back(prep);
    if (!reply.is_ok()) {
      // Transport-dead mid-prepare: this member's holdings are unknown
      // (poisoned); everything before it is known and rolled back.
      sent.pop_back();
      {
        MutexLock lock(fed_mu_);
        if (transport_failure(reply.status())) ++stats_.poisoned_txns;
        ++stats_.aborts;
      }
      abort_prepared(txn, sent, replies, rids);
      FederatedOutcome out;
      out.inter_domain = true;
      out.detail = reply.status().message();
      out.result = reply.status();
      return out;
    }
    replies.push_back(reply.value());
    if (!reply.value().prepared) {
      {
        MutexLock lock(fed_mu_);
        ++stats_.prepare_failures;
        ++stats_.aborts;
      }
      abort_prepared(txn, sent, replies, rids);
      return local_reject(reply.value().reason,
                          "segment " + std::to_string(i) + " (domain " +
                              std::to_string(seg.domain) + "): " +
                              reply.value().detail,
                          true);
    }
  }

  // Phase 2: commit — release each boundary contingency. The admission is
  // already safe (every segment holds); a commit transport failure can
  // only leak contingency bandwidth, which we count as poisoned.
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (replies[i].contingency_flow == kInvalidFlowId) continue;
    CommitSegment commit;
    commit.txn = txn;
    commit.rid = rids[i].commit;
    commit.contingency_flow = replies[i].contingency_flow;
    auto ack = member_commit(*slots_[segments[i].domain], commit);
    MutexLock lock(fed_mu_);
    if (!ack.is_ok()) {
      if (transport_failure(ack.status())) ++stats_.poisoned_txns;
    } else if (!ack.value().ok) {
      ++stats_.ack_failures;
    }
  }

  FederatedOutcome out;
  out.inter_domain = true;
  out.segment_rate = r_star;
  out.segments = num_segments;

  Reservation reservation;
  reservation.params = RateDelayPair{r_star, 0.0};
  const Seconds t_on = request.profile.t_on();
  reservation.e2e_bound =
      t_on * (request.profile.peak - r_star) / r_star +
      static_cast<double>(abstract.hop_count() + num_segments) *
          plan_.global.l_max / r_star +
      abstract.total_error_and_prop();

  MutexLock lock(fed_mu_);
  const FlowId fed_id = next_flow_++;
  FedFlowRecord rec;
  rec.inter = true;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    rec.segments.push_back(
        SegmentBooking{segments[i].domain, replies[i].segment_flow});
  }
  flows_[fed_id] = std::move(rec);
  ++stats_.inter_admitted;
  reservation.flow = fed_id;
  out.result = std::move(reservation);
  return out;
}

void FederatedFront::abort_prepared(std::uint64_t txn,
                                    const std::vector<PrepareSegment>& sent,
                                    const std::vector<PrepareReply>& replies,
                                    const std::vector<SegmentRids>& rids) {
  // `replies` may hold one more entry than fully-prepared segments: the
  // failing prepare's reply still names the flows it partially holds.
  for (std::size_t i = 0; i < replies.size() && i < sent.size(); ++i) {
    const PrepareReply& reply = replies[i];
    if (reply.segment_flow == kInvalidFlowId &&
        reply.contingency_flow == kInvalidFlowId) {
      continue;
    }
    AbortSegment ab;
    ab.txn = txn;
    ab.rid_segment = rids[i].abort_segment;
    ab.rid_contingency = rids[i].abort_contingency;
    ab.segment_flow = reply.segment_flow;
    ab.contingency_flow = reply.contingency_flow;
    const int domain = plan_.domain_of(sent[i].ingress);
    auto ack = member_abort(*slots_[domain], ab);
    MutexLock lock(fed_mu_);
    if (!ack.is_ok()) {
      if (transport_failure(ack.status())) ++stats_.poisoned_txns;
    } else if (!ack.value().ok) {
      ++stats_.ack_failures;
    }
  }
}

Status FederatedFront::release_service(FlowId flow) {
  FedFlowRecord rec;
  std::vector<RequestId> rids;
  {
    MutexLock lock(fed_mu_);
    auto it = flows_.find(flow);
    if (it == flows_.end()) {
      return Status::not_found("unknown federated flow " +
                               std::to_string(flow));
    }
    rec = it->second;
    flows_.erase(it);
    const std::size_t n = rec.inter ? rec.segments.size() : 1;
    for (std::size_t i = 0; i < n; ++i) rids.push_back(next_rid_++);
    ++stats_.releases;
  }
  Status failure = Status::ok();
  auto release_one = [&](int domain, FlowId member_flow, RequestId rid) {
    const Status s = member_release(*slots_[domain], member_flow, rid);
    if (!s.is_ok()) {
      if (failure.is_ok()) failure = s;
      MutexLock lock(fed_mu_);
      if (transport_failure(s)) ++stats_.poisoned_txns;
    }
  };
  if (!rec.inter) {
    release_one(rec.domain, rec.member_flow, rids[0]);
  } else {
    for (std::size_t i = 0; i < rec.segments.size(); ++i) {
      release_one(rec.segments[i].domain, rec.segments[i].flow, rids[i]);
    }
  }
  return failure;
}

// ---- audits & checkpointing ----

Result<std::vector<FederatedDigestReply>> FederatedFront::digests() {
  std::vector<FederatedDigestReply> out;
  for (auto& slot : slots_) {
    MutexLock lock(slot->member_mu_);
    auto d = slot->member->digest();
    if (!d.is_ok()) return d.status();
    out.push_back(d.value());
  }
  return out;
}

Result<WireBuffer> FederatedFront::snapshot() {
  // Quiesce the whole federation: coordinator lock, then every member lock
  // in index order (fed_mu_ ranks above the member mutexes).
  MutexLock fed_lock(fed_mu_);
  OrderedLockSet member_locks;
  for (auto& slot : slots_) member_locks.lock(slot->member_mu_);

  WireWriter w;
  w.u32(kFederationSnapshotMagic);
  w.u32(static_cast<std::uint32_t>(slots_.size()));
  w.u64(next_rid_);
  w.u64(next_txn_);
  w.i64(next_flow_);
  for (auto& slot : slots_) {
    auto frame = slot->member->snapshot();
    if (!frame.is_ok()) return frame.status();
    w.bytes(frame.value());
  }
  w.u32(static_cast<std::uint32_t>(flows_.size()));
  for (const auto& [fed_id, rec] : flows_) {
    w.i64(fed_id);
    w.u8(rec.inter ? 1 : 0);
    if (!rec.inter) {
      w.i64(rec.domain);
      w.i64(rec.member_flow);
    } else {
      w.u32(static_cast<std::uint32_t>(rec.segments.size()));
      for (const auto& seg : rec.segments) {
        w.i64(seg.domain);
        w.i64(seg.flow);
      }
    }
  }
  return w.take();
}

Status FederatedFront::restore(const WireBuffer& frame) {
  WireReader r(frame);
  auto magic = r.u32();
  if (!magic.is_ok()) return magic.status();
  if (magic.value() != kFederationSnapshotMagic) {
    return Status::invalid_argument("not a federation snapshot frame");
  }
  auto count = r.u32();
  if (!count.is_ok()) return count.status();
  if (count.value() != slots_.size()) {
    return Status::invalid_argument(
        "federation snapshot member count mismatch");
  }
  auto rid = r.u64();
  auto txn = r.u64();
  auto flow = r.i64();
  if (!rid.is_ok()) return rid.status();
  if (!txn.is_ok()) return txn.status();
  if (!flow.is_ok()) return flow.status();

  std::vector<WireBuffer> member_frames;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    auto bytes = r.bytes();
    if (!bytes.is_ok()) return bytes.status();
    member_frames.push_back(std::move(bytes).value());
  }
  auto nflows = r.u32();
  if (!nflows.is_ok()) return nflows.status();
  std::map<FlowId, FedFlowRecord> flows;
  for (std::uint32_t i = 0; i < nflows.value(); ++i) {
    auto fed_id = r.i64();
    auto inter = r.u8();
    if (!fed_id.is_ok()) return fed_id.status();
    if (!inter.is_ok()) return inter.status();
    if (inter.value() > 1) {
      return Status::invalid_argument("federation snapshot: bad inter flag");
    }
    FedFlowRecord rec;
    rec.inter = inter.value() == 1;
    if (!rec.inter) {
      auto domain = r.i64();
      auto member_flow = r.i64();
      if (!domain.is_ok()) return domain.status();
      if (!member_flow.is_ok()) return member_flow.status();
      if (domain.value() < 0 ||
          domain.value() >= static_cast<std::int64_t>(slots_.size())) {
        return Status::invalid_argument("federation snapshot: bad domain");
      }
      rec.domain = static_cast<int>(domain.value());
      rec.member_flow = member_flow.value();
    } else {
      auto nseg = r.u32();
      if (!nseg.is_ok()) return nseg.status();
      for (std::uint32_t s = 0; s < nseg.value(); ++s) {
        auto domain = r.i64();
        auto seg_flow = r.i64();
        if (!domain.is_ok()) return domain.status();
        if (!seg_flow.is_ok()) return seg_flow.status();
        if (domain.value() < 0 ||
            domain.value() >= static_cast<std::int64_t>(slots_.size())) {
          return Status::invalid_argument(
              "federation snapshot: bad segment domain");
        }
        rec.segments.push_back(SegmentBooking{
            static_cast<int>(domain.value()), seg_flow.value()});
      }
    }
    flows[fed_id.value()] = std::move(rec);
  }
  if (!r.exhausted()) {
    return Status::invalid_argument(
        "federation snapshot: trailing bytes after flow table");
  }

  MutexLock fed_lock(fed_mu_);
  OrderedLockSet member_locks;
  for (auto& slot : slots_) member_locks.lock(slot->member_mu_);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (Status s = slots_[i]->member->restore(member_frames[i]); !s.is_ok()) {
      return s;
    }
  }
  next_rid_ = rid.value();
  next_txn_ = txn.value();
  next_flow_ = flow.value();
  flows_ = std::move(flows);
  return Status::ok();
}

FederationStats FederatedFront::stats() const {
  MutexLock lock(fed_mu_);
  return stats_;
}

std::uint64_t FederatedFront::live_flows() const {
  MutexLock lock(fed_mu_);
  return flows_.size();
}

std::vector<RecordedOp> FederatedFront::member_ops(int domain) const {
  QOSBB_REQUIRE(domain >= 0 && domain < static_cast<int>(slots_.size()),
                "member_ops: domain out of range");
  MutexLock lock(slots_[domain]->member_mu_);
  return slots_[domain]->ops;
}

}  // namespace qosbb
