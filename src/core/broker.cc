#include "core/broker.h"

#include <algorithm>

#include "topo/routing.h"
#include "util/status.h"

namespace qosbb {

const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kPolicy: return "policy";
    case RejectReason::kNoPath: return "no-path";
    case RejectReason::kNoFeasibleRate: return "no-feasible-rate";
    case RejectReason::kInsufficientBandwidth: return "insufficient-bandwidth";
    case RejectReason::kEdfUnschedulable: return "edf-unschedulable";
    case RejectReason::kInsufficientBuffer: return "insufficient-buffer";
  }
  return "?";
}

std::uint64_t BrokerStats::total_rejected() const { return rejected.total(); }

double BrokerStats::blocking_rate() const {
  if (requests == 0) return 0.0;
  return static_cast<double>(total_rejected()) /
         static_cast<double>(requests);
}

BandwidthBroker::BandwidthBroker(const DomainSpec& spec, BrokerOptions options)
    : spec_(spec),
      graph_(spec_.to_graph()),
      options_(options),
      store_(spec_),
      paths_(spec_),
      classes_(spec_, store_.nodes(), paths_, flows_, options.contingency) {}

Result<PathId> BandwidthBroker::provision_path(const std::string& ingress,
                                               const std::string& egress) {
  if (PathId existing = paths_.find(ingress, egress);
      existing != kInvalidPathId) {
    return existing;
  }
  auto route = shortest_path(graph_, ingress, egress);
  if (!route.is_ok()) return route.status();
  if (route.value().size() < 2) {
    return Status::not_found("no path from " + ingress + " to itself");
  }
  return paths_.provision(route.value());
}

PathView BandwidthBroker::path_view(PathId path) const {
  PathView view;
  view.record = &paths_.record(path);
  view.c_res = paths_.min_residual(path, store_.nodes());
  view.links = paths_.link_states(path, store_.nodes());
  view.edf_links = paths_.edf_link_states(path, store_.nodes());
  return view;
}

BitsPerSecond BandwidthBroker::path_residual(PathId path) const {
  return paths_.min_residual(path, store_.nodes());
}

std::size_t BandwidthBroker::flows_from_ingress(
    const std::string& ingress) const {
  auto it = ingress_flows_.find(ingress);
  return it == ingress_flows_.end() ? 0 : it->second;
}

void BandwidthBroker::book_reservation(const PathRecord& rec,
                                       const RateDelayPair& params,
                                       const TrafficProfile& profile) {
  // The admissibility test ran against a consistent snapshot of the MIBs
  // (the broker's own entry points are a single sequential control point;
  // the concurrent front validates versions instead), so booking cannot
  // fail; violations are internal errors. The engine turns ⟨r, d⟩ into the
  // per-link delta and the store applies it — the broker itself no longer
  // touches link state.
  AdmissionEngine::make_delta(rec, paths_.link_states(rec.id, store_.nodes()),
                              params, profile, &delta_scratch_);
  store_.apply(delta_scratch_);
}

void BandwidthBroker::unbook_reservation(const PathRecord& rec,
                                         const RateDelayPair& params,
                                         const TrafficProfile& profile) {
  AdmissionEngine::make_delta(rec, paths_.link_states(rec.id, store_.nodes()),
                              params, profile, &delta_scratch_);
  store_.revert(delta_scratch_);
}

bool BandwidthBroker::request_rate_ok(const std::string& ingress,
                                      Seconds now) {
  if (options_.max_request_rate_per_ingress <= 0.0) return true;
  MutexLock guard(limiter_mu_);
  auto it = limiters_.find(ingress);
  if (it == limiters_.end()) {
    it = limiters_
             .emplace(ingress,
                      TokenBucket(std::max(options_.request_burst, 1.0),
                                  options_.max_request_rate_per_ingress))
             .first;
  }
  if (it->second.earliest_conform(now, 1.0) > now) return false;
  it->second.consume(now, 1.0);
  return true;
}

Result<Reservation> BandwidthBroker::request_service(
    const FlowServiceRequest& request, Seconds now) {
  ++stats_.requests;
  AuditEntry audit;
  audit.time = now;
  audit.kind = AuditKind::kPerFlowRequest;
  audit.ingress = request.ingress;
  audit.egress = request.egress;
  audit.requested_rho = request.profile.rho;
  audit.requested_delay = request.e2e_delay_req;
  auto rejected = [&](RejectReason reason, const std::string& detail)
      -> Status {
    ++stats_.rejected[reason];
    audit.admitted = false;
    audit.reason = reason;
    audit.detail = detail;
    audit_.record(std::move(audit));
    return Status::rejected(std::string(reject_reason_name(reason)) + ": " +
                            detail);
  };

  // Phase 0a: broker overload protection.
  if (!request_rate_ok(request.ingress, now)) {
    last_outcome_ = AdmissionOutcome{};
    last_outcome_.reason = RejectReason::kPolicy;
    last_outcome_.detail = "signaling rate limit";
    return rejected(RejectReason::kPolicy,
                    "signaling rate limit exceeded for " + request.ingress);
  }
  // Phase 0b: policy control (Section 2.2).
  Status pol = policy_.check(request, flows_from_ingress(request.ingress));
  if (!pol.is_ok()) {
    last_outcome_ = AdmissionOutcome{};
    last_outcome_.reason = RejectReason::kPolicy;
    last_outcome_.detail = pol.message();
    return rejected(RejectReason::kPolicy, pol.message());
  }
  // Path selection: the pair's one provisioned route.
  auto chosen = provision_path(request.ingress, request.egress);
  if (!chosen.is_ok()) {
    last_outcome_ = AdmissionOutcome{};
    last_outcome_.reason = RejectReason::kNoPath;
    last_outcome_.detail = chosen.status().message();
    return rejected(RejectReason::kNoPath, chosen.status().message());
  }
  const PathId path = chosen.value();
  // Phase 1: path-oriented admissibility test (Section 3).
  last_outcome_ = admit_per_flow(path_view(path), request.profile,
                                 request.e2e_delay_req, &scratch_);
  if (!last_outcome_.admitted) {
    audit.path = path;
    audit.path_residual = path_residual(path);
    return rejected(last_outcome_.reason, last_outcome_.detail);
  }
  // Phase 2: bookkeeping (Section 2.2).
  const PathRecord& rec = paths_.record(path);
  const RateDelayPair params = last_outcome_.params;
  book_reservation(rec, params, request.profile);

  FlowRecord flow;
  flow.id = flows_.next_id();
  flow.kind = FlowKind::kPerFlow;
  flow.profile = request.profile;
  flow.e2e_delay_req = request.e2e_delay_req;
  flow.path = path;
  flow.reservation = params;
  flow.admitted_at = now;
  flows_.add(flow);
  ++ingress_flows_[request.ingress];
  ++stats_.admitted;

  audit.admitted = true;
  audit.flow = flow.id;
  audit.path = path;
  audit.granted_rate = params.rate;
  audit.granted_delay = params.delay;
  audit.path_residual = path_residual(path);
  audit_.record(std::move(audit));

  Reservation res;
  res.flow = flow.id;
  res.path = path;
  res.params = params;
  res.e2e_bound = last_outcome_.e2e_bound;
  return res;
}

Status BandwidthBroker::release_service(FlowId flow) {
  auto rec = flows_.remove(flow);
  if (!rec.is_ok()) return rec.status();
  QOSBB_REQUIRE(rec.value().kind == FlowKind::kPerFlow,
                "release_service on a microflow; use leave_class_service");
  const PathRecord& path = paths_.record(rec.value().path);
  auto it = ingress_flows_.find(path.ingress());
  QOSBB_REQUIRE(it != ingress_flows_.end() && it->second > 0,
                "ingress flow accounting underflow");
  --it->second;
  unbook_reservation(path, rec.value().reservation, rec.value().profile);

  AuditEntry audit;
  audit.kind = AuditKind::kPerFlowRelease;
  audit.admitted = true;
  audit.flow = flow;
  audit.path = rec.value().path;
  audit.ingress = path.ingress();
  audit.egress = path.egress();
  audit.requested_rho = rec.value().profile.rho;
  audit.path_residual = path_residual(rec.value().path);
  audit_.record(std::move(audit));
  return Status::ok();
}

Result<Reservation> BandwidthBroker::renegotiate_service(
    FlowId flow, Seconds new_delay_req, Seconds now) {
  auto rec = flows_.get(flow);
  if (!rec.is_ok()) {
    // No admission test ran: report no reason, as the concurrent front does
    // (the journal records it, and recovery replays it on this broker).
    last_outcome_ = AdmissionOutcome{};
    return rec.status();
  }
  QOSBB_REQUIRE(rec.value().kind == FlowKind::kPerFlow,
                "renegotiate_service: not a per-flow reservation");
  const PathRecord& path = paths_.record(rec.value().path);
  // Withdraw the current reservation so the admissibility test sees the
  // path without this flow's own footprint, then either commit the new
  // parameters or restore the old ones — atomic from the caller's view.
  unbook_reservation(path, rec.value().reservation, rec.value().profile);
  const PathView view = path_view(rec.value().path);
  last_outcome_ = admit_per_flow(view, rec.value().profile, new_delay_req,
                                 &scratch_);
  if (!last_outcome_.admitted) {
    book_reservation(path, rec.value().reservation, rec.value().profile);
    ++stats_.rejected[last_outcome_.reason];
    return Status::rejected(
        std::string(reject_reason_name(last_outcome_.reason)) +
        ": renegotiation infeasible; original reservation kept");
  }
  book_reservation(path, last_outcome_.params, rec.value().profile);
  FlowRecord updated = rec.value();
  updated.e2e_delay_req = new_delay_req;
  updated.reservation = last_outcome_.params;
  // rec.value() above proves the flow exists; remove cannot fail
  (void)flows_.remove(flow);  // qosbb-lint: allow(discarded-status)
  flows_.add(updated);
  ++stats_.admitted;
  ++stats_.requests;

  AuditEntry audit;
  audit.time = now;
  audit.kind = AuditKind::kPerFlowRequest;
  audit.admitted = true;
  audit.flow = flow;
  audit.path = rec.value().path;
  audit.ingress = path.ingress();
  audit.egress = path.egress();
  audit.requested_rho = rec.value().profile.rho;
  audit.requested_delay = new_delay_req;
  audit.granted_rate = last_outcome_.params.rate;
  audit.granted_delay = last_outcome_.params.delay;
  audit.path_residual = path_residual(rec.value().path);
  audit.detail = "renegotiation";
  audit_.record(std::move(audit));

  Reservation res;
  res.flow = flow;
  res.path = rec.value().path;
  res.params = last_outcome_.params;
  res.e2e_bound = last_outcome_.e2e_bound;
  return res;
}

ClassId BandwidthBroker::define_class(Seconds e2e_delay, Seconds delay_param,
                                      std::string name) {
  return classes_.define_class(e2e_delay, delay_param, std::move(name));
}

JoinResult BandwidthBroker::request_class_service(
    ClassId cls, const TrafficProfile& profile, const std::string& ingress,
    const std::string& egress, Seconds now,
    std::optional<Bits> edge_backlog) {
  ++stats_.requests;
  auto path = provision_path(ingress, egress);
  if (!path.is_ok()) {
    ++stats_.rejected[RejectReason::kNoPath];
    JoinResult out;
    out.reason = RejectReason::kNoPath;
    out.detail = path.status().message();
    return out;
  }
  JoinResult out =
      classes_.microflow_join(cls, path.value(), profile, now, edge_backlog);
  if (out.admitted) {
    ++stats_.admitted;
  } else {
    ++stats_.rejected[out.reason];
  }
  AuditEntry audit;
  audit.time = now;
  audit.kind = AuditKind::kMicroflowJoin;
  audit.admitted = out.admitted;
  audit.reason = out.reason;
  audit.flow = out.microflow;
  audit.path = path.value();
  audit.ingress = ingress;
  audit.egress = egress;
  audit.requested_rho = profile.rho;
  audit.requested_delay = classes_.service_class(cls).e2e_delay;
  audit.granted_rate = out.base_rate;
  audit.path_residual = path_residual(path.value());
  audit.detail = out.detail;
  audit_.record(std::move(audit));
  return out;
}

Result<LeaveResult> BandwidthBroker::leave_class_service(
    FlowId microflow, Seconds now, std::optional<Bits> edge_backlog) {
  auto out = classes_.microflow_leave(microflow, now, edge_backlog);
  if (out.is_ok()) {
    AuditEntry audit;
    audit.time = now;
    audit.kind = AuditKind::kMicroflowLeave;
    audit.admitted = true;
    audit.flow = microflow;
    audit.granted_rate = out.value().base_rate;
    audit_.record(std::move(audit));
  }
  return out;
}

void BandwidthBroker::expire_contingency(GrantId grant, Seconds now) {
  classes_.expire_grant(grant, now);
}

void BandwidthBroker::edge_buffer_empty(FlowId macroflow, Seconds now) {
  classes_.edge_buffer_empty(macroflow, now);
}

Status BandwidthBroker::reserve_link_external(const std::string& link,
                                              BitsPerSecond amount) {
  if (!store_.nodes().has_link(link)) {
    return Status::not_found("unknown link " + link);
  }
  if (!(amount > 0.0)) {
    return Status::invalid_argument("external reservation must be positive");
  }
  Status s = store_.nodes().link(link).reserve(amount);
  if (!s.is_ok()) return s;
  external_[link] += amount;
  return Status::ok();
}

Result<BitsPerSecond> BandwidthBroker::release_link_external(
    const std::string& link, BitsPerSecond amount) {
  if (!store_.nodes().has_link(link)) {
    return Status::not_found("unknown link " + link);
  }
  if (!(amount >= 0.0)) {
    return Status::invalid_argument("release amount must be non-negative");
  }
  auto it = external_.find(link);
  const BitsPerSecond held = it == external_.end() ? 0.0 : it->second;
  const BitsPerSecond freed = std::min(held, amount);
  if (freed > 0.0) {
    store_.nodes().link(link).release(freed);
    if (freed >= held) {
      external_.erase(it);
    } else {
      it->second = held - freed;
    }
  }
  return freed;
}

namespace {

/// Append the grouped order of `n` requests (read through `at`) to
/// `*order`, each index shifted by `offset`.
template <typename At>
void append_grouped_order(std::size_t n, At at, std::size_t offset,
                          std::vector<std::size_t>* order) {
  thread_local std::vector<char> placed;
  placed.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (placed[i] != 0) continue;
    const FlowServiceRequest& head = at(i);
    for (std::size_t j = i; j < n; ++j) {
      if (placed[j] == 0 && at(j).ingress == head.ingress &&
          at(j).egress == head.egress) {
        placed[j] = 1;
        order->push_back(offset + j);
      }
    }
  }
}

}  // namespace

std::vector<std::size_t> batch_grouped_order(
    std::span<const FlowServiceRequest> requests) {
  std::vector<std::size_t> order;
  order.reserve(requests.size());
  append_grouped_order(
      requests.size(),
      [&](std::size_t i) -> const FlowServiceRequest& { return requests[i]; },
      0, &order);
  return order;
}

void slab_execution_order(std::span<const SlabOp> ops,
                          std::vector<std::size_t>* order) {
  order->clear();
  for (std::size_t i = 0; i < ops.size();) {
    if (!ops[i].is_admit()) {
      order->push_back(i++);
      continue;
    }
    std::size_t end = i + 1;
    while (end < ops.size() && ops[end].is_admit()) ++end;
    append_grouped_order(
        end - i,
        [&](std::size_t k) -> const FlowServiceRequest& {
          return *ops[i + k].request;
        },
        i, order);
    i = end;
  }
}

}  // namespace qosbb
