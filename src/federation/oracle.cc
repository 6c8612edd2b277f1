#include "federation/oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "core/concurrent_front.h"
#include "core/oracle.h"
#include "topo/routing.h"

namespace qosbb {

namespace {

std::string fmt_rate(BitsPerSecond r) {
  std::ostringstream os;
  os.precision(17);
  os << r;
  return os.str();
}

}  // namespace

FederationOracle::FederationOracle(FederationPlan plan, BrokerOptions options)
    : plan_(std::move(plan)),
      graph_(plan_.global.to_graph()),
      bb_(std::make_unique<BandwidthBroker>(plan_.global, options)) {}

Status FederationOracle::observe_admit(const FlowServiceRequest& request,
                                       const FederatedOutcome& outcome) {
  const bool fed_admitted = outcome.result.is_ok();
  if (!outcome.inter_domain) {
    // Intra-domain: bit-identity against the flat broker's own pipeline.
    auto mirror = bb_->request_service(request);
    if (mirror.is_ok() != fed_admitted) {
      return Status::internal(
          std::string("intra bit-identity broken: federation ") +
          (fed_admitted ? "admitted" : "rejected") + ", flat mirror " +
          (mirror.is_ok() ? "admitted" : "rejected") + " (" +
          (fed_admitted ? mirror.status().message()
                        : outcome.result.status().message()) +
          ")");
    }
    if (!fed_admitted) return Status::ok();
    const Reservation& fed = outcome.result.value();
    const Reservation& flat = mirror.value();
    if (fed.params.rate != flat.params.rate ||
        fed.params.delay != flat.params.delay ||
        fed.e2e_bound != flat.e2e_bound) {
      return Status::internal(
          "intra bit-identity broken: federation rate " +
          fmt_rate(fed.params.rate) + " bound " + fmt_rate(fed.e2e_bound) +
          " vs flat rate " + fmt_rate(flat.params.rate) + " bound " +
          fmt_rate(flat.e2e_bound));
    }
    mirror_flows_[fed.flow] = {flat.flow};
    return Status::ok();
  }

  // Inter-domain: rejects are trivially conservative; nothing to mirror.
  if (!fed_admitted) return Status::ok();

  // Conservativeness: the flat broker, at the SAME link state, must admit
  // the original request. Decision only — the mirror's booking below uses
  // the federation's pinned segments so the link states stay in lockstep.
  // (Provisioning is lazy and decision-free; the probe needs the global
  // endpoint pair provisioned on the mirror first.)
  if (auto p = bb_->provision_path(request.ingress, request.egress);
      !p.is_ok()) {
    return Status::internal("oracle: cannot provision the flat path for an "
                            "admitted flow: " + p.status().message());
  }
  const OracleDecision decision = oracle_decide_request(*bb_, request);
  if (!decision.outcome.admitted) {
    return Status::internal(
        "conservativeness broken: federation admitted an inter-domain flow "
        "the flat oracle rejects (" +
        std::string(reject_reason_name(decision.outcome.reason)) + ": " +
        decision.outcome.detail + ")");
  }

  const auto route = shortest_path(graph_, request.ingress, request.egress);
  if (!route.is_ok()) {
    return Status::internal("oracle: no flat route for an admitted flow");
  }
  const auto segments = segment_path(plan_, route.value());
  if (static_cast<int>(segments.size()) != outcome.segments) {
    return Status::internal("oracle: segmentation mismatch (" +
                            std::to_string(segments.size()) + " vs " +
                            std::to_string(outcome.segments) + ")");
  }
  std::vector<FlowId> booked;
  for (const PathSegment& seg : segments) {
    auto res = bb_->request_service(pinned_segment_request(
        seg.nodes.front(), seg.nodes.back(), outcome.segment_rate,
        plan_.global.l_max));
    if (!res.is_ok()) {
      return Status::internal(
          "oracle: mirror refused a pinned segment the member booked (" +
          seg.nodes.front() + " -> " + seg.nodes.back() + ": " +
          res.status().message() + ")");
    }
    if (res.value().params.rate != outcome.segment_rate) {
      return Status::internal("oracle: mirror pinned rate " +
                              fmt_rate(res.value().params.rate) +
                              " != segment rate " +
                              fmt_rate(outcome.segment_rate));
    }
    booked.push_back(res.value().flow);
  }
  mirror_flows_[outcome.result.value().flow] = std::move(booked);
  return Status::ok();
}

Status FederationOracle::observe_release(FlowId fed_flow) {
  auto it = mirror_flows_.find(fed_flow);
  if (it == mirror_flows_.end()) {
    return Status::internal("oracle: release of unknown federated flow " +
                            std::to_string(fed_flow));
  }
  for (FlowId flow : it->second) {
    if (Status s = bb_->release_service(flow); !s.is_ok()) {
      return Status::internal("oracle: mirror release failed: " +
                              s.message());
    }
  }
  mirror_flows_.erase(it);
  return Status::ok();
}

Status FederationOracle::check_member_links(const BandwidthBroker& member,
                                            int domain) const {
  if (domain < 0 || domain >= static_cast<int>(plan_.members.size())) {
    return Status::invalid_argument("check_member_links: bad domain");
  }
  for (const LinkSpec& link : plan_.members[domain].links) {
    const std::string name = link.from + "->" + link.to;
    if (!member.nodes().has_link(name)) {
      return Status::internal("member " + std::to_string(domain) +
                              " is missing owned link " + name);
    }
    const BitsPerSecond member_reserved = member.nodes().link(name).reserved();
    const BitsPerSecond mirror_reserved = bb_->nodes().link(name).reserved();
    // reserved() is a running float sum, and only the member executes the
    // transient 2PC bookings (boundary contingency, rolled-back prepares):
    // its +r/−r pairs cancel only up to one ulp each. Admission decisions
    // are unaffected (capacity checks carry kRateTolerance), so the audit
    // allows exactly that rounding envelope and nothing more.
    const double tol = 1e-6 * std::max(1.0, std::abs(mirror_reserved));
    if (std::abs(member_reserved - mirror_reserved) > tol) {
      return Status::internal(
          "link-state divergence on " + name + ": member reserved " +
          fmt_rate(member_reserved) + " vs flat mirror " +
          fmt_rate(mirror_reserved));
    }
  }
  return Status::ok();
}

Status FederationOracle::check_state() const {
  const OracleStateReport report = oracle_check_state(*bb_);
  if (report.ok) return Status::ok();
  return Status::internal("mirror state audit failed: " + report.to_string());
}

MemberReplayReport replay_member_ops(const DomainSpec& spec,
                                     const BrokerOptions& options,
                                     const std::vector<RecordedOp>& ops) {
  MemberReplayReport report;
  BandwidthBroker bb(spec, options);
  ConcurrentBrokerFront front(bb);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const RecordedOp& op = ops[i];
    switch (op.kind) {
      case RecordedOp::Kind::kProvision: {
        auto s = front.exclusive([&](BandwidthBroker& b) {
          return b.provision_path(op.ingress, op.egress);
        });
        if (!s.is_ok()) {
          report.detail = "op " + std::to_string(i) +
                          ": provision failed: " + s.status().message();
          return report;
        }
        break;
      }
      case RecordedOp::Kind::kAdmit: {
        FrontOutcome out = front.request_service(op.request);
        if (out.result.is_ok() != op.admitted) {
          report.detail = "op " + std::to_string(i) +
                          ": replay decision diverged (recorded " +
                          (op.admitted ? "admit" : "reject") +
                          ", replay " +
                          (out.result.is_ok() ? "admit" : "reject") + ")";
          return report;
        }
        if (op.admitted && out.result.value().flow != op.assigned_flow) {
          report.detail = "op " + std::to_string(i) + ": replay flow id " +
                          std::to_string(out.result.value().flow) +
                          " != recorded " +
                          std::to_string(op.assigned_flow);
          return report;
        }
        break;
      }
      case RecordedOp::Kind::kRelease: {
        if (Status s = front.release_service(op.flow); !s.is_ok()) {
          report.detail = "op " + std::to_string(i) +
                          ": replay release of flow " +
                          std::to_string(op.flow) +
                          " failed: " + s.message();
          return report;
        }
        break;
      }
    }
    ++report.ops_replayed;
  }
  auto digest = front.exclusive(
      [](BandwidthBroker& b) { return broker_state_digest(b); });
  if (!digest.is_ok()) {
    report.detail = "replay digest failed: " + digest.status().message();
    return report;
  }
  report.digest = digest.value();
  report.live_flows = bb.flows().count();
  report.ok = true;
  return report;
}

}  // namespace qosbb
