#include "core/concurrent_front.h"

#include <algorithm>
#include <limits>

#include "core/link_store.h"
#include "vtrs/delay_bounds.h"

namespace qosbb {

namespace {

/// Pre-filter verdict: a PREDICTION of the admission outcome, never a
/// decision. kUnknown means neither conservative bound fired.
enum class Prefilter { kAdmit, kReject, kUnknown };

/// Admission pre-filter over the per-link headroom scalars of a group's
/// evolved snapshot. Fast-reject fires when the request's sustained rate
/// alone exceeds the optimistic headroom of some hop — any rate the full test
/// could grant is >= rho and <= C_res, so the test must reject too.
/// Fast-accept fires only on rate-based-only paths, where it replicates
/// the §3.1 comparisons verbatim (same r_min / r_low / r_up expressions,
/// same epsilons, same buffer bound per hop); mixed paths additionally get
/// the §3.2 pre-scan reject conditions (t^ν <= 0, r_floor0 over r_cap) but
/// never a fast-accept — the Figure-4 interval scan cannot be summarized
/// by two scalars. The full test reads the same snapshot, so every
/// implication is over bit-identical values and the prediction always
/// matches it; callers still run the authoritative test regardless.
Prefilter prefilter_predict(const PathRecord& rec,
                            const TrafficProfile& profile, Seconds d_req,
                            const PathSnapshot& snap) {
  constexpr double kRateEps = 1e-6;  // the admission templates' b/s slack
  const std::size_t nlinks = snap.storage.size();
  double c_res = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < nlinks; ++i) {
    c_res = std::min(c_res, snap.storage[i].residual());
  }
  if (profile.rho > c_res + kRateEps) return Prefilter::kReject;
  if (rec.abstract.delay_based_count() == 0) {
    const BitsPerSecond r_min =
        min_rate_rate_only(rec.abstract, profile, d_req);
    const BitsPerSecond r_low = std::max(profile.rho, r_min);
    const BitsPerSecond r_up = std::min(profile.peak, c_res);
    if (r_low > r_up + kRateEps) return Prefilter::kReject;
    const auto& hops = rec.abstract.hops;
    for (std::size_t i = 0; i < nlinks; ++i) {
      const Bits need = per_hop_buffer_bound(hops[i].kind, r_low, 0.0,
                                             profile.l_max,
                                             hops[i].error_term);
      if (snap.storage[i].buffer_residual() < need - 1e-6) {
        return Prefilter::kReject;
      }
    }
    return Prefilter::kAdmit;
  }
  const int h = rec.hop_count();
  const int q = rec.rate_based_count();
  const int hq = h - q;
  const Seconds d_tot = rec.d_tot();
  const Seconds t_on = profile.t_on();
  const double t_nu = (d_req - d_tot + t_on) / static_cast<double>(hq);
  if (t_nu <= 0.0) return Prefilter::kReject;
  const double xi =
      (t_on * profile.peak + static_cast<double>(q + 1) * profile.l_max) /
      static_cast<double>(hq);
  const BitsPerSecond r_cap = std::min(profile.peak, c_res);
  const BitsPerSecond r_floor0 = std::max(profile.rho, xi / t_nu);
  if (r_floor0 > r_cap + kRateEps) return Prefilter::kReject;
  return Prefilter::kUnknown;
}

/// Everything the group path decides about one batch member during its
/// single pass, consumed by the deferred bookkeeping phase.
struct MemberPlan {
  bool phase0_reject = false;  ///< rejected before the admission test
  bool admitted = false;
  std::size_t delta_slot = 0;       ///< index into the batch delta array
  AdmissionOutcome outcome;
  std::string status_detail;        ///< phase-0 audit/status detail
  BitsPerSecond audit_residual = 0.0;
  AuditEntry audit;
};

// Per-thread reusable buffers for the group path: once the vectors reach
// path length, a request performs no heap allocation outside string
// building.
thread_local AdmissionScratch t_scratch;
thread_local PathSnapshot t_snap;
thread_local BookingDelta t_delta;
thread_local BookingDelta t_delta_old;
thread_local std::vector<MemberPlan> t_plans;
thread_local std::vector<BookingDelta> t_batch_deltas;
thread_local std::vector<const BookingDelta*> t_delta_ptrs;
thread_local std::vector<std::size_t> t_order;  ///< execute_batch order

/// C_res^P once one member's committed-to-be booking lands on the path
/// `snap` holds: the delta's items are in hop order (make_delta walks
/// snap.storage), and each hop's residual takes the same double operations
/// as the live reserve() (and LinkSnapshot::apply_booking), folded by the
/// same min as snapshot capture — bit-identical to the live residual right
/// after this member's commit.
BitsPerSecond residual_after(const PathSnapshot& snap,
                             const BookingDelta& delta) {
  QOSBB_REQUIRE(delta.items.size() == snap.storage.size(),
                "batch evolve: delta does not match path");
  BitsPerSecond res = std::numeric_limits<BitsPerSecond>::infinity();
  for (std::size_t i = 0; i < snap.storage.size(); ++i) {
    const LinkSnapshot& link = snap.storage[i];
    res = std::min(res,
                   link.capacity() - (link.reserved() + delta.items[i].rate));
  }
  return res;
}

/// Evolve a path snapshot by one member's committed-to-be booking, so the
/// next member is tested against exactly the state this commit creates.
void evolve_snapshot(PathSnapshot* snap, const BookingDelta& delta) {
  snap->c_res = residual_after(*snap, delta);
  for (std::size_t i = 0; i < snap->storage.size(); ++i) {
    const LinkBooking& b = delta.items[i];
    snap->storage[i].apply_booking(b.rate, b.buffer, b.edf, b.delay, b.l_max);
  }
}

}  // namespace

ConcurrentBrokerFront::ConcurrentBrokerFront(BandwidthBroker& bb, int)
    : bb_(bb),
      fast_eligible_(bb.options().path_selection == PathSelection::kMinHop &&
                     !bb.options().allow_preemption) {
  ExclusiveLock guard(big_);
  warm_path_caches();
}

void ConcurrentBrokerFront::warm_path_caches() {
  // Resolving a path's cache entry is the only mutation link_states ever
  // performs; doing it here, under exclusive big_, makes the group path's
  // reads of the cache genuinely read-only.
  const std::size_t n = bb_.paths_.path_count();
  for (std::size_t i = 0; i < n; ++i) {
    const PathId id = static_cast<PathId>(i);
    (void)bb_.paths_.link_states(id, bb_.store_.nodes());
    (void)bb_.paths_.edf_link_states(id, bb_.store_.nodes());
  }
}

BitsPerSecond ConcurrentBrokerFront::residual_over(
    const std::vector<const LinkQosState*>& links) {
  BitsPerSecond res = std::numeric_limits<BitsPerSecond>::infinity();
  for (const LinkQosState* link : links) {
    res = std::min(res, link->residual());
  }
  return res;
}

FrontOutcome ConcurrentBrokerFront::request_service(
    const FlowServiceRequest& request, Seconds now) {
  const SlabOp op = SlabOp::admit(kNoRequestId, request);
  constexpr std::size_t kOrder[] = {0};
  FrontOutcome out;
  execute_ordered({&op, 1}, kOrder, now, {&out, 1});
  return out;
}

FrontOutcome ConcurrentBrokerFront::request_exclusive(
    const FlowServiceRequest& request, Seconds now) {
  ExclusiveLock guard(big_);
  FrontOutcome out;
  out.result = bb_.request_service(request, now);
  out.outcome = bb_.last_outcome_;
  warm_path_caches();  // the request may have provisioned new paths
  return out;
}

AuditEntry ConcurrentBrokerFront::request_audit(
    const FlowServiceRequest& request, Seconds now) {
  AuditEntry audit;
  audit.time = now;
  audit.kind = AuditKind::kPerFlowRequest;
  audit.ingress = request.ingress;
  audit.egress = request.egress;
  audit.requested_rho = request.profile.rho;
  audit.requested_delay = request.e2e_delay_req;
  return audit;
}

bool ConcurrentBrokerFront::phase0_ok(const FlowServiceRequest& request,
                                      Seconds now, std::size_t pending,
                                      AdmissionOutcome* outcome,
                                      std::string* detail) {
  // Phase 0a: broker overload protection (the limiter map has its own
  // mutex inside the broker), one token per request in order.
  if (!bb_.request_rate_ok(request.ingress, now)) {
    outcome->reason = RejectReason::kPolicy;
    outcome->detail = "signaling rate limit";
    *detail = "signaling rate limit exceeded for " + request.ingress;
    return false;
  }
  // Phase 0b: policy control. The live flow count is read under flow_mu_;
  // concurrent admits racing a max_flows boundary may overshoot by the
  // concurrency degree (each decision was valid when taken) — the count is
  // advisory policy input, not a bookkeeping invariant.
  std::size_t nflows = pending;
  {
    MutexLock fg(flow_mu_);
    nflows += bb_.flows_from_ingress(request.ingress);
  }
  if (Status pol = bb_.policy_.check(request, nflows); !pol.is_ok()) {
    outcome->reason = RejectReason::kPolicy;
    outcome->detail = pol.message();
    *detail = pol.message();
    return false;
  }
  return true;
}

void ConcurrentBrokerFront::book_reject(const AdmissionOutcome& outcome,
                                        const std::string& detail,
                                        AuditEntry& audit, FrontOutcome* out) {
  ++bb_.stats_.rejected[outcome.reason];
  audit.admitted = false;
  audit.reason = outcome.reason;
  audit.detail = detail;
  bb_.audit_.record(std::move(audit));
  out->outcome = outcome;
  out->result = Status::rejected(
      std::string(reject_reason_name(outcome.reason)) + ": " + detail);
}

void ConcurrentBrokerFront::book_admit(const FlowServiceRequest& request,
                                       PathId path,
                                       const AdmissionOutcome& outcome,
                                       BitsPerSecond residual, Seconds now,
                                       AuditEntry& audit, FrontOutcome* out) {
  FlowRecord flow;
  flow.id = bb_.flows_.next_id();
  flow.kind = FlowKind::kPerFlow;
  flow.profile = request.profile;
  flow.e2e_delay_req = request.e2e_delay_req;
  flow.path = path;
  flow.reservation = outcome.params;
  flow.admitted_at = now;
  flow.priority = request.priority;
  bb_.flows_.add(flow);
  ++bb_.ingress_flows_[request.ingress];
  ++bb_.stats_.admitted;

  audit.admitted = true;
  audit.flow = flow.id;
  audit.path = path;
  audit.granted_rate = outcome.params.rate;
  audit.granted_delay = outcome.params.delay;
  audit.path_residual = residual;
  bb_.audit_.record(std::move(audit));

  Reservation res;
  res.flow = flow.id;
  res.path = path;
  res.params = outcome.params;
  res.e2e_bound = outcome.e2e_bound;
  out->outcome = outcome;
  out->result = std::move(res);
}

void ConcurrentBrokerFront::execute_batch(std::span<const SlabOp> ops,
                                          Seconds now,
                                          std::span<FrontOutcome> outs) {
  slab_execution_order(ops, &t_order);
  execute_ordered(ops, t_order, now, outs);
}

void ConcurrentBrokerFront::execute_ordered(std::span<const SlabOp> ops,
                                            std::span<const std::size_t> order,
                                            Seconds now,
                                            std::span<FrontOutcome> outs) {
  QOSBB_REQUIRE(outs.size() == ops.size(), "execute_batch: outcome arity");
  std::size_t g = 0;
  while (g < order.size()) {
    const SlabOp& head = ops[order[g]];
    if (!head.is_admit()) {
      outs[order[g++]] =
          FrontOutcome::release(release_service(head.flow), head.flow);
      continue;
    }
    std::size_t e = g + 1;
    while (e < order.size() && ops[order[e]].is_admit() &&
           ops[order[e]].request->ingress == head.request->ingress &&
           ops[order[e]].request->egress == head.request->egress) {
      ++e;
    }
    const std::span<const std::size_t> members = order.subspan(g, e - g);
    if (!fast_eligible_ || !try_group_fast(members, ops, now, outs)) {
      // Group shapes the single-snapshot path does not handle run
      // per-member on the sequential broker — which IS the slab's defined
      // semantics (one-at-a-time in execution order), so this fallback is
      // exact, just unamortized.
      for (const std::size_t idx : members) {
        outs[idx] = request_exclusive(*ops[idx].request, now);
      }
    }
    g = e;
  }
}

std::vector<FrontOutcome> ConcurrentBrokerFront::submit_batch(
    std::span<const FlowServiceRequest> requests, Seconds now) {
  std::vector<SlabOp> ops;
  ops.reserve(requests.size());
  for (const FlowServiceRequest& r : requests) {
    ops.push_back(SlabOp::admit(kNoRequestId, r));
  }
  std::vector<FrontOutcome> outs(requests.size());
  execute_batch(ops, now, outs);
  return outs;
}

bool ConcurrentBrokerFront::try_group_fast(
    std::span<const std::size_t> members, std::span<const SlabOp> ops,
    Seconds now, std::span<FrontOutcome> outs)
    NO_THREAD_SAFETY_ANALYSIS /* dynamic shard-lock sets; big_ held shared */ {
  SharedLock guard(big_);
  const FlowServiceRequest& head = *ops[members.front()].request;
  const std::vector<PathId>& candidates =
      bb_.paths_.find_all_ref(head.ingress, head.egress);
  // The group path handles the canonical min-hop shape: exactly one
  // provisioned candidate. Unprovisioned pairs (need exclusive-mode
  // provisioning) and multi-candidate configurations (per-member candidate
  // iteration) fall back to per-member exclusive execution.
  if (candidates.size() != 1) return false;
  const PathId chosen = candidates.front();
  const PathRecord& rec = bb_.paths_.record(chosen);
  const std::vector<const LinkQosState*>& links =
      bb_.paths_.link_states(chosen, bb_.store_.nodes());

  const std::size_t k = members.size();
  t_plans.resize(k);

  // Single pass in member order: phase 0 (rate limiter + policy, exactly
  // once per member — results are cached in the plan so a later OCC
  // fallback never re-runs them), then the admission test against the
  // EVOLVED snapshot. One snapshot capture serves the whole group.
  bb_.store_.snapshot_path(rec, links, &t_snap);
  std::size_t inbatch_admits = 0;  // tentative admits, same ingress by def.
  std::size_t n_admitted = 0;
  for (std::size_t m = 0; m < k; ++m) {
    const FlowServiceRequest& request = *ops[members[m]].request;
    MemberPlan& plan = t_plans[m];
    plan = MemberPlan{};
    ++bb_.stats_.requests;
    plan.audit = request_audit(request, now);
    // Phase 0, one limiter token per member in order. Tentative in-batch
    // admits from this group count toward the ingress total — exactly the
    // flows one-at-a-time execution would have added before this member.
    if (!phase0_ok(request, now, inbatch_admits, &plan.outcome,
                   &plan.status_detail)) {
      plan.phase0_reject = true;
      continue;
    }

    // Pre-filter prediction against the evolved snapshot scalars, verified
    // against the verdict below.
    const Prefilter pred = prefilter_predict(rec, request.profile,
                                             request.e2e_delay_req, t_snap);

    plan.outcome = AdmissionEngine::test(t_snap, request.profile,
                                         request.e2e_delay_req, &t_scratch);
    if (pred != Prefilter::kUnknown) {
      record_prefilter(pred == Prefilter::kAdmit, plan.outcome.admitted);
    }
    if (plan.outcome.admitted) {
      if (t_batch_deltas.size() <= n_admitted) t_batch_deltas.emplace_back();
      BookingDelta& delta = t_batch_deltas[n_admitted];
      AdmissionEngine::make_delta(t_snap, plan.outcome.params,
                                  request.profile, &delta);
      // Only a later member reads the evolved links (evolving an EDF hop
      // copies its knot array); after the last one C_res^P is enough.
      if (m + 1 < k) {
        evolve_snapshot(&t_snap, delta);
      } else {
        t_snap.c_res = residual_after(t_snap, delta);
      }
      plan.admitted = true;
      plan.delta_slot = n_admitted++;
      ++inbatch_admits;
    }
    // Audit headroom: the evolved C_res^P at this point equals the live
    // residual one-at-a-time execution reads right after this member
    // commits (admit) or is turned away (reject).
    plan.audit_residual = t_snap.c_res;
  }

  // Group commit: one shard-lock acquisition, one validation pass against
  // the base versions, every member applied in order.
  bool committed = true;
  if (n_admitted > 0) {
    t_delta_ptrs.clear();
    for (std::size_t i = 0; i < n_admitted; ++i) {
      t_delta_ptrs.push_back(&t_batch_deltas[i]);
    }
    committed = bb_.store_.try_commit_batch(t_delta_ptrs);
  }
  t_snap.clear();

  if (!committed) {
    // Some other thread committed on a shared link since the group
    // snapshot. Only the members that needed admission re-run, each
    // through this OCC retry loop — the front's only one (phase-0 results
    // stand — the limiter token was consumed and the policy decision was
    // valid when taken).
    occ_conflicts_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t m = 0; m < k; ++m) {
      MemberPlan& plan = t_plans[m];
      if (plan.phase0_reject) continue;
      const FlowServiceRequest& request = *ops[members[m]].request;
      plan.admitted = false;
      for (;;) {
        bb_.store_.snapshot_path(rec, links, &t_snap);
        plan.outcome = AdmissionEngine::test(t_snap, request.profile,
                                             request.e2e_delay_req,
                                             &t_scratch);
        if (!plan.outcome.admitted) break;
        AdmissionEngine::make_delta(t_snap, plan.outcome.params,
                                    request.profile, &t_delta);
        if (bb_.store_.try_commit(t_delta)) {
          plan.admitted = true;
          break;
        }
        occ_conflicts_.fetch_add(1, std::memory_order_relaxed);
      }
      t_snap.clear();
      {
        LinkStateStore::ShardLockSet sg(bb_.store_, links);
        plan.audit_residual = residual_over(links);
      }
    }
  }

  // Phase 2, deferred: flow-table bookkeeping, stats, audit, and outcome
  // assembly for every member under ONE flow_mu_ hold, in member order —
  // the audit sequence and flow IDs come out identical to one-at-a-time
  // execution.
  MutexLock fg(flow_mu_);
  for (std::size_t m = 0; m < k; ++m) {
    MemberPlan& plan = t_plans[m];
    const FlowServiceRequest& request = *ops[members[m]].request;
    FrontOutcome& out = outs[members[m]];
    if (plan.phase0_reject) {
      book_reject(plan.outcome, plan.status_detail, plan.audit, &out);
    } else if (!plan.admitted) {
      plan.audit.path = chosen;
      plan.audit.path_residual = plan.audit_residual;
      book_reject(plan.outcome, plan.outcome.detail, plan.audit, &out);
    } else {
      book_admit(request, chosen, plan.outcome, plan.audit_residual, now,
                 plan.audit, &out);
    }
  }
  return true;
}

Status ConcurrentBrokerFront::release_service(FlowId flow)
    NO_THREAD_SAFETY_ANALYSIS /* dynamic shard-lock set under flow_mu_ */ {
  SharedLock guard(big_);
  MutexLock fg(flow_mu_);
  auto rec = bb_.flows_.remove(flow);
  if (!rec.is_ok()) return rec.status();
  QOSBB_REQUIRE(rec.value().kind == FlowKind::kPerFlow,
                "release_service on a microflow; use leave_class_service");
  const PathRecord& path = bb_.paths_.record(rec.value().path);
  auto it = bb_.ingress_flows_.find(path.ingress());
  QOSBB_REQUIRE(it != bb_.ingress_flows_.end() && it->second > 0,
                "ingress flow accounting underflow");
  --it->second;
  const std::vector<const LinkQosState*>& links =
      bb_.paths_.link_states(rec.value().path, bb_.store_.nodes());
  BitsPerSecond residual = 0.0;
  {
    // make_delta reads each link's state_version, which a concurrent
    // try_commit writes under the shard lock: build the delta under it.
    LinkStateStore::ShardLockSet sg(bb_.store_, links);
    AdmissionEngine::make_delta(path, links, rec.value().reservation,
                                rec.value().profile, &t_delta_old);
    bb_.store_.revert(t_delta_old);
    residual = residual_over(links);
  }

  AuditEntry audit;
  audit.kind = AuditKind::kPerFlowRelease;
  audit.admitted = true;
  audit.flow = flow;
  audit.path = rec.value().path;
  audit.ingress = path.ingress();
  audit.egress = path.egress();
  audit.requested_rho = rec.value().profile.rho;
  audit.path_residual = residual;
  bb_.audit_.record(std::move(audit));
  return Status::ok();
}

FrontOutcome ConcurrentBrokerFront::renegotiate_service(FlowId flow,
                                                        Seconds new_delay_req,
                                                        Seconds now)
    NO_THREAD_SAFETY_ANALYSIS /* dynamic shard-lock set under flow_mu_ */ {
  SharedLock guard(big_);
  FrontOutcome out;
  MutexLock fg(flow_mu_);
  auto rec = bb_.flows_.get(flow);
  if (!rec.is_ok()) {
    out.result = rec.status();
    return out;
  }
  QOSBB_REQUIRE(rec.value().kind == FlowKind::kPerFlow,
                "renegotiate_service: not a per-flow reservation");
  const PathRecord& path = bb_.paths_.record(rec.value().path);
  const std::vector<const LinkQosState*>& links =
      bb_.paths_.link_states(rec.value().path, bb_.store_.nodes());
  AdmissionOutcome outcome;
  BitsPerSecond residual = 0.0;
  {
    // Whole-path shard lock set for the full withdraw-test-commit cycle:
    // renegotiation is made atomic against concurrent admits by locking,
    // not optimistically (its transient withdraw must never be observable).
    // The delta is built under it too: make_delta reads state_version.
    LinkStateStore::ShardLockSet sg(bb_.store_, links);
    AdmissionEngine::make_delta(path, links, rec.value().reservation,
                                rec.value().profile, &t_delta_old);
    bb_.store_.revert(t_delta_old);
    bb_.store_.snapshot_path_locked(path, links, &t_snap);
    outcome = AdmissionEngine::test(t_snap, rec.value().profile,
                                    new_delay_req, &t_scratch);
    if (outcome.admitted) {
      AdmissionEngine::make_delta(t_snap, outcome.params, rec.value().profile,
                                  &t_delta);
      bb_.store_.apply(t_delta);
    } else {
      bb_.store_.apply(t_delta_old);
    }
    residual = residual_over(links);
  }
  t_snap.clear();
  out.outcome = outcome;
  if (!outcome.admitted) {
    ++bb_.stats_.rejected[outcome.reason];
    out.result = Status::rejected(
        std::string(reject_reason_name(outcome.reason)) +
        ": renegotiation infeasible; original reservation kept");
    return out;
  }
  FlowRecord updated = rec.value();
  updated.e2e_delay_req = new_delay_req;
  updated.reservation = outcome.params;
  // rec.value() above proves the flow exists; remove cannot fail
  // qosbb-lint: allow(discarded-status)
  (void)bb_.flows_.remove(flow);
  bb_.flows_.add(updated);
  ++bb_.stats_.admitted;
  ++bb_.stats_.requests;

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
  audit.granted_rate = outcome.params.rate;
  audit.granted_delay = outcome.params.delay;
  audit.path_residual = residual;
  audit.detail = "renegotiation";
  bb_.audit_.record(std::move(audit));

  Reservation res;
  res.flow = flow;
  res.path = rec.value().path;
  res.params = outcome.params;
  res.e2e_bound = outcome.e2e_bound;
  out.result = std::move(res);
  return out;
}

}  // namespace qosbb
