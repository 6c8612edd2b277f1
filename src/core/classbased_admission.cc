#include "core/classbased_admission.h"

#include <algorithm>
#include <cmath>

#include "util/status.h"

namespace qosbb {
namespace {
constexpr double kEps = 1e-6;       // b/s
constexpr double kTimeEps = 1e-12;  // s
}  // namespace

ClassBasedManager::ClassBasedManager(const DomainSpec& spec, NodeMib& nodes,
                                     PathMib& paths, FlowMib& flows,
                                     ContingencyMethod method)
    : spec_(spec), nodes_(nodes), paths_(paths), flows_(flows),
      method_(method) {}

ClassId ClassBasedManager::define_class(Seconds e2e_delay, Seconds delay_param,
                                        std::string name) {
  QOSBB_REQUIRE(e2e_delay > 0.0, "define_class: non-positive delay bound");
  QOSBB_REQUIRE(delay_param >= 0.0, "define_class: negative delay parameter");
  const ClassId id = next_class_++;
  if (name.empty()) name = "class-" + std::to_string(id);
  classes_.emplace(id, ServiceClass{id, e2e_delay, delay_param,
                                    std::move(name)});
  return id;
}

const ServiceClass& ClassBasedManager::service_class(ClassId id) const {
  auto it = classes_.find(id);
  QOSBB_REQUIRE(it != classes_.end(), "unknown service class");
  return it->second;
}

ClassBasedManager::PathGeometry ClassBasedManager::geometry(
    PathId path) const {
  const PathRecord& rec = paths_.record(path);
  PathGeometry g;
  g.h = rec.hop_count();
  g.q = rec.rate_based_count();
  g.d_tot = rec.d_tot();
  g.l_path = rec.l_path_max;
  return g;
}

Seconds ClassBasedManager::core_bound(PathId path, const ServiceClass& cls,
                                      BitsPerSecond r) const {
  const PathGeometry g = geometry(path);
  return static_cast<double>(g.q) * g.l_path / r +
         static_cast<double>(g.h - g.q) * cls.delay_param + g.d_tot;
}

Result<BitsPerSecond> ClassBasedManager::min_base_rate(
    const ServiceClass& cls, PathId path, const TrafficProfile& aggregate,
    std::optional<Seconds> d_core_old) const {
  const PathGeometry g = geometry(path);
  const Seconds t_on = aggregate.t_on();
  double numerator = t_on * aggregate.peak + aggregate.l_max;
  double denominator;
  if (d_core_old.has_value()) {
    // d_edge^α'(r') <= D − d_core_old (the max in eq. 19 resolves to the
    // lingering bound computed with the smaller, pre-change rate).
    denominator = cls.e2e_delay - *d_core_old + t_on;
  } else {
    // Steady state: d_core uses r' itself, so fold q·L^P/r' into the
    // numerator.
    numerator += static_cast<double>(g.q) * g.l_path;
    denominator = cls.e2e_delay - g.d_tot -
                  static_cast<double>(g.h - g.q) * cls.delay_param + t_on;
  }
  if (denominator <= 0.0) {
    return Status::rejected("class delay bound below fixed path latency");
  }
  return std::max(numerator / denominator, aggregate.rho);
}

Seconds ClassBasedManager::edge_bound_in_effect(
    const MacroflowState& mf) const {
  Seconds current = 0.0;
  if (mf.microflows > 0 && mf.base_rate > 0.0) {
    const BitsPerSecond r = std::min(mf.base_rate, mf.aggregate.peak);
    current = mf.aggregate.edge_delay_bound(std::max(r, mf.aggregate.rho));
  }
  return std::max(current, grants_.max_event_edge_bound(mf.id));
}

Seconds ClassBasedManager::e2e_bound_in_effect(FlowId macroflow) const {
  const MacroflowState* mf = this->macroflow(macroflow);
  QOSBB_REQUIRE(mf != nullptr, "e2e_bound_in_effect: unknown macroflow");
  return edge_bound_in_effect(*mf) + mf->core_bound_in_effect;
}

Bits ClassBasedManager::buffer_amount(const LinkQosState& link,
                                      const ServiceClass& cls,
                                      BitsPerSecond dr, bool with_offset,
                                      Bits l_path) const {
  const Seconds slope = link.delay_based()
                            ? cls.delay_param + link.error_term()
                            : link.error_term();
  const Bits offset =
      with_offset ? (link.delay_based() ? l_path : 2.0 * l_path) : 0.0;
  return offset + slope * dr;
}

Status ClassBasedManager::reserve_on_path(PathId path,
                                          const ServiceClass& cls,
                                          BitsPerSecond dr,
                                          bool with_offset) {
  if (dr <= kEps && !with_offset) return Status::ok();
  const PathRecord& rec = paths_.record(path);
  const Bits l_path = rec.l_path_max;
  // Pre-resolved link pointers from the path MIB cache; the manager owns
  // nodes_ mutably, so shedding const is sound.
  const auto& links = paths_.link_states(path, nodes_);
  auto undo = [&](std::size_t upto) {
    for (std::size_t i = 0; i < upto; ++i) {
      LinkQosState& link = const_cast<LinkQosState&>(*links[i]);
      if (dr > kEps) link.release(dr);
      const Bits buf = buffer_amount(link, cls, dr, with_offset, l_path);
      if (buf > 0.0) link.release_buffer(buf);
    }
  };
  for (std::size_t done = 0; done < links.size(); ++done) {
    LinkQosState& link = const_cast<LinkQosState&>(*links[done]);
    if (dr > kEps) {
      Status s = link.reserve(dr);
      if (!s.is_ok()) {
        undo(done);
        return s;
      }
    }
    const Bits buf = buffer_amount(link, cls, dr, with_offset, l_path);
    if (buf > 0.0) {
      Status s = link.reserve_buffer(buf);
      if (!s.is_ok()) {
        if (dr > kEps) link.release(dr);
        undo(done);
        return s;
      }
    }
  }
  return Status::ok();
}

void ClassBasedManager::release_on_path(PathId path, const ServiceClass& cls,
                                        BitsPerSecond dr, bool with_offset) {
  if (dr <= kEps && !with_offset) return;
  const PathRecord& rec = paths_.record(path);
  const Bits l_path = rec.l_path_max;
  for (const LinkQosState* cached : paths_.link_states(path, nodes_)) {
    LinkQosState& link = const_cast<LinkQosState&>(*cached);
    if (dr > kEps) link.release(dr);
    const Bits buf = buffer_amount(link, cls, dr, with_offset, l_path);
    if (buf > 0.0) link.release_buffer(buf);
  }
}

Status ClassBasedManager::swap_edf_entries(PathId path,
                                           const ServiceClass& cls,
                                           BitsPerSecond old_rate,
                                           BitsPerSecond new_rate,
                                           Bits l_path) {
  const auto& edf_links = paths_.edf_link_states(path, nodes_);
  if (edf_links.empty()) return Status::ok();
  // Remove the old entries, test the new rate, then either commit or
  // restore.
  for (const LinkQosState* cached : edf_links) {
    LinkQosState& link = const_cast<LinkQosState&>(*cached);
    if (old_rate > kEps) link.remove_edf_entry(old_rate, cls.delay_param,
                                               l_path);
  }
  bool ok = true;
  if (new_rate > kEps) {
    for (const LinkQosState* link : edf_links) {
      if (!link->edf_schedulable_with(new_rate, cls.delay_param, l_path)) {
        ok = false;
        break;
      }
    }
  }
  const BitsPerSecond commit_rate = ok ? new_rate : old_rate;
  for (const LinkQosState* cached : edf_links) {
    LinkQosState& link = const_cast<LinkQosState&>(*cached);
    if (commit_rate > kEps) {
      link.add_edf_entry(commit_rate, cls.delay_param, l_path);
    }
  }
  if (!ok) {
    return Status::rejected("VT-EDF schedulability violated for macroflow");
  }
  return Status::ok();
}

Seconds ClassBasedManager::contingency_tau(
    Seconds edge_bound_old, BitsPerSecond in_service_old,
    BitsPerSecond delta_r, std::optional<Bits> edge_backlog) const {
  QOSBB_REQUIRE(delta_r > 0.0, "contingency_tau: non-positive delta_r");
  switch (method_) {
    case ContingencyMethod::kBounding:
      // eq. (17): τ̂ = d_edge_old · (r^α + Δr^α(t*)) / Δr^ν, with the backlog
      // bound (16). For a brand-new macroflow d_edge_old = 0 ⇒ τ̂ = 0.
      return edge_bound_old * in_service_old / delta_r;
    case ContingencyMethod::kFeedback:
      // τ = Q(t*)/Δr^ν from the conditioner's reported backlog (Thms 2/3).
      return edge_backlog.value_or(0.0) / delta_r;
  }
  return 0.0;
}

const MacroflowState* ClassBasedManager::find_macroflow(ClassId cls,
                                                        PathId path) const {
  auto it = by_class_path_.find({cls, path});
  if (it == by_class_path_.end()) return nullptr;
  return macroflow(it->second);
}

const MacroflowState* ClassBasedManager::macroflow(FlowId id) const {
  auto it = macroflows_.find(id);
  return it == macroflows_.end() ? nullptr : &it->second;
}

BitsPerSecond ClassBasedManager::allocated(FlowId macroflow_id) const {
  const MacroflowState* mf = macroflow(macroflow_id);
  QOSBB_REQUIRE(mf != nullptr, "allocated: unknown macroflow");
  return mf->base_rate + grants_.total(macroflow_id);
}

JoinResult ClassBasedManager::microflow_join(
    ClassId cls_id, PathId path, const TrafficProfile& profile, Seconds now,
    std::optional<Bits> edge_backlog) {
  JoinResult out;
  const ServiceClass& cls = service_class(cls_id);

  MacroflowState* mf = nullptr;
  if (auto it = by_class_path_.find({cls_id, path});
      it != by_class_path_.end()) {
    mf = &macroflows_.at(it->second);
  }
  const bool is_new = (mf == nullptr || mf->microflows == 0);
  const TrafficProfile aggregate =
      (mf != nullptr && mf->microflows > 0) ? mf->aggregate + profile
                                            : profile;
  const BitsPerSecond r_old = mf != nullptr ? mf->base_rate : 0.0;

  // Minimal new base rate from eq. (19).
  std::optional<Seconds> d_core_old;
  if (!is_new) d_core_old = mf->core_bound_in_effect;
  auto r_min = min_base_rate(cls, path, aggregate, d_core_old);
  if (!r_min.is_ok()) {
    out.reason = RejectReason::kNoFeasibleRate;
    out.detail = r_min.status().message();
    return out;
  }
  // Minimal new base rate: the eq.-19 minimum, floored by the aggregate
  // sustained rate ρ^α' (shaper stability) and never below the current base
  // (a join cannot shrink the reservation). The increment δ normally lands
  // in [ρ^ν, P^ν] (Section 4.3); when an earlier join left the base above
  // the ρ-floor, δ may be smaller — the floor, not the increment, is what
  // stability requires.
  BitsPerSecond r_new = std::max({r_min.value(), aggregate.rho, r_old});
  const BitsPerSecond delta = r_new - r_old;
  if (delta > profile.peak + kEps || r_new > aggregate.peak + kEps) {
    out.reason = RejectReason::kNoFeasibleRate;
    out.detail = "required rate increment exceeds microflow peak";
    return out;
  }

  // Peak-rate contingency test: P^ν extra bandwidth along the whole path
  // for the contingency period (reserve now, trim at expiry). The first
  // join also reserves the macroflow's constant buffer offset.
  const bool need_offset = (mf == nullptr || !mf->buffer_offset_held);
  Status reserved = reserve_on_path(path, cls, profile.peak, need_offset);
  if (!reserved.is_ok()) {
    out.reason = reserved.message().find("buffer") != std::string::npos
                     ? RejectReason::kInsufficientBuffer
                     : RejectReason::kInsufficientBandwidth;
    out.detail = reserved.message();
    return out;
  }
  const BitsPerSecond allocated_old =
      r_old + (mf != nullptr ? grants_.total(mf->id) : 0.0);
  Status edf = swap_edf_entries(path, cls, allocated_old,
                                allocated_old + profile.peak,
                                paths_.record(path).l_path_max);
  if (!edf.is_ok()) {
    release_on_path(path, cls, profile.peak, need_offset);
    out.reason = RejectReason::kEdfUnschedulable;
    out.detail = edf.message();
    return out;
  }

  // --- Committed. Bookkeeping phase. ---
  if (mf == nullptr) {
    MacroflowState fresh;
    fresh.id = flows_.next_id();
    fresh.service_class = cls_id;
    fresh.path = path;
    auto [it, ok] = macroflows_.emplace(fresh.id, fresh);
    QOSBB_REQUIRE(ok, "macroflow id collision");
    by_class_path_[{cls_id, path}] = fresh.id;
    mf = &it->second;
    out.new_macroflow = true;
  }

  // Contingency grant Δr^ν = P^ν − δ (Theorem 2 with r^ν = δ).
  const BitsPerSecond delta_r = profile.peak - delta;
  // Pre-event quantities for eq. (16)/(17).
  const Seconds edge_bound_old = edge_bound_in_effect(*mf);
  const BitsPerSecond in_service_old = r_old + grants_.total(mf->id);
  // Core bound in effect after the event (eq. 18): min(r_old, r_new) = r_old
  // for a join; steady-state bound for a fresh macroflow.
  const Seconds new_core_bound =
      core_bound(path, cls, is_new ? r_new : std::min(r_old, r_new));

  mf->aggregate = aggregate;
  mf->base_rate = r_new;
  mf->microflows += 1;
  mf->buffer_offset_held = true;
  mf->core_bound_in_effect =
      grants_.has_grants(mf->id)
          ? std::max(mf->core_bound_in_effect, new_core_bound)
          : new_core_bound;

  if (delta_r > kEps) {
    const Seconds tau =
        contingency_tau(edge_bound_old, in_service_old, delta_r,
                        edge_backlog);
    if (tau > kTimeEps) {
      const Seconds event_bound =
          std::max(edge_bound_old,
                   aggregate.edge_delay_bound(std::min(r_new, aggregate.peak)));
      out.grant = grants_.add(mf->id, delta_r, now, tau, event_bound);
      out.contingency = delta_r;
      out.contingency_expires_at = now + tau;
    } else {
      // Instant drain: trim the allocation back to r^α' immediately.
      release_on_path(path, cls, delta_r, false);
      const BitsPerSecond alloc = mf->base_rate + grants_.total(mf->id);
      Status s = swap_edf_entries(path, cls, alloc + delta_r, alloc,
                                  paths_.record(path).l_path_max);
      QOSBB_REQUIRE(s.is_ok(), "shrinking an EDF entry cannot fail");
    }
  }

  // Record the microflow.
  FlowRecord rec;
  rec.id = flows_.next_id();
  rec.kind = FlowKind::kMicroflow;
  rec.profile = profile;
  rec.e2e_delay_req = cls.e2e_delay;
  rec.path = path;
  rec.reservation = RateDelayPair{delta, cls.delay_param};
  rec.service_class = cls_id;
  rec.admitted_at = now;
  flows_.add(rec);

  out.admitted = true;
  out.microflow = rec.id;
  out.macroflow = mf->id;
  out.base_rate = r_new;
  out.e2e_bound = edge_bound_in_effect(*mf) + mf->core_bound_in_effect;
  return out;
}

Result<LeaveResult> ClassBasedManager::microflow_leave(
    FlowId microflow, Seconds now, std::optional<Bits> edge_backlog) {
  auto rec = flows_.remove(microflow);
  if (!rec.is_ok()) return rec.status();
  QOSBB_REQUIRE(rec.value().kind == FlowKind::kMicroflow,
                "microflow_leave on a per-flow reservation");
  auto it = by_class_path_.find(
      {rec.value().service_class, rec.value().path});
  QOSBB_REQUIRE(it != by_class_path_.end(),
                "microflow_leave: macroflow missing");
  MacroflowState& mf = macroflows_.at(it->second);
  const ServiceClass& cls = service_class(mf.service_class);
  QOSBB_REQUIRE(mf.microflows > 0, "microflow_leave: empty macroflow");

  LeaveResult out;
  out.macroflow = mf.id;
  const BitsPerSecond r_old = mf.base_rate;
  const Seconds edge_bound_old = edge_bound_in_effect(mf);
  const BitsPerSecond in_service_old = r_old + grants_.total(mf.id);

  BitsPerSecond r_new = 0.0;
  TrafficProfile aggregate = mf.aggregate;
  if (mf.microflows > 1) {
    aggregate = mf.aggregate - rec.value().profile;
    auto r_min = min_base_rate(cls, mf.path, aggregate,
                               /*d_core_old=*/std::nullopt);
    QOSBB_REQUIRE(r_min.is_ok(),
                  "leave made the macroflow infeasible — impossible");
    // Never raise the rate on a leave.
    r_new = std::min(std::max(r_min.value(), aggregate.rho), r_old);
  }
  const BitsPerSecond delta_r = r_old - r_new;  // Δr^ν (Theorem 3)

  mf.microflows -= 1;
  if (mf.microflows > 0) mf.aggregate = aggregate;
  mf.base_rate = r_new;
  // Core bound across the rate drop (eq. 18): governed by the new, smaller
  // rate.
  if (mf.microflows > 0) {
    mf.core_bound_in_effect =
        std::max(mf.core_bound_in_effect, core_bound(mf.path, cls, r_new));
  }
  out.base_rate = r_new;

  if (delta_r > kEps) {
    const Seconds tau = contingency_tau(edge_bound_old, in_service_old,
                                        delta_r, edge_backlog);
    if (tau > kTimeEps) {
      Seconds event_bound = edge_bound_old;
      if (mf.microflows > 0) {
        event_bound = std::max(
            event_bound,
            aggregate.edge_delay_bound(std::min(r_new, aggregate.peak)));
      }
      out.grant = grants_.add(mf.id, delta_r, now, tau, event_bound);
      out.contingency = delta_r;
      out.contingency_expires_at = now + tau;
    } else {
      release_on_path(mf.path, cls, delta_r, false);
      const BitsPerSecond alloc = mf.base_rate + grants_.total(mf.id);
      Status s = swap_edf_entries(mf.path, cls, alloc + delta_r, alloc,
                                  paths_.record(mf.path).l_path_max);
      QOSBB_REQUIRE(s.is_ok(), "shrinking an EDF entry cannot fail");
    }
  }

  maybe_settle(mf);
  out.macroflow_removed = !macroflows_.contains(out.macroflow);
  return out;
}

void ClassBasedManager::expire_grant(GrantId id, Seconds now) {
  auto g = grants_.remove(id);
  if (!g.is_ok()) return;  // drained early by feedback — nothing to do
  auto it = macroflows_.find(g.value().macroflow);
  QOSBB_REQUIRE(it != macroflows_.end(), "expire_grant: unknown macroflow");
  MacroflowState& mf = it->second;
  const ServiceClass& cls = service_class(mf.service_class);
  release_on_path(mf.path, cls, g.value().delta_r, false);
  const BitsPerSecond alloc = mf.base_rate + grants_.total(mf.id);
  Status s = swap_edf_entries(mf.path, cls, alloc + g.value().delta_r, alloc,
                              paths_.record(mf.path).l_path_max);
  QOSBB_REQUIRE(s.is_ok(), "shrinking an EDF entry cannot fail");
  (void)now;
  maybe_settle(mf);
}

void ClassBasedManager::edge_buffer_empty(FlowId macroflow_id, Seconds now) {
  if (method_ != ContingencyMethod::kFeedback) return;
  auto it = macroflows_.find(macroflow_id);
  if (it == macroflows_.end()) return;
  MacroflowState& mf = it->second;
  const ServiceClass& cls = service_class(mf.service_class);
  auto removed = grants_.remove_all(macroflow_id);
  BitsPerSecond freed = 0.0;
  for (const auto& g : removed) freed += g.delta_r;
  if (freed > kEps) {
    release_on_path(mf.path, cls, freed, false);
    const BitsPerSecond alloc = mf.base_rate;
    Status s = swap_edf_entries(mf.path, cls, alloc + freed, alloc,
                                paths_.record(mf.path).l_path_max);
    QOSBB_REQUIRE(s.is_ok(), "shrinking an EDF entry cannot fail");
  }
  (void)now;
  maybe_settle(mf);
}

void ClassBasedManager::restore_class(const ServiceClass& cls) {
  QOSBB_REQUIRE(!classes_.contains(cls.id),
                "restore_class: id already in use");
  classes_.emplace(cls.id, cls);
  next_class_ = std::max(next_class_, cls.id + 1);
}

void ClassBasedManager::restore_macroflow(
    const MacroflowState& state, const std::vector<FlowRecord>& microflows) {
  QOSBB_REQUIRE(!macroflows_.contains(state.id),
                "restore_macroflow: id already in use");
  QOSBB_REQUIRE(state.microflows == static_cast<int>(microflows.size()),
                "restore_macroflow: member count mismatch");
  QOSBB_REQUIRE(state.base_rate > 0.0 && state.microflows > 0,
                "restore_macroflow: empty macroflow");
  QOSBB_REQUIRE(classes_.contains(state.service_class),
                "restore_macroflow: unknown class");
  MacroflowState restored = state;
  restored.buffer_offset_held = true;
  macroflows_.emplace(restored.id, restored);
  by_class_path_[{restored.service_class, restored.path}] = restored.id;
  for (const FlowRecord& rec : microflows) {
    QOSBB_REQUIRE(rec.kind == FlowKind::kMicroflow &&
                      rec.service_class == restored.service_class &&
                      rec.path == restored.path,
                  "restore_macroflow: inconsistent microflow record");
    flows_.add(rec);
  }
}

void ClassBasedManager::rebook_macroflows() {
  QOSBB_REQUIRE(grants_.active_count() == 0,
                "rebook_macroflows: live contingency grants");
  std::vector<const MacroflowState*> order;
  order.reserve(macroflows_.size());
  for (const auto& [id, mf] : macroflows_) order.push_back(&mf);
  std::sort(order.begin(), order.end(),
            [](const MacroflowState* a, const MacroflowState* b) {
              return a->id < b->id;
            });
  for (const MacroflowState* mf : order) {
    const ServiceClass& cls = service_class(mf->service_class);
    Status s = reserve_on_path(mf->path, cls, mf->base_rate,
                               /*with_offset=*/true);
    QOSBB_REQUIRE(s.is_ok(), "rebook_macroflows: booking failed: " +
                                 s.message());
    Status edf = swap_edf_entries(mf->path, cls, 0.0, mf->base_rate,
                                  paths_.record(mf->path).l_path_max);
    QOSBB_REQUIRE(edf.is_ok(), "rebook_macroflows: EDF booking failed");
  }
}

void ClassBasedManager::maybe_settle(MacroflowState& mf) {
  if (grants_.has_grants(mf.id)) return;
  if (mf.microflows == 0) {
    // Base rate is already 0 (set by the last leave); the EDF entry was
    // removed when the final allocation hit zero. Return the constant
    // buffer offset and drop the record.
    QOSBB_REQUIRE(mf.base_rate <= kEps, "settle: empty macroflow holds rate");
    if (mf.buffer_offset_held) {
      release_on_path(mf.path, service_class(mf.service_class), 0.0, true);
    }
    by_class_path_.erase({mf.service_class, mf.path});
    macroflows_.erase(mf.id);
    return;
  }
  // All transients have drained: steady-state bounds apply again.
  const ServiceClass& cls = service_class(mf.service_class);
  mf.core_bound_in_effect = core_bound(mf.path, cls, mf.base_rate);
}

}  // namespace qosbb
