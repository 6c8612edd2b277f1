#include "core/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <sstream>
#include <unordered_map>

#include "util/status.h"
#include "vtrs/delay_bounds.h"

namespace qosbb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRateEps = 1e-6;  // same comparison slack as the fast path

/// One knot of a link's EDF reservation set, recomputed from the raw
/// bucket multiset (the oracle's stand-in for the KnotArray columns; same ascending
/// accumulation, independent code).
struct NaiveKnot {
  double d = 0.0;
  double rate_sum = 0.0;
  double fixed_sum = 0.0;
  double s = 0.0;
};

/// Apply the optional exclusion to one bucket; returns false when the
/// bucket vanishes (its only entry was the excluded reservation).
bool bucket_minus_exclusion(Seconds d, const LinkQosState::EdfBucket& b,
                            const OracleExclusion& ex, double* rate,
                            double* l, std::size_t* count) {
  *rate = b.sum_rate;
  *l = b.sum_l;
  *count = b.count;
  if (ex.active && d == ex.params.delay) {
    *rate -= ex.params.rate;
    *l -= ex.l_max;
    --*count;
  }
  return *count != 0;
}

/// Fresh ascending walk over the raw edf_buckets() multiset — the
/// arithmetic of the knot-cache rebuild, re-derived independently.
void naive_link_knots(const LinkQosState& link, const OracleExclusion& ex,
                      std::vector<NaiveKnot>& out) {
  out.clear();
  double rate_sum = 0.0;
  double fixed_sum = 0.0;
  for (const auto& [d, b] : link.edf_buckets()) {
    double br, bl;
    std::size_t count;
    if (!bucket_minus_exclusion(d, b, ex, &br, &bl, &count)) continue;
    rate_sum += br;
    fixed_sum += bl - br * d;
    out.push_back(NaiveKnot{d, rate_sum, fixed_sum,
                            link.capacity() * d -
                                (rate_sum * d + fixed_sum)});
  }
}

/// Demand prefix (Σ r_j, Σ (L_j − r_j·d_j)) over buckets with d_j <= t.
void naive_prefix_at(const LinkQosState& link, const OracleExclusion& ex,
                     double t, double* rate_sum, double* fixed_sum) {
  *rate_sum = 0.0;
  *fixed_sum = 0.0;
  for (const auto& [d, b] : link.edf_buckets()) {
    if (d > t) break;
    double br, bl;
    std::size_t count;
    if (!bucket_minus_exclusion(d, b, ex, &br, &bl, &count)) continue;
    *rate_sum += br;
    *fixed_sum += bl - br * d;
  }
}

/// Oracle twin of the fast path's own-deadline helper: minimal d in
/// [lo, hi) with C·d − demand(d) >= l_new, demand from a raw bucket walk.
double naive_min_feasible_d(const LinkQosState& link,
                            const OracleExclusion& ex, double lo, double hi,
                            Bits l_new) {
  double rate_sum, fixed_sum;
  naive_prefix_at(link, ex, lo, &rate_sum, &fixed_sum);
  const double capacity = link.capacity();
  const double slope = capacity - rate_sum;
  const double need = l_new + fixed_sum;
  if (slope <= kRateEps) {
    return (capacity * lo - (rate_sum * lo + fixed_sum) >= l_new - 1e-9)
               ? lo
               : kInf;
  }
  const double d_min = std::max(lo, need / slope);
  return d_min < hi ? d_min : kInf;
}

/// Full-walk eq.-5 schedulability of a hypothetical ⟨r, d, L⟩: own-deadline
/// clause, every existing knot at or beyond d, and the slope condition —
/// all from raw buckets.
bool naive_edf_schedulable_with(const LinkQosState& link,
                                const OracleExclusion& ex, BitsPerSecond r,
                                Seconds d, Bits l_max) {
  double rate_sum, fixed_sum;
  naive_prefix_at(link, ex, d, &rate_sum, &fixed_sum);
  const double capacity = link.capacity();
  if (capacity * d - (rate_sum * d + fixed_sum) < l_max - 1e-6) return false;
  std::vector<NaiveKnot> knots;
  naive_link_knots(link, ex, knots);
  for (const NaiveKnot& k : knots) {
    if (k.d < d) continue;
    if (k.s < r * (k.d - d) + l_max - 1e-6) return false;
  }
  const double total_rate = knots.empty() ? 0.0 : knots.back().rate_sum;
  return total_rate + r <= capacity + 1e-6;
}

/// Naive C_res^P: rescan every hop through string-keyed MIB lookups. When
/// an exclusion is active the excluded flow's rate is handed back on every
/// hop (renegotiation evaluates the path without its own footprint).
BitsPerSecond naive_path_residual(const PathRecord& rec, const NodeMib& nodes,
                                  const OracleExclusion& ex) {
  BitsPerSecond res = std::numeric_limits<BitsPerSecond>::infinity();
  for (const auto& ln : rec.link_names) {
    BitsPerSecond r = nodes.link(ln).residual();
    if (ex.active) r += ex.params.rate;
    res = std::min(res, r);
  }
  return res;
}

AdmissionOutcome oracle_reject(RejectReason reason, std::string detail,
                               int intervals = 0) {
  AdmissionOutcome out;
  out.admitted = false;
  out.reason = reason;
  out.detail = std::move(detail);
  out.intervals_scanned = intervals;
  return out;
}

/// Per-hop buffer feasibility of a candidate ⟨r, d⟩, from the path abstract
/// and string-keyed link lookups.
bool naive_buffers_feasible(const PathRecord& rec, const NodeMib& nodes,
                            const OracleExclusion& ex, BitsPerSecond r,
                            Seconds d, Bits l_max) {
  for (const HopAbstract& hop : rec.abstract.hops) {
    const LinkQosState& link = nodes.link(hop.link_name);
    Bits residual = link.buffer_residual();
    if (ex.active) {
      residual += per_hop_buffer_bound(hop.kind, ex.params.rate,
                                       ex.params.delay, ex.l_max,
                                       hop.error_term);
    }
    const Bits need =
        per_hop_buffer_bound(hop.kind, r, d, l_max, hop.error_term);
    if (residual < need - 1e-6) return false;
  }
  return true;
}

AdmissionOutcome oracle_admit_rate_only(const PathRecord& rec,
                                        const NodeMib& nodes,
                                        const TrafficProfile& profile,
                                        Seconds d_req,
                                        const OracleExclusion& ex) {
  const BitsPerSecond c_res = naive_path_residual(rec, nodes, ex);
  const BitsPerSecond r_min =
      min_rate_rate_only(rec.abstract, profile, d_req);
  const BitsPerSecond r_low = std::max(profile.rho, r_min);
  const BitsPerSecond r_up = std::min(profile.peak, c_res);
  if (r_low > r_up + kRateEps) {
    if (r_min > profile.peak) {
      return oracle_reject(RejectReason::kNoFeasibleRate,
                           "oracle: r_min exceeds peak");
    }
    return oracle_reject(RejectReason::kInsufficientBandwidth,
                         "oracle: residual too small");
  }
  if (!naive_buffers_feasible(rec, nodes, ex, r_low, 0.0, profile.l_max)) {
    return oracle_reject(RejectReason::kInsufficientBuffer,
                         "oracle: buffer bound exceeds a hop");
  }
  AdmissionOutcome out;
  out.admitted = true;
  out.params = RateDelayPair{r_low, 0.0};
  out.e2e_bound =
      e2e_delay_bound(rec.abstract, profile, r_low, 0.0, profile.l_max);
  return out;
}

AdmissionOutcome oracle_admit_mixed(const PathRecord& rec,
                                    const NodeMib& nodes,
                                    const TrafficProfile& profile,
                                    Seconds d_req,
                                    const OracleExclusion& ex) {
  const int h = rec.hop_count();
  const int q = rec.rate_based_count();
  const int hq = h - q;
  QOSBB_REQUIRE(hq > 0, "oracle_admit_mixed: no delay-based hops");

  const Seconds d_tot = rec.d_tot();
  const Seconds t_on = profile.t_on();
  const Bits l = profile.l_max;
  const double t_nu = (d_req - d_tot + t_on) / static_cast<double>(hq);
  const double xi =
      (t_on * profile.peak + static_cast<double>(q + 1) * l) /
      static_cast<double>(hq);
  if (t_nu <= 0.0) {
    return oracle_reject(RejectReason::kNoFeasibleRate,
                         "oracle: delay requirement below path latency");
  }
  const BitsPerSecond c_res = naive_path_residual(rec, nodes, ex);
  const BitsPerSecond r_cap = std::min(profile.peak, c_res);
  const BitsPerSecond r_floor0 = std::max(profile.rho, xi / t_nu);
  if (r_floor0 > r_cap + kRateEps) {
    if (xi / t_nu > profile.peak) {
      return oracle_reject(RejectReason::kNoFeasibleRate,
                           "oracle: even r = P misses the requirement");
    }
    return oracle_reject(RejectReason::kInsufficientBandwidth,
                         "oracle: residual too small");
  }

  // Delay-based links of the path, resolved by name (path order).
  std::vector<const LinkQosState*> edf_links;
  for (const HopAbstract& hop : rec.abstract.hops) {
    if (hop.kind == SchedulerKind::kDelayBased) {
      edf_links.push_back(&nodes.link(hop.link_name));
    }
  }
  QOSBB_REQUIRE(static_cast<int>(edf_links.size()) == hq,
                "oracle_admit_mixed: hop/link mismatch");

  // The pre-PR-1 merge structure: a std::map taking min(S) on duplicate
  // knots, fed from fresh per-link bucket walks.
  std::map<double, double> merged;
  std::vector<NaiveKnot> scratch;
  for (const LinkQosState* link : edf_links) {
    naive_link_knots(*link, ex, scratch);
    for (const NaiveKnot& k : scratch) {
      auto [it, inserted] = merged.emplace(k.d, k.s);
      if (!inserted) it->second = std::min(it->second, k.s);
    }
  }
  std::vector<double> knots;
  std::vector<double> s_vals;
  knots.reserve(merged.size());
  s_vals.reserve(merged.size());
  for (const auto& [d, s] : merged) {
    knots.push_back(d);
    s_vals.push_back(s);
  }
  const int m_count = static_cast<int>(knots.size());

  const int k_tnu = static_cast<int>(
      std::lower_bound(knots.begin(), knots.end(), t_nu) - knots.begin());

  // Static upper bound from knots at or beyond t^ν (eq. 11, k >= m*).
  double ub_knots = kInf;
  for (int k = k_tnu; k < m_count; ++k) {
    if (knots[static_cast<std::size_t>(k)] > t_nu) {
      const double num = s_vals[static_cast<std::size_t>(k)] - xi - l;
      if (num < 0.0) {
        return oracle_reject(RejectReason::kEdfUnschedulable,
                             "oracle: residual beyond t^nu too small");
      }
      ub_knots = std::min(
          ub_knots, num / (knots[static_cast<std::size_t>(k)] - t_nu));
    } else {
      if (s_vals[static_cast<std::size_t>(k)] < xi + l - 1e-9) {
        return oracle_reject(RejectReason::kEdfUnschedulable,
                             "oracle: residual at t^nu too small");
      }
    }
  }

  auto knot_at = [&](int idx) -> double {
    if (idx <= 0) return 0.0;
    if (idx > m_count) return kInf;
    return knots[static_cast<std::size_t>(idx - 1)];
  };
  auto s_of = [&](int idx) -> double {
    return s_vals[static_cast<std::size_t>(idx - 1)];
  };
  const int m_star = k_tnu + 1;

  // FULL right-to-left interval scan — no Theorem-1 stopping rules. The
  // oracle keeps the minimal feasible rate over EVERY interval, so a fast
  // path that stopped early yet returned a non-minimal rate diverges here.
  double lb_knots = 0.0;
  AdmissionOutcome best;
  best.admitted = false;
  int scanned = 0;
  RejectReason last_reason = RejectReason::kEdfUnschedulable;

  for (int m = m_star; m >= 1; --m) {
    if (m <= m_count && knot_at(m) < t_nu) {
      const double denom = t_nu - knot_at(m);
      lb_knots = std::max(lb_knots, (xi + l - s_of(m)) / denom);
    }
    ++scanned;
    const double d_left = knot_at(m - 1);
    const double d_right = std::min(knot_at(m), t_nu);
    if (d_left >= t_nu) continue;

    const double fea_lo = std::max({profile.rho, xi / t_nu,
                                    xi / (t_nu - d_left)});
    const double fea_hi =
        d_right < t_nu ? std::min(r_cap, xi / (t_nu - d_right)) : r_cap;

    double d_own = d_left;
    bool own_feasible = true;
    for (const LinkQosState* link : edf_links) {
      const double dm =
          naive_min_feasible_d(*link, ex, d_left, knot_at(m), l);
      if (std::isinf(dm)) {
        own_feasible = false;
        break;
      }
      d_own = std::max(d_own, dm);
    }
    if (!own_feasible || d_own >= t_nu) {
      last_reason = RejectReason::kEdfUnschedulable;
      continue;
    }
    const double own_lo = d_own > d_left ? xi / (t_nu - d_own) : 0.0;
    const double lo = std::max({fea_lo, lb_knots, own_lo});
    const double hi = std::min(fea_hi, ub_knots);
    if (lo <= hi + kRateEps) {
      const double r = lo;
      const double d = std::max(d_own, t_nu - xi / r);
      bool ok = r <= c_res + kRateEps;
      for (const LinkQosState* link : edf_links) {
        if (!ok) break;
        ok = naive_edf_schedulable_with(*link, ex, r, d, l);
      }
      if (ok && (!best.admitted || r < best.params.rate)) {
        best.admitted = true;
        best.params = RateDelayPair{r, d};
      }
    } else {
      last_reason = hi <= profile.rho + kRateEps && hi >= r_cap - kRateEps
                        ? RejectReason::kInsufficientBandwidth
                        : RejectReason::kEdfUnschedulable;
    }
  }

  if (!best.admitted) {
    return oracle_reject(last_reason, "oracle: no feasible rate-delay pair",
                         scanned);
  }
  if (!naive_buffers_feasible(rec, nodes, ex, best.params.rate,
                              best.params.delay, profile.l_max)) {
    return oracle_reject(RejectReason::kInsufficientBuffer,
                         "oracle: buffer bound exceeds a hop", scanned);
  }
  best.reason = RejectReason::kNone;
  best.intervals_scanned = scanned;
  best.e2e_bound = e2e_delay_bound(rec.abstract, profile, best.params.rate,
                                   best.params.delay, profile.l_max);
  return best;
}

/// Reject-reason equivalence class; see oracle_outcomes_equivalent.
RejectReason reason_class(RejectReason r) {
  if (r == RejectReason::kEdfUnschedulable) {
    return RejectReason::kInsufficientBandwidth;
  }
  return r;
}

}  // namespace

AdmissionOutcome oracle_admit_per_flow(const PathMib& paths,
                                       const NodeMib& nodes, PathId path,
                                       const TrafficProfile& profile,
                                       Seconds d_req,
                                       const OracleExclusion& exclude) {
  const PathRecord& rec = paths.record(path);
  if (rec.abstract.delay_based_count() == 0) {
    return oracle_admit_rate_only(rec, nodes, profile, d_req, exclude);
  }
  return oracle_admit_mixed(rec, nodes, profile, d_req, exclude);
}

OracleDecision oracle_decide_request(const BandwidthBroker& bb,
                                     const FlowServiceRequest& request) {
  OracleDecision out;
  out.path = bb.paths().find(request.ingress, request.egress);
  if (out.path == kInvalidPathId) {
    out.outcome = oracle_reject(RejectReason::kNoPath,
                                "oracle: no provisioned path");
    return out;
  }
  out.outcome = oracle_admit_per_flow(bb.paths(), bb.nodes(), out.path,
                                      request.profile, request.e2e_delay_req);
  return out;
}

bool oracle_outcomes_equivalent(const AdmissionOutcome& fast,
                                const AdmissionOutcome& oracle,
                                std::string* why) {
  std::ostringstream os;
  if (fast.admitted != oracle.admitted) {
    os << "admitted mismatch: fast=" << fast.admitted
       << " (reason " << reject_reason_name(fast.reason) << ") oracle="
       << oracle.admitted << " (reason "
       << reject_reason_name(oracle.reason) << ")";
    if (why != nullptr) *why = os.str();
    return false;
  }
  if (fast.admitted) {
    if (std::abs(fast.params.rate - oracle.params.rate) > kOracleRateTol ||
        std::abs(fast.params.delay - oracle.params.delay) > kOracleRateTol ||
        std::abs(fast.e2e_bound - oracle.e2e_bound) > kOracleRateTol) {
      os.precision(17);
      os << "params mismatch: fast=(r " << fast.params.rate << ", d "
         << fast.params.delay << ", bound " << fast.e2e_bound
         << ") oracle=(r " << oracle.params.rate << ", d "
         << oracle.params.delay << ", bound " << oracle.e2e_bound << ")";
      if (why != nullptr) *why = os.str();
      return false;
    }
    return true;
  }
  if (reason_class(fast.reason) != reason_class(oracle.reason)) {
    os << "reject reason mismatch: fast="
       << reject_reason_name(fast.reason)
       << " oracle=" << reject_reason_name(oracle.reason);
    if (why != nullptr) *why = os.str();
    return false;
  }
  return true;
}

std::string OracleStateReport::to_string() const {
  if (ok) return "state OK";
  std::string out = "state divergence:";
  for (const std::string& d : diffs) {
    out += "\n  - ";
    out += d;
  }
  return out;
}

OracleStateReport oracle_check_state(
    const BandwidthBroker& bb,
    const std::unordered_map<std::string, double>* external_reserved) {
  OracleStateReport report;
  const NodeMib& nodes = bb.nodes();
  const DomainSpec& spec = bb.spec();
  std::ostringstream os;
  os.precision(17);

  // 3. Full-map rebooking of the flow MIB: expected reserved bandwidth and
  // EDF entry multiset per link, from the flow records alone.
  struct WantBucket {
    double rate = 0.0;
    double l = 0.0;
    std::size_t count = 0;
  };
  std::unordered_map<std::string, double> want_rate;
  std::unordered_map<std::string, std::map<double, WantBucket>> want_edf;
  for (const auto& [id, rec] : bb.flows().all()) {
    if (rec.kind != FlowKind::kPerFlow) continue;  // microflows ride macros
    const PathRecord& path = bb.paths().record(rec.path);
    for (const auto& ln : path.link_names) {
      want_rate[ln] += rec.reservation.rate;
      if (nodes.link(ln).delay_based()) {
        WantBucket& b = want_edf[ln][rec.reservation.delay];
        b.rate += rec.reservation.rate;
        b.l += rec.profile.l_max;
        ++b.count;
      }
    }
  }
  for (const auto& [id, mf] : bb.classes().all_macroflows()) {
    const BitsPerSecond alloc = bb.classes().allocated(mf.id);
    const ServiceClass& cls = bb.classes().service_class(mf.service_class);
    const PathRecord& path = bb.paths().record(mf.path);
    for (const auto& ln : path.link_names) {
      want_rate[ln] += alloc;
      if (nodes.link(ln).delay_based() && alloc > 1e-9) {
        WantBucket& b = want_edf[ln][cls.delay_param];
        b.rate += alloc;
        b.l += path.l_path_max;
        ++b.count;
      }
    }
  }
  if (external_reserved != nullptr) {
    for (const auto& [ln, r] : *external_reserved) want_rate[ln] += r;
  }
  // The broker's own out-of-band reservations (reserve_link_external) are
  // part of its declared state — account for them like flow records.
  for (const auto& [ln, r] : bb.external_reserved()) want_rate[ln] += r;

  constexpr double kSumTol = 1e-3;  // float re-summation slack, b/s | bits
  std::vector<NaiveKnot> ref;
  for (const auto& l : spec.links) {
    const std::string name = l.from + "->" + l.to;
    const LinkQosState& link = nodes.link(name);

    // 4. Link invariants.
    if (link.reserved() < -1e-6 ||
        link.reserved() > link.capacity() + 1e-6) {
      os.str("");
      os << name << ": reserved " << link.reserved()
         << " outside [0, capacity " << link.capacity() << "]";
      report.fail(os.str());
    }
    if (link.buffer_reserved() < -1e-6 ||
        link.buffer_reserved() > link.buffer_capacity() + 1e-6) {
      os.str("");
      os << name << ": buffer reserved " << link.buffer_reserved()
         << " outside [0, capacity " << link.buffer_capacity() << "]";
      report.fail(os.str());
    }

    // 3. Reserved bandwidth vs. full-map rebooking.
    const double want = want_rate.contains(name) ? want_rate[name] : 0.0;
    if (std::abs(link.reserved() - want) > kSumTol) {
      os.str("");
      os << name << ": reserved " << link.reserved()
         << " != rebooked sum " << want;
      report.fail(os.str());
    }

    if (!link.delay_based()) continue;

    // 1. Cached knot prefixes vs. fresh raw-bucket walk — EXACT (column
    // accesses into the struct-of-arrays cache).
    naive_link_knots(link, {}, ref);
    const KnotArray& cached = link.knot_prefixes();
    if (cached.size() != ref.size()) {
      os.str("");
      os << name << ": knot cache has " << cached.size()
         << " knots, reference walk " << ref.size();
      report.fail(os.str());
    } else {
      for (std::size_t i = 0; i < ref.size(); ++i) {
        if (cached.d[i] != ref[i].d ||
            cached.rate_sum[i] != ref[i].rate_sum ||
            cached.fixed_sum[i] != ref[i].fixed_sum ||
            cached.s[i] != ref[i].s) {
          os.str("");
          os << name << ": knot " << i << " cached (d " << cached.d[i]
             << ", rsum " << cached.rate_sum[i] << ", fsum "
             << cached.fixed_sum[i] << ", S " << cached.s[i]
             << ") != reference (d " << ref[i].d << ", rsum "
             << ref[i].rate_sum << ", fsum " << ref[i].fixed_sum << ", S "
             << ref[i].s << ")";
          report.fail(os.str());
          break;
        }
      }
    }

    // 4. EDF slope condition from raw buckets.
    double total_rate = 0.0;
    std::size_t total_entries = 0;
    for (const auto& [d, b] : link.edf_buckets()) {
      total_rate += b.sum_rate;
      total_entries += b.count;
    }
    if (total_rate > link.capacity() + 1e-6) {
      os.str("");
      os << name << ": EDF aggregate rate " << total_rate
         << " exceeds capacity " << link.capacity();
      report.fail(os.str());
    }

    // 3. EDF bucket multiset vs. full-map rebooking: exact entry counts,
    // tolerance on the float sums.
    const auto want_it = want_edf.find(name);
    const std::map<double, WantBucket> empty;
    const std::map<double, WantBucket>& want_buckets =
        want_it != want_edf.end() ? want_it->second : empty;
    std::size_t want_entries = 0;
    for (const auto& [d, wb] : want_buckets) want_entries += wb.count;
    if (total_entries != want_entries) {
      os.str("");
      os << name << ": " << total_entries << " EDF entries, rebooking has "
         << want_entries;
      report.fail(os.str());
    } else {
      for (const auto& [d, wb] : want_buckets) {
        const auto& got = link.edf_buckets();
        auto it = got.find(d);
        if (it == got.end()) {
          os.str("");
          os << name << ": rebooked EDF knot d=" << d << " missing";
          report.fail(os.str());
          continue;
        }
        if (it->second.count != wb.count ||
            std::abs(it->second.sum_rate - wb.rate) > kSumTol ||
            std::abs(it->second.sum_l - wb.l) > kSumTol) {
          os.str("");
          os << name << ": EDF bucket d=" << d << " (count "
             << it->second.count << ", rate " << it->second.sum_rate
             << ", L " << it->second.sum_l << ") != rebooked (count "
             << wb.count << ", rate " << wb.rate << ", L " << wb.l << ")";
          report.fail(os.str());
        }
      }
    }
  }

  // 2. Cached path bottleneck vs. naive per-hop rescan — EXACT.
  for (PathId id = 0; id < static_cast<PathId>(bb.paths().path_count());
       ++id) {
    const BitsPerSecond cached = bb.paths().min_residual(id, nodes);
    const BitsPerSecond naive =
        naive_path_residual(bb.paths().record(id), nodes, {});
    if (cached != naive) {
      os.str("");
      os << "path " << id << ": cached C_res " << cached
         << " != naive rescan " << naive;
      report.fail(os.str());
    }
  }
  return report;
}

}  // namespace qosbb
