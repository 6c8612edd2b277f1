// The §3.1 / §3.2 (Figure-4) admission algorithms, generic over the link
// representation (internal header).
//
// Two instantiations exist:
//   * Link = LinkQosState  — the live node MIB, viewed through PathView
//     (the sequential broker's zero-copy fast path), and
//   * Link = LinkSnapshot  — the immutable per-request PathSnapshot the
//     stateless AdmissionEngine tests against under optimistic concurrency.
//
// Both run the SAME template body with the SAME arithmetic in the SAME
// order, so the two paths are bit-identical by construction — the property
// the fuzz harness's --threaded mode then proves empirically. Any change to
// the algorithms happens here, once.
//
// A View type must expose:
//   view.record     — const PathRecord*
//   view.c_res      — BitsPerSecond (C_res^P, min residual in hop order)
//   view.links      — range of const Link* in hop order
//   view.edf_links  — range of const Link* (delay-based subset, path order)
// and Link must expose capacity(), buffer_residual(), knot_prefixes() (a
// KnotArray, struct-of-arrays), and edf_schedulable_with().

#ifndef QOSBB_CORE_ADMISSION_CORE_H_
#define QOSBB_CORE_ADMISSION_CORE_H_

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>

#include "core/perflow_admission.h"
#include "util/status.h"
#include "vtrs/delay_bounds.h"

namespace qosbb {
namespace admission_impl {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kRateEps = 1e-6;  // b/s comparison slack

/// Buffer feasibility of a candidate ⟨r, d⟩ across every hop of the view
/// (no-op when the view carries no link list or buffers are unlimited).
template <typename View>
bool buffers_feasible(const View& view, BitsPerSecond r, Seconds d,
                      Bits l_max) {
  if (view.links.empty()) return true;
  const auto& hops = view.record->abstract.hops;
  for (std::size_t i = 0; i < view.links.size(); ++i) {
    const Bits need = per_hop_buffer_bound(hops[i].kind, r, d, l_max,
                                           hops[i].error_term);
    if (view.links[i]->buffer_residual() < need - 1e-6) return false;
  }
  return true;
}

inline AdmissionOutcome reject(RejectReason reason, std::string detail,
                               int intervals = 0) {
  AdmissionOutcome out;
  out.admitted = false;
  out.reason = reason;
  out.detail = std::move(detail);
  out.intervals_scanned = intervals;
  return out;
}

/// The new flow's own-deadline constraint on one link: minimal d in
/// [lo, hi) with C·d − demand(d) >= l_new, or +inf if none. demand is
/// evaluated with knots <= d (as in eq. 5); `lo`/`hi` are a global knot
/// interval, so no link knot lies strictly inside. O(log K) over the
/// link's cached knot prefixes — no per-request solver construction.
template <typename Link>
double min_feasible_d(const Link& link, double lo, double hi, Bits l_new) {
  const KnotArray& knots = link.knot_prefixes();
  const double capacity = link.capacity();
  // Demand parameters in effect over [lo, hi): knots with d <= lo.
  double rate_sum = 0.0;
  double fixed_sum = 0.0;
  // Binary search the last knot <= lo.
  const std::size_t gt = knots.upper_bound(lo);
  if (gt != 0) {
    rate_sum = knots.rate_sum[gt - 1];
    fixed_sum = knots.fixed_sum[gt - 1];
  }
  // Need (C − rate_sum)·d >= l_new + fixed_sum.
  const double slope = capacity - rate_sum;
  const double need = l_new + fixed_sum;
  if (slope <= kRateEps) {
    // Demand grows as fast as service: feasible only if already met.
    return (capacity * lo - (rate_sum * lo + fixed_sum) >= l_new - 1e-9)
               ? lo
               : kInf;
  }
  const double d_min = std::max(lo, need / slope);
  return d_min < hi ? d_min : kInf;
}

/// Merge the per-link cached knot arrays into the global ascending knot set
/// d^1 < ... < d^M with S^k = min over the links CARRYING knot d^k of their
/// residual service there (Section 3.2), published through the
/// scratch.knots / scratch.s_vals spans. With a single delay-based hop the
/// spans alias the link's own KnotArray columns — the dominant shape pays
/// ZERO copies. Multi-hop paths run a two-pointer / k-way merge into the
/// owned scratch buffers: no node allocations, no comparisons beyond the
/// O(M·hq) walk.
template <typename EdfLinks>
void merge_knots(const EdfLinks& links, AdmissionScratch& scratch) {
  const std::size_t n = links.size();
  if (n == 1) {
    const KnotArray& kp = links[0]->knot_prefixes();
    scratch.knots = std::span<const Seconds>(kp.d);
    scratch.s_vals = std::span<const double>(kp.s);
    return;
  }
  scratch.knots_buf.clear();
  scratch.s_buf.clear();
  if (n == 2) {
    const KnotArray& a = links[0]->knot_prefixes();
    const KnotArray& b = links[1]->knot_prefixes();
    // Same-deadline fast path: a flow installs the SAME per-hop deadline on
    // every delay-based hop of its path, so sibling hops that serve the
    // same flow population carry bit-identical d columns. The merged knot
    // set is then either column and S^k the elementwise min — one dense
    // vectorizable pass instead of the branchy two-pointer walk. Bitwise
    // equality implies operator== equality, so this emits exactly what the
    // general merge would.
    if (a.size() == b.size() && !a.empty() &&
        std::memcmp(a.d.data(), b.d.data(),
                    a.size() * sizeof(Seconds)) == 0) {
      scratch.s_buf.resize(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        scratch.s_buf[i] = std::min(a.s[i], b.s[i]);
      }
      scratch.knots = std::span<const Seconds>(a.d);
      scratch.s_vals = std::span<const double>(scratch.s_buf);
      return;
    }
    // Otherwise: plain two-pointer merge.
    scratch.knots_buf.reserve(a.size() + b.size());
    scratch.s_buf.reserve(a.size() + b.size());
    std::size_t i = 0, j = 0;
    while (i < a.size() && j < b.size()) {
      if (a.d[i] < b.d[j]) {
        scratch.knots_buf.push_back(a.d[i]);
        scratch.s_buf.push_back(a.s[i]);
        ++i;
      } else if (b.d[j] < a.d[i]) {
        scratch.knots_buf.push_back(b.d[j]);
        scratch.s_buf.push_back(b.s[j]);
        ++j;
      } else {
        scratch.knots_buf.push_back(a.d[i]);
        scratch.s_buf.push_back(std::min(a.s[i], b.s[j]));
        ++i;
        ++j;
      }
    }
    for (; i < a.size(); ++i) {
      scratch.knots_buf.push_back(a.d[i]);
      scratch.s_buf.push_back(a.s[i]);
    }
    for (; j < b.size(); ++j) {
      scratch.knots_buf.push_back(b.d[j]);
      scratch.s_buf.push_back(b.s[j]);
    }
    scratch.knots = std::span<const Seconds>(scratch.knots_buf);
    scratch.s_vals = std::span<const double>(scratch.s_buf);
    return;
  }
  // Resolve each link's cached array once (knot_prefixes() carries a dirty
  // check); merge over per-array index cursors held in scratch.
  scratch.heads.clear();
  std::size_t total = 0;
  for (const auto* link : links) {
    const KnotArray& kp = link->knot_prefixes();
    scratch.heads.push_back({&kp, 0});
    total += kp.size();
  }
  scratch.knots_buf.reserve(total);
  scratch.s_buf.reserve(total);
  while (true) {
    double dmin = kInf;
    for (const auto& [ka, i] : scratch.heads) {
      if (i < ka->size() && ka->d[i] < dmin) dmin = ka->d[i];
    }
    if (std::isinf(dmin)) break;
    double s = kInf;
    for (auto& [ka, i] : scratch.heads) {
      if (i < ka->size() && ka->d[i] == dmin) {
        s = std::min(s, ka->s[i]);
        ++i;
      }
    }
    scratch.knots_buf.push_back(dmin);
    scratch.s_buf.push_back(s);
  }
  scratch.knots = std::span<const Seconds>(scratch.knots_buf);
  scratch.s_vals = std::span<const double>(scratch.s_buf);
}

/// §3.1 test (rate-based-only paths).
template <typename View>
AdmissionOutcome admit_rate_only_impl(const View& view,
                                      const TrafficProfile& profile,
                                      Seconds d_req) {
  QOSBB_REQUIRE(view.record != nullptr, "admit_rate_only: null path record");
  const PathRecord& rec = *view.record;
  QOSBB_REQUIRE(rec.abstract.delay_based_count() == 0,
                "admit_rate_only: path has delay-based hops");
  const BitsPerSecond r_min = min_rate_rate_only(rec.abstract, profile, d_req);
  const BitsPerSecond r_low = std::max(profile.rho, r_min);
  const BitsPerSecond r_up = std::min(profile.peak, view.c_res);
  if (r_low > r_up + kRateEps) {
    if (r_min > profile.peak) {
      return reject(RejectReason::kNoFeasibleRate,
                    "r_min " + std::to_string(r_min) + " exceeds peak");
    }
    return reject(RejectReason::kInsufficientBandwidth,
                  "need " + std::to_string(r_low) + " b/s, residual " +
                      std::to_string(view.c_res));
  }
  if (!buffers_feasible(view, r_low, 0.0, profile.l_max)) {
    return reject(RejectReason::kInsufficientBuffer,
                  "per-hop backlog bound exceeds a buffer");
  }
  AdmissionOutcome out;
  out.admitted = true;
  out.params = RateDelayPair{r_low, 0.0};
  out.e2e_bound =
      e2e_delay_bound(rec.abstract, profile, r_low, 0.0, profile.l_max);
  return out;
}

/// §3.2 Figure-4 test (paths with at least one delay-based hop).
template <typename View>
AdmissionOutcome admit_mixed_impl(const View& view,
                                  const TrafficProfile& profile, Seconds d_req,
                                  AdmissionScratch* scratch) {
  AdmissionScratch local;
  AdmissionScratch& buf = scratch != nullptr ? *scratch : local;
  QOSBB_REQUIRE(view.record != nullptr, "admit_mixed: null path record");
  const PathRecord& rec = *view.record;
  const int h = rec.hop_count();
  const int q = rec.rate_based_count();
  const int hq = h - q;
  QOSBB_REQUIRE(hq > 0, "admit_mixed: no delay-based hops");
  QOSBB_REQUIRE(static_cast<int>(view.edf_links.size()) == hq,
                "admit_mixed: edf_links does not match path");

  const Seconds d_tot = rec.d_tot();
  const Seconds t_on = profile.t_on();
  const Bits l = profile.l_max;
  // t^ν and Ξ^ν of Section 3.2.
  const double t_nu = (d_req - d_tot + t_on) / static_cast<double>(hq);
  const double xi = (t_on * profile.peak + static_cast<double>(q + 1) * l) /
                    static_cast<double>(hq);
  if (t_nu <= 0.0) {
    return reject(RejectReason::kNoFeasibleRate,
                  "delay requirement below fixed path latency");
  }
  const BitsPerSecond r_cap = std::min(profile.peak, view.c_res);
  // d^ν >= 0 requires r >= Ξ/t.
  const BitsPerSecond r_floor0 = std::max(profile.rho, xi / t_nu);
  if (r_floor0 > r_cap + kRateEps) {
    if (xi / t_nu > profile.peak) {
      return reject(RejectReason::kNoFeasibleRate,
                    "even r = P cannot meet the delay requirement");
    }
    return reject(RejectReason::kInsufficientBandwidth,
                  "need " + std::to_string(r_floor0) + " b/s, residual " +
                      std::to_string(view.c_res));
  }

  // Global knot set d^1 < ... < d^M across the path's delay-based hops, and
  // the per-knot minimal residual service S^k = min_i R_i(d^k) over the
  // hops that actually carry the knot (Section 3.2). K-way merge of the
  // links' cached knot arrays into the reusable scratch buffers.
  merge_knots(view.edf_links, buf);
  const std::span<const Seconds> knots = buf.knots;
  const std::span<const double> s_vals = buf.s_vals;
  const int m_count = static_cast<int>(knots.size());  // M

  // Index of the first knot with d^k >= t^ν (knots below it cannot bound r
  // from above, nor host t^ν as an interval right edge).
  const int k_tnu = static_cast<int>(
      std::lower_bound(knots.begin(), knots.end(), t_nu) - knots.begin());

  // Static upper bound from knots with d^k >= t^ν (eq. 11, k >= m* terms):
  //   r (d^k − d^ν) + L <= S^k  with d^ν = t − Ξ/r gives
  //   r <= (S^k − Ξ − L) / (d^k − t)  for d^k > t, and the r-independent
  //   feasibility requirement S^k >= Ξ + L for d^k == t.
  double ub_knots = kInf;
  for (int k = k_tnu; k < m_count; ++k) {
    if (knots[static_cast<std::size_t>(k)] > t_nu) {
      const double num = s_vals[static_cast<std::size_t>(k)] - xi - l;
      if (num < 0.0) {
        return reject(RejectReason::kEdfUnschedulable,
                      "residual service at knot beyond t^nu too small", 0);
      }
      ub_knots = std::min(ub_knots,
                          num / (knots[static_cast<std::size_t>(k)] - t_nu));
    } else {  // knots[k] == t_nu (k >= k_tnu excludes d^k < t^ν)
      if (s_vals[static_cast<std::size_t>(k)] < xi + l - 1e-9) {
        return reject(RejectReason::kEdfUnschedulable,
                      "residual service at knot t^nu too small", 0);
      }
    }
  }

  // Right-most interval index m* (1-based over intervals
  // [d^{m-1}, d^m), m = 1..M+1 with d^0 = 0, d^{M+1} = ∞): the first whose
  // interior can contain d^ν < t^ν, i.e. d^{m*−1} < t^ν <= d^{m*} — exactly
  // the interval whose right edge is the first knot >= t^ν.
  auto knot_at = [&](int idx) -> double {  // d^idx with d^0 = 0, d^{M+1} = ∞
    if (idx <= 0) return 0.0;
    if (idx > m_count) return kInf;
    return knots[static_cast<std::size_t>(idx - 1)];
  };
  auto s_of = [&](int idx) -> double {  // S^idx, idx in [1, M]
    return s_vals[static_cast<std::size_t>(idx - 1)];
  };
  const int m_star = k_tnu + 1;

  // Scan m = m*, m*−1, ..., 1. Running lower bound from knots with
  // d^k < t^ν that lie at or right of the current interval (they join as m
  // decreases).
  double lb_knots = 0.0;
  AdmissionOutcome best;
  best.admitted = false;
  int scanned = 0;
  RejectReason last_reason = RejectReason::kEdfUnschedulable;

  for (int m = m_star; m >= 1; --m) {
    // Knot m (right edge of this interval) now constrains d^ν <= d^m:
    // applies to this interval and everything further left.
    if (m <= m_count && knot_at(m) < t_nu) {
      const double denom = t_nu - knot_at(m);
      lb_knots = std::max(lb_knots, (xi + l - s_of(m)) / denom);
    }
    ++scanned;
    const double d_left = knot_at(m - 1);
    const double d_right = std::min(knot_at(m), t_nu);
    if (d_left >= t_nu) continue;  // interval cannot host d^ν < t^ν

    // R_fea^m (eq. 10): keeps d^ν = t − Ξ/r inside [d_left, d_right].
    const double fea_lo =
        std::max({profile.rho, xi / t_nu, xi / (t_nu - d_left)});
    const double fea_hi =
        d_right < t_nu ? std::min(r_cap, xi / (t_nu - d_right)) : r_cap;

    // Own-deadline constraint per delay-based hop: minimal feasible d in
    // this interval, translated to a lower bound on r. NOTE: this bound is
    // interval-local (R_i(d) is not monotone across knots), so it must NOT
    // participate in the Theorem-1 stopping rules below — those are only
    // valid for the knot-derived bound lb_knots, which grows monotonically
    // as the scan moves left.
    double d_own = d_left;
    bool own_feasible = true;
    for (const auto* link : view.edf_links) {
      const double dm = min_feasible_d(*link, d_left, knot_at(m), l);
      if (std::isinf(dm)) {
        own_feasible = false;
        break;
      }
      d_own = std::max(d_own, dm);
    }
    if (!own_feasible || d_own >= t_nu) {
      last_reason = RejectReason::kEdfUnschedulable;
      continue;  // this interval cannot satisfy eq. (5); try further left
    }
    const double own_lo = d_own > d_left ? xi / (t_nu - d_own) : 0.0;
    const double lo = std::max({fea_lo, lb_knots, own_lo});
    const double hi = std::min(fea_hi, ub_knots);
    if (lo <= hi + kRateEps) {
      const double r = lo;
      const double d = std::max(d_own, t_nu - xi / r);
      // Exact re-validation of eq. (5) at every delay-based hop.
      bool ok = r <= view.c_res + kRateEps;
      for (const auto* link : view.edf_links) {
        if (!ok) break;
        ok = link->edf_schedulable_with(r, d, l);
      }
      if (ok && (!best.admitted || r < best.params.rate)) {
        best.admitted = true;
        best.params = RateDelayPair{r, d};
      }
      // Theorem 1: when the (monotone) knot-derived lower bound is the
      // binding edge, every interval further left has lo' >= lb_knots' >=
      // lb_knots = lo — the global minimum is in hand.
      if (best.admitted && lb_knots >= lo - kRateEps) break;
    } else {
      // Theorem 1 stopping rule, knot-bound flavor: fea_hi and ub_knots
      // only shrink and lb_knots only grows as m decreases, so once the
      // upper edge sits below the knot bound no interval further left can
      // intersect either.
      if (hi < lb_knots - kRateEps) {
        last_reason = RejectReason::kEdfUnschedulable;
        break;
      }
      last_reason = hi <= profile.rho + kRateEps && hi >= r_cap - kRateEps
                        ? RejectReason::kInsufficientBandwidth
                        : RejectReason::kEdfUnschedulable;
    }
  }

  if (!best.admitted) {
    auto out = reject(last_reason, "no feasible rate-delay pair", scanned);
    return out;
  }
  if (!buffers_feasible(view, best.params.rate, best.params.delay,
                        profile.l_max)) {
    // The buffer bound grows with r on rate-based hops and with both r and
    // d on delay-based ones; we do not re-search the (r, d) space for a
    // buffer-feasible alternative — exhaustion at the minimal-rate pair is
    // treated as terminal.
    return reject(RejectReason::kInsufficientBuffer,
                  "per-hop backlog bound exceeds a buffer", scanned);
  }
  best.reason = RejectReason::kNone;
  best.intervals_scanned = scanned;
  best.e2e_bound = e2e_delay_bound(rec.abstract, profile, best.params.rate,
                                   best.params.delay, profile.l_max);
  return best;
}

/// Dispatcher: picks the §3.1 or §3.2 test by path composition.
template <typename View>
AdmissionOutcome admit_per_flow_impl(const View& view,
                                     const TrafficProfile& profile,
                                     Seconds d_req,
                                     AdmissionScratch* scratch) {
  QOSBB_REQUIRE(view.record != nullptr, "admit_per_flow: null path record");
  if (view.record->abstract.delay_based_count() == 0) {
    return admit_rate_only_impl(view, profile, d_req);
  }
  return admit_mixed_impl(view, profile, d_req, scratch);
}

}  // namespace admission_impl
}  // namespace qosbb

#endif  // QOSBB_CORE_ADMISSION_CORE_H_
