// Reference admission oracle for differential testing.
//
// PR 1 made the admission hot path incremental: cached EDF knot prefixes
// (LinkQosState::knot_prefixes), a version-revalidated per-path C_res^P
// cache (PathMib::min_residual), and an allocation-free Figure-4 scan with
// Theorem-1 early exits. Its correctness argument is that every cached
// value is bit-identical to from-scratch recomputation. This oracle is the
// machine-checkable form of that argument: an independent implementation of
// the Section-3 admission math (eq. 10/11, Figure 4) that recomputes every
// decision from the RAW MIB state —
//
//   * a naive per-hop C_res^P rescan over the path's link names (no
//     min_residual cache, no resolved-pointer arrays),
//   * per-link EDF knots from fresh ascending walks over the raw
//     edf_buckets() multisets (never knot_prefixes()),
//   * a std::map-based Figure-4 knot merge (the pre-PR-1 structure),
//   * a FULL interval scan with no Theorem-1 stopping rules, so the
//     theorem's "the early exit returns the global minimum" claim is
//     checked empirically on every request,
//   * full-walk eq.-5 schedulability validation of the chosen pair.
//
// The oracle deliberately shares no code with the cached fast path. It does
// call the pure, stateless formula helpers (e2e_delay_bound,
// per_hop_buffer_bound, TrafficProfile::t_on): those hold no cached state —
// they are the paper's closed-form equations — and reusing them keeps the
// comparison about what the harness targets, the incremental cache layer.
//
// Numerics: per-link knot values are produced by the same ascending
// accumulation as the cache rebuild, so state comparisons are EXACT (== on
// doubles). Decision comparisons allow a kOracleRateTol slack because the
// oracle's full scan may visit intervals the early-exiting fast path
// legitimately skips (Theorem 1 guarantees no better rate there only up to
// the scan's own epsilon).

#ifndef QOSBB_CORE_ORACLE_H_
#define QOSBB_CORE_ORACLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "core/broker.h"
#include "core/perflow_admission.h"
#include "core/types.h"

namespace qosbb {

/// Decision-comparison slack, b/s (and seconds for delay/bound fields).
/// See the numerics note in the file header.
constexpr double kOracleRateTol = 1e-6;

/// Optional exclusion of one already-booked reservation from the oracle's
/// view of the path state — evaluates "the path without this flow", which
/// is what renegotiate_service tests after its withdraw step.
struct OracleExclusion {
  bool active = false;
  RateDelayPair params;
  Bits l_max = 0.0;
};

/// From-scratch §3 admissibility test on a provisioned path. Reads only the
/// raw MIB state (link residuals by name, edf_buckets multisets).
AdmissionOutcome oracle_admit_per_flow(const PathMib& paths,
                                       const NodeMib& nodes, PathId path,
                                       const TrafficProfile& profile,
                                       Seconds d_req,
                                       const OracleExclusion& exclude = {});

/// Full-request mirror of BandwidthBroker::request_service's admission
/// phase: the from-scratch test on the pair's one provisioned path. Policy
/// and signaling-rate gates are NOT mirrored — run the harness with those
/// disabled, or compare only past them.
struct OracleDecision {
  PathId path = kInvalidPathId;
  AdmissionOutcome outcome;
};
OracleDecision oracle_decide_request(const BandwidthBroker& bb,
                                     const FlowServiceRequest& request);

/// Equivalence predicate between a fast-path outcome and an oracle outcome.
/// Admitted must match exactly; admitted parameters (rate, delay, bound)
/// must agree within kOracleRateTol; reject reasons must agree up to the
/// {kEdfUnschedulable, kInsufficientBandwidth} class (which constraint
/// bound LAST during a scan is heuristic; the other reasons come from
/// deterministic pre-checks and must match exactly). On mismatch, `why`
/// (when non-null) receives a description.
bool oracle_outcomes_equivalent(const AdmissionOutcome& fast,
                                const AdmissionOutcome& oracle,
                                std::string* why);

/// Full differential state audit of a broker against from-scratch
/// recomputation:
///   1. every delay-based link's knot_prefixes() EXACTLY equals a fresh
///      ascending walk over its edf_buckets() (d, rate_sum, fixed_sum, S);
///   2. every provisioned path's min_residual() EXACTLY equals a naive
///      rescan over its link names;
///   3. every link's reserved bandwidth and EDF bucket multiset equal a
///      full-map rebooking of the flow MIB (per-flow reservations plus
///      macroflow allocations), within float-resummation tolerance;
///   4. link invariants: 0 <= reserved <= capacity, buffer accounting
///      within capacity, EDF slope condition Σr <= C.
///
/// `external_reserved`, when non-null, declares out-of-band bandwidth per
/// link name (e.g. a harness's direct LinkQosState::reserve calls) that the
/// rebooking reconstruction should expect on top of the flow MIB.
struct OracleStateReport {
  bool ok = true;
  std::vector<std::string> diffs;

  void fail(std::string what) {
    ok = false;
    diffs.push_back(std::move(what));
  }
  std::string to_string() const;
};
OracleStateReport oracle_check_state(
    const BandwidthBroker& bb,
    const std::unordered_map<std::string, double>* external_reserved =
        nullptr);

}  // namespace qosbb

#endif  // QOSBB_CORE_ORACLE_H_
