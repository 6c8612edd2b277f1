// Class-based guaranteed services with dynamic flow aggregation (Section 4).
//
// A delay service class fixes an end-to-end delay bound D and a delay
// parameter cd used at every delay-based scheduler. All microflows of one
// class sharing one path are aggregated into a macroflow, shaped at the edge
// with an aggregate reserved rate r^α and carrying ⟨r^α, cd⟩ packet state.
//
// Microflow join (Section 4.3): the new aggregate α' gets the minimal base
// rate r^α' with
//   d_edge^α'(r^α') + max{d_core^α, d_core^α'} <= D            (eq. 19)
// subject to ρ^ν <= r^α' − r^α <= P^ν and the peak-rate contingency test
// P^ν <= C_res^P. During the contingency period the macroflow holds
// r^α + P^ν; after τ^ν only r^α' remains.
//
// Microflow leave: the rate is NOT reduced immediately — the macroflow keeps
// r^α for τ^ν (contingency Δr = r^α − r^α', Theorem 3), then drops to the
// minimal r^α' satisfying eq. (19) for the shrunken aggregate.
//
// d^α stays fixed across rate changes (Section 4.2.2), and the core delay
// bound across a change is eq. (18) — computed with min(r_old, r_new).

#ifndef QOSBB_CORE_CLASSBASED_ADMISSION_H_
#define QOSBB_CORE_CLASSBASED_ADMISSION_H_

#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/contingency.h"
#include "core/flow_mib.h"
#include "core/node_mib.h"
#include "core/path_mib.h"
#include "core/types.h"

namespace qosbb {

/// A guaranteed-delay service class (Figure 6).
struct ServiceClass {
  ClassId id = kInvalidClassId;
  Seconds e2e_delay = 0.0;    ///< class delay bound D^{α,req}
  Seconds delay_param = 0.0;  ///< fixed cd used at delay-based schedulers
  std::string name;
};

/// Aggregate state of one (class, path) macroflow.
struct MacroflowState {
  FlowId id = kInvalidFlowId;  ///< macroflow id (edge conditioner keys on it)
  ClassId service_class = kInvalidClassId;
  PathId path = kInvalidPathId;
  TrafficProfile aggregate;    ///< component-wise sum of member profiles
  int microflows = 0;
  BitsPerSecond base_rate = 0.0;  ///< r^α, excluding contingency bandwidth
  /// Core-delay bound currently in effect (eq. 18 across the last rate
  /// change; reset to the steady-state bound when transients die out).
  Seconds core_bound_in_effect = 0.0;
  /// Whether the constant per-hop buffer offset is currently reserved.
  bool buffer_offset_held = false;
};

/// Result of a microflow join attempt.
struct JoinResult {
  bool admitted = false;
  RejectReason reason = RejectReason::kNone;
  FlowId microflow = kInvalidFlowId;
  FlowId macroflow = kInvalidFlowId;
  bool new_macroflow = false;
  BitsPerSecond base_rate = 0.0;       ///< r^α' after the join
  BitsPerSecond contingency = 0.0;     ///< Δr^ν granted (0 if none)
  GrantId grant = kInvalidGrantId;
  Seconds contingency_expires_at = 0.0;  ///< valid when grant != invalid
  Seconds e2e_bound = 0.0;             ///< bound in effect after the join
  std::string detail;
};

/// Result of a microflow leave.
struct LeaveResult {
  FlowId macroflow = kInvalidFlowId;
  BitsPerSecond base_rate = 0.0;    ///< r^α' (takes over after contingency)
  BitsPerSecond contingency = 0.0;  ///< Δr^ν = r^α − r^α'
  GrantId grant = kInvalidGrantId;
  Seconds contingency_expires_at = 0.0;
  bool macroflow_removed = false;   ///< last microflow left (after expiry)
};

class ClassBasedManager {
 public:
  ClassBasedManager(const DomainSpec& spec, NodeMib& nodes, PathMib& paths,
                    FlowMib& flows, ContingencyMethod method);

  ClassId define_class(Seconds e2e_delay, Seconds delay_param,
                       std::string name = {});
  const ServiceClass& service_class(ClassId id) const;

  /// Admit a microflow with `profile` into class `cls` on path `path`.
  /// `edge_backlog` is the edge conditioner's Q(t*) — required by the
  /// feedback method, ignored by the bounding method (which uses eq. 16).
  /// On admission the caller must (a) reconfigure the edge conditioner to
  /// the returned base_rate (+contingency until expiry), and (b) schedule
  /// `expire_grant(result.grant)` at `contingency_expires_at` if a grant
  /// was issued.
  JoinResult microflow_join(ClassId cls, PathId path,
                            const TrafficProfile& profile, Seconds now,
                            std::optional<Bits> edge_backlog = std::nullopt);

  /// Remove a previously admitted microflow.
  Result<LeaveResult> microflow_leave(FlowId microflow, Seconds now,
                                      std::optional<Bits> edge_backlog =
                                          std::nullopt);

  /// Contingency timer fired: release the grant's bandwidth. Unknown ids
  /// are ignored (the grant may have been drained early by feedback).
  void expire_grant(GrantId id, Seconds now);

  /// Feedback path: the macroflow's edge-conditioner buffer went empty —
  /// release all of its contingency bandwidth immediately (Section 4.2.1).
  void edge_buffer_empty(FlowId macroflow, Seconds now);

  /// Total bandwidth currently allocated to the macroflow: r^α + Δr^α(t).
  BitsPerSecond allocated(FlowId macroflow) const;
  const MacroflowState* find_macroflow(ClassId cls, PathId path) const;
  const MacroflowState* macroflow(FlowId id) const;
  std::size_t macroflow_count() const { return macroflows_.size(); }
  ContingencyMethod method() const { return method_; }
  /// Current end-to-end delay bound in effect for a macroflow
  /// (edge bound in effect + core bound in effect).
  Seconds e2e_bound_in_effect(FlowId macroflow) const;
  /// Active contingency grants across all macroflows (0 = quiescent; the
  /// precondition for a broker snapshot).
  std::size_t active_grants() const { return grants_.active_count(); }
  const std::map<ClassId, ServiceClass>& all_classes() const {
    return classes_;
  }
  const std::unordered_map<FlowId, MacroflowState>& all_macroflows() const {
    return macroflows_;
  }

  // ---- Restore-only API (broker snapshot recovery). ----
  /// Re-register a class with its original id. Requires the id to be free.
  void restore_class(const ServiceClass& cls);
  /// Re-install a settled macroflow record together with its member
  /// microflow records. Books nothing: rebook_macroflows does, once every
  /// record is in.
  void restore_macroflow(const MacroflowState& state,
                         const std::vector<FlowRecord>& microflows);
  /// Restore the grant-id counter (ContingencyManager::upcoming_id).
  void restore_next_grant_id(GrantId id) { grants_.bump_next_id(id); }
  GrantId next_grant_id() const { return grants_.upcoming_id(); }
  /// Book every macroflow on cleared link ledgers, in ascending id order:
  /// its base rate, its buffer (offset + slope·base) and one EDF entry. A
  /// settled macroflow holds exactly that, so this requires no live
  /// grants. Part of the broker's ledger rebase (restore and anchors).
  void rebook_macroflows();

 private:
  struct PathGeometry {
    int q = 0;
    int h = 0;
    Seconds d_tot = 0.0;
    Bits l_path = 0.0;
  };
  PathGeometry geometry(PathId path) const;
  /// Minimal base rate satisfying eq. (19) for `aggregate` given the core
  /// bound `d_core_old` already in effect (use the r'-dependent steady-state
  /// core bound by passing std::nullopt).
  Result<BitsPerSecond> min_base_rate(const ServiceClass& cls, PathId path,
                                      const TrafficProfile& aggregate,
                                      std::optional<Seconds> d_core_old) const;
  Seconds core_bound(PathId path, const ServiceClass& cls,
                     BitsPerSecond r) const;
  Seconds edge_bound_in_effect(const MacroflowState& mf) const;
  /// Buffer the macroflow needs on `link` for a rate increment `dr`
  /// (see per_hop_buffer_bound: linear slope·dr, plus the constant L-offset
  /// exactly once per macroflow when `with_offset`).
  Bits buffer_amount(const LinkQosState& link, const ServiceClass& cls,
                     BitsPerSecond dr, bool with_offset, Bits l_path) const;
  /// Reserve `dr` bandwidth plus the matching buffer on every link of the
  /// path; rolls back everything on failure. `with_offset` additionally
  /// reserves the macroflow's constant buffer offset (first join).
  Status reserve_on_path(PathId path, const ServiceClass& cls,
                         BitsPerSecond dr, bool with_offset);
  void release_on_path(PathId path, const ServiceClass& cls,
                       BitsPerSecond dr, bool with_offset);
  /// Swap the macroflow's EDF entry (rate change), checking schedulability.
  Status swap_edf_entries(PathId path, const ServiceClass& cls,
                          BitsPerSecond old_rate, BitsPerSecond new_rate,
                          Bits l_path);
  /// τ^ν for a grant of Δr = `delta_r`, from the PRE-event state:
  /// `edge_bound_old` = d_edge in effect before t*, `in_service_old` =
  /// r^α + Δr^α(t*) before the event (eq. 16/17). The feedback method uses
  /// the reported backlog instead.
  Seconds contingency_tau(Seconds edge_bound_old,
                          BitsPerSecond in_service_old, BitsPerSecond delta_r,
                          std::optional<Bits> edge_backlog) const;
  void maybe_settle(MacroflowState& mf);

  const DomainSpec& spec_;
  NodeMib& nodes_;
  PathMib& paths_;
  FlowMib& flows_;
  ContingencyMethod method_;
  ContingencyManager grants_;
  std::map<ClassId, ServiceClass> classes_;
  std::unordered_map<FlowId, MacroflowState> macroflows_;
  std::map<std::pair<ClassId, PathId>, FlowId> by_class_path_;
  ClassId next_class_ = 1;
};

}  // namespace qosbb

#endif  // QOSBB_CORE_CLASSBASED_ADMISSION_H_
