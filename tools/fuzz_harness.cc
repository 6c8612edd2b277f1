#include "tools/fuzz_harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <type_traits>
#include <unordered_map>

#include "core/broker.h"
#include "core/concurrent_front.h"
#include "core/durable_broker.h"
#include "core/oracle.h"
#include "topo/builders.h"
#include "topo/fig8.h"
#include "util/backoff.h"
#include "util/rng.h"
#include "util/status.h"

namespace qosbb::fuzz {

StateDigest digest_of(const DomainSpec& spec, const BandwidthBroker& bb,
                      std::uint64_t next_lsn) {
  StateDigest d;
  d.links.reserve(spec.links.size());
  for (const auto& l : spec.links) {
    const LinkQosState& link = bb.nodes().link(l.from + "->" + l.to);
    d.links.emplace_back(link.reserved(), link.buffer_reserved());
  }
  d.flows = bb.flows().count();
  d.macroflows = bb.classes().macroflow_count();
  d.next_lsn = next_lsn;
  return d;
}

std::vector<std::size_t> batch_execution_order(std::span<const SlabOp> ops) {
  std::vector<std::size_t> order;
  std::vector<FlowServiceRequest> run;
  for (std::size_t i = 0; i < ops.size();) {
    if (!ops[i].is_admit()) {
      order.push_back(i++);
      continue;
    }
    run.clear();
    for (std::size_t j = i; j < ops.size() && ops[j].is_admit(); ++j) {
      run.push_back(*ops[j].request);
    }
    for (const std::size_t k : batch_grouped_order(run)) {
      order.push_back(i + k);
    }
    i += run.size();
  }
  return order;
}

Result<Reservation> run_member(DurableBroker& db, const SlabOp& op,
                               Seconds now) {
  if (op.is_admit()) return db.request_service(op.rid, *op.request, now);
  const Status s = db.release_service(op.rid, op.flow);
  if (!s.is_ok()) return s;
  Reservation r;
  r.flow = op.flow;
  return r;
}

namespace {

/// Tolerance for "state unchanged after a rejected request" checks where
/// re-booking order changes float sums in the last ulp. Crash recovery is
/// held to EXACT equality (deterministic redo from an identical base).
constexpr double kStateTol = 1e-6;

/// Issued-request log entry: everything needed to re-deliver a request
/// verbatim (the resolved arguments, NOT the ordinals — redelivery must hit
/// the dedup window, not re-resolve against changed live lists).
struct IssuedCall {
  RequestId rid = kNoRequestId;
  OpKind kind = OpKind::kAdmit;
  bool ok = false;  ///< the original decision
  FlowId result_flow = kInvalidFlowId;  ///< admit/join: id handed out
  FlowServiceRequest req;               // admit
  Seconds now = 0.0;
  FlowId flow = kInvalidFlowId;  // release / renegotiate / leave target
  Seconds d_req = 0.0;           // renegotiate
  ClassId cls = kInvalidClassId;  // join
  TrafficProfile profile;         // join
  std::string ingress, egress;    // join
  std::string link;               // link reserve/release
  double amount = 0.0;            // link reserve/release
};

struct ExecState {
  DomainSpec spec;
  BrokerOptions options;
  std::vector<std::pair<std::string, std::string>> pairs;
  std::unique_ptr<FaultyJournalFile> journal;
  std::unique_ptr<DurableBroker> db;
  std::vector<ClassId> classes;
  std::vector<FlowId> per_flow;
  std::vector<FlowId> micro;
  std::vector<IssuedCall> issued;  ///< recent acked requests (redelivery pool)
  RequestId next_rid = 1;
  Seconds now = 0.0;
};

/// The 13th append disappears under --sabotage: late enough to fall inside
/// the op sequence (setup journals ~5 records), early enough that short
/// sabotage runs still reach it.
constexpr std::uint64_t kSabotageDropIndex = 12;

/// Topology + endpoint pairs + broker options for a config (shared between
/// the journal-backed sequential harness and the threaded differential).
void fuzz_domain(const FuzzConfig& cfg, DomainSpec* spec,
                 std::vector<std::pair<std::string, std::string>>* pairs,
                 BrokerOptions* options) {
  switch (cfg.topology) {
    case FuzzTopology::kFig8Mixed:
      *spec = fig8_topology(Fig8Setting::kMixed);
      *pairs = {{"I1", "E1"}, {"I2", "E2"}};
      break;
    case FuzzTopology::kFig8RateOnly:
      *spec = fig8_topology(Fig8Setting::kRateBasedOnly);
      *pairs = {{"I1", "E1"}, {"I2", "E2"}};
      break;
    case FuzzTopology::kDumbbellEdf: {
      DumbbellOptions opt;
      opt.edge_pairs = 3;
      opt.policy = SchedPolicy::kVtEdf;
      *spec = dumbbell_topology(opt);
      *pairs = {{"I0", "E0"}, {"I1", "E1"}, {"I2", "E2"}};
      break;
    }
  }
  options->contingency = ContingencyMethod::kFeedback;
  options->allow_preemption = cfg.allow_preemption;
  options->path_selection = cfg.widest_residual
                                ? PathSelection::kWidestResidual
                                : PathSelection::kMinHop;
}

ExecState make_state(const FuzzConfig& cfg) {
  ExecState st;
  fuzz_domain(cfg, &st.spec, &st.pairs, &st.options);
  st.journal = std::make_unique<FaultyJournalFile>();
  if (cfg.sabotage_drop_append) {
    st.journal->set_drop_append_index(kSabotageDropIndex);
  }
  auto db = DurableBroker::open(st.spec, st.options, *st.journal);
  QOSBB_REQUIRE(db.is_ok(), "fuzz: durable open failed");
  st.db = std::move(db.value());
  // Provision every endpoint pair up front so broker and oracle see the
  // same path MIB from op 0 (the broker would otherwise provision lazily
  // inside the first request, which the oracle's pre-decision cannot see).
  // Journaled, so recovery from genesis rebuilds the same paths/classes.
  for (const auto& [in, out] : st.pairs) {
    auto p = st.db->provision_path(st.next_rid++, in, out);
    QOSBB_REQUIRE(p.is_ok(), "fuzz: provisioning failed");
  }
  auto gold = st.db->define_class(st.next_rid++, 2.19, 0.10, "gold");
  auto silver = st.db->define_class(st.next_rid++, 3.0, 0.15, "silver");
  QOSBB_REQUIRE(gold.is_ok() && silver.is_ok(), "fuzz: class setup failed");
  st.classes.push_back(gold.value());
  st.classes.push_back(silver.value());
  return st;
}

void for_each_delay_link(ExecState& st,
                         const std::function<void(LinkQosState&)>& fn) {
  for (const auto& l : st.spec.links) {
    LinkQosState& link = st.db->broker().nodes().link(l.from + "->" + l.to);
    if (link.delay_based()) fn(link);
  }
}

/// Per-link (reserved, buffer_reserved) snapshot for the unchanged-on-
/// reject check.
std::vector<std::pair<double, double>> capture_links(const ExecState& st) {
  std::vector<std::pair<double, double>> out;
  out.reserve(st.spec.links.size());
  for (const auto& l : st.spec.links) {
    const LinkQosState& link =
        st.db->broker().nodes().link(l.from + "->" + l.to);
    out.emplace_back(link.reserved(), link.buffer_reserved());
  }
  return out;
}

bool links_unchanged(const ExecState& st,
                     const std::vector<std::pair<double, double>>& before,
                     bool exact, std::string* why) {
  for (std::size_t i = 0; i < st.spec.links.size(); ++i) {
    const auto& l = st.spec.links[i];
    const LinkQosState& link =
        st.db->broker().nodes().link(l.from + "->" + l.to);
    const double dr = std::abs(link.reserved() - before[i].first);
    const double db = std::abs(link.buffer_reserved() - before[i].second);
    const bool bad = exact ? (link.reserved() != before[i].first ||
                              link.buffer_reserved() != before[i].second)
                           : (dr > kStateTol || db > kStateTol);
    if (bad) {
      std::ostringstream os;
      os.precision(17);
      os << "mutated " << link.name() << ": reserved " << before[i].first
         << " -> " << link.reserved() << ", buffer " << before[i].second
         << " -> " << link.buffer_reserved();
      *why = os.str();
      return false;
    }
  }
  return true;
}

/// Validated profile from an op's recorded shape. The generator only emits
/// shapes satisfying TrafficProfile::make's invariants.
TrafficProfile op_profile(const FuzzOp& op) {
  return TrafficProfile::make(op.sigma, op.rho, op.peak, op.l_max);
}

std::size_t pick(std::int64_t target, std::size_t size) {
  return static_cast<std::size_t>(target % static_cast<std::int64_t>(size));
}

/// Every field of two reservations, floats bit-for-bit. On a mismatch,
/// `*why` names `context` and both sides (`a_name`'s first).
bool reservations_identical(const Reservation& a, const Reservation& b,
                            const std::string& context, const char* a_name,
                            const char* b_name, std::string* why) {
  if (a.flow == b.flow && a.path == b.path && a.params.rate == b.params.rate &&
      a.params.delay == b.params.delay && a.e2e_bound == b.e2e_bound &&
      a.preempted == b.preempted) {
    return true;
  }
  std::ostringstream os;
  os.precision(17);
  os << context << " reservation mismatch: " << a_name << " flow " << a.flow
     << " path " << a.path << " r " << a.params.rate << " vs " << b_name
     << " flow " << b.flow << " path " << b.path << " r " << b.params.rate;
  *why = os.str();
  return false;
}

/// Deterministic members for one kBatchAdmit op: 2-8 requests derived from
/// the op's recorded shape. The endpoint pair rotates per member (so a batch
/// usually spans several path groups) and rho/peak fan out per member (so a
/// batch near saturation mixes admits and rejects). Shared by the
/// journal-backed and threaded harnesses so both replay the SAME batch.
std::vector<FlowServiceRequest> batch_members(
    const FuzzOp& op, const FuzzConfig& cfg,
    const std::vector<std::pair<std::string, std::string>>& pairs) {
  const std::size_t k = 2 + static_cast<std::size_t>(op.target % 7);
  std::vector<FlowServiceRequest> reqs;
  reqs.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    const auto& [in, out] =
        pairs[pick(op.pair + static_cast<std::int64_t>(j), pairs.size())];
    const double fan = static_cast<double>(j);
    reqs.push_back(FlowServiceRequest{
        TrafficProfile::make(op.sigma, op.rho + 1000.0 * fan,
                             op.peak + 2000.0 * fan, op.l_max),
        op.d_req, in, out, cfg.allow_preemption ? op.priority : 0});
  }
  return reqs;
}

/// The members of one kBatchAdmit op as the journaled harness runs it:
/// the admits of batch_members, with up to two releases of distinct live
/// flows drawn in (chosen by `target`), so the batch exercises
/// execute_batch's mixed group commit. The first release splits the admits
/// into two runs, the second ends the batch. With no release drawn the
/// batch is admit-only (and runs through request_service_batch).
std::vector<SlabOp> batch_ops(const FuzzOp& op,
                              const std::vector<FlowServiceRequest>& reqs,
                              const std::vector<FlowId>& live,
                              RequestId* next_rid) {
  const std::size_t releases = std::min<std::size_t>(
      live.size(), static_cast<std::size_t>((op.target / 7) % 3));
  const std::size_t split = (reqs.size() + 1) / 2;
  std::vector<SlabOp> ops;
  auto release = [&](std::size_t j) {
    const FlowId flow = live[pick(op.target + static_cast<std::int64_t>(j),
                                  live.size())];
    ops.push_back(SlabOp::release((*next_rid)++, flow));
  };
  for (std::size_t j = 0; j < reqs.size(); ++j) {
    if (j == split && releases > 0) release(0);
    ops.push_back(SlabOp::admit((*next_rid)++, reqs[j]));
  }
  if (releases > 1) release(1);
  return ops;
}

void record_issued(ExecState& st, IssuedCall call) {
  st.issued.push_back(std::move(call));
  // Bounded pool: redelivery draws from the recent past, comfortably inside
  // the broker's dedup window.
  if (st.issued.size() > 64) st.issued.erase(st.issued.begin());
}

/// Recover a broker from `st.journal` and require bit-exact state equality
/// with the live one. On success, `out` (if non-null) receives the
/// recovered broker.
bool recover_and_compare(ExecState& st,
                         std::unique_ptr<DurableBroker>* out,
                         std::string* why) {
  auto recovered = DurableBroker::open(st.spec, st.options, *st.journal);
  if (!recovered.is_ok()) {
    *why = "recovery failed: " + recovered.status().to_string();
    return false;
  }
  const StateDigest live =
      digest_of(st.spec, st.db->broker(), st.db->next_lsn());
  const StateDigest redo = digest_of(st.spec, recovered.value()->broker(),
                                     recovered.value()->next_lsn());
  if (!(live == redo)) {
    std::ostringstream os;
    os.precision(17);
    os << "recovery lost acknowledged state: live (" << live.flows
       << " flows, " << live.macroflows << " macroflows, lsn "
       << live.next_lsn << ") vs recovered (" << redo.flows << " flows, "
       << redo.macroflows << " macroflows, lsn " << redo.next_lsn << ")";
    for (std::size_t i = 0; i < live.links.size(); ++i) {
      if (live.links[i] != redo.links[i]) {
        os << "; link " << st.spec.links[i].from << "->"
           << st.spec.links[i].to << " reserved " << live.links[i].first
           << " vs " << redo.links[i].first;
        break;
      }
    }
    *why = os.str();
    return false;
  }
  const OracleStateReport rep =
      oracle_check_state(recovered.value()->broker(), nullptr);
  if (!rep.ok) {
    *why = "recovered broker fails the state audit: " + rep.to_string();
    return false;
  }
  if (out != nullptr) *out = std::move(recovered.value());
  return true;
}

/// Execute one op differentially. Returns false and fills `why` on
/// divergence.
bool execute_op(ExecState& st, const FuzzOp& op, const FuzzConfig& cfg,
                FuzzResult& stats, std::string* why) {
  BandwidthBroker& bb = st.db->broker();
  std::ostringstream os;
  os.precision(17);
  switch (op.kind) {
    case OpKind::kAdmit: {
      const auto& [in, out] = st.pairs[pick(op.pair, st.pairs.size())];
      FlowServiceRequest req{op_profile(op), op.d_req, in, out,
                             cfg.allow_preemption ? op.priority : 0};
      const OracleDecision od = oracle_decide_request(bb, req);
      const auto before = capture_links(st);
      const RequestId rid = st.next_rid++;
      // The decision the durable broker returns: its front decided it, so
      // the broker's last_outcome() does not describe it.
      const SlabOp admit = SlabOp::admit(rid, req);
      FrontOutcome decided;
      st.db->execute_batch({&admit, 1}, st.now, {&decided, 1});
      const Result<Reservation>& res = decided.result;
      const AdmissionOutcome& fast = decided.outcome;
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kAdmit;
      call.ok = res.is_ok();
      call.req = req;
      call.now = st.now;
      if (res.is_ok()) {
        ++stats.admits;
        call.result_flow = res.value().flow;
        // Evicted victims are already released by the broker — drop them
        // from the live list before they become dangling targets.
        for (FlowId victim : res.value().preempted) {
          std::erase(st.per_flow, victim);
        }
        st.per_flow.push_back(res.value().flow);
        if (res.value().preempted.empty()) {
          // Plain admission: oracle must agree on admit, path, and params.
          if (!od.outcome.admitted) {
            os << "broker admitted (r " << res.value().params.rate << ", d "
               << res.value().params.delay << " on path "
               << res.value().path << "), oracle rejected ("
               << reject_reason_name(od.outcome.reason) << ": "
               << od.outcome.detail << ")";
            *why = os.str();
            return false;
          }
          if (od.path != res.value().path) {
            os << "path choice mismatch: broker " << res.value().path
               << ", oracle " << od.path;
            *why = os.str();
            return false;
          }
          if (!oracle_outcomes_equivalent(fast, od.outcome, why)) {
            return false;
          }
        }
        // Admission via preemption: the oracle (which never preempts) is
        // expected to reject; nothing to compare.
      } else {
        ++stats.rejects;
        if (od.outcome.admitted) {
          os << "broker rejected (" << fast.detail
             << "), oracle admitted (r " << od.outcome.params.rate << ", d "
             << od.outcome.params.delay << " on path " << od.path << ")";
          *why = os.str();
          return false;
        }
        // With preemption enabled a failed eviction attempt leaves
        // last_outcome_ mid-eviction — compare reasons only without it.
        if (!cfg.allow_preemption &&
            !oracle_outcomes_equivalent(fast, od.outcome, why)) {
          return false;
        }
        if (!links_unchanged(st, before, !cfg.allow_preemption, why)) {
          *why = "rejected request " + *why;
          return false;
        }
      }
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kBatchAdmit: {
      const std::vector<FlowServiceRequest> reqs =
          batch_members(op, cfg, st.pairs);
      const std::vector<SlabOp> ops =
          batch_ops(op, reqs, st.per_flow, &st.next_rid);
      const std::vector<std::size_t> order = batch_execution_order(ops);
      // Sequential reference: a clone recovered from the current journal
      // (recovery is bit-exact, so it starts identical to the live broker)
      // executes the members ONE AT A TIME in execute_batch's documented
      // order. Fault-injection configs skip the clone (a sabotaged journal
      // cannot seed it; a poisoned knot cache is not durable state); the
      // batch itself still runs and the per-op state audit covers it.
      const bool cloned =
          !cfg.sabotage_drop_append && !cfg.sabotage_knot_cache;
      FaultyJournalFile clone_journal;
      std::unique_ptr<DurableBroker> clone;
      std::vector<Result<Reservation>> ref(
          ops.size(), Result<Reservation>(Status::rejected("unset")));
      if (cloned) {
        clone_journal.set_contents(st.journal->contents());
        auto c = DurableBroker::open(st.spec, st.options, clone_journal);
        if (!c.is_ok()) {
          *why = "batch reference clone failed to recover: " +
                 c.status().to_string();
          return false;
        }
        clone = std::move(c.value());
        for (const std::size_t j : order) {
          ref[j] = run_member(*clone, ops[j], st.now);
        }
      }
      // An admit-only batch goes through request_service_batch, a mixed
      // one through execute_batch: both must match the reference.
      const bool mixed = ops.size() != reqs.size();
      std::vector<Result<Reservation>> got;
      if (mixed) {
        got = st.db->execute_batch(ops, st.now);
      } else {
        std::vector<RequestId> rids;
        for (const SlabOp& m : ops) rids.push_back(m.rid);
        got = st.db->request_service_batch(rids, reqs, st.now);
      }
      QOSBB_REQUIRE(got.size() == ops.size(), "fuzz: batch result arity");
      for (std::size_t j = 0; cloned && j < ops.size(); ++j) {
        if (got[j].is_ok() != ref[j].is_ok()) {
          os << "batch member " << j << " decision split: batched "
             << (got[j].is_ok() ? "ok" : "failed") << ", one-at-a-time "
             << (ref[j].is_ok() ? "ok" : "failed");
          *why = os.str();
          return false;
        }
        if (got[j].is_ok()) {
          if (!reservations_identical(got[j].value(), ref[j].value(),
                                      "batch member " + std::to_string(j),
                                      "batched", "one-at-a-time", why)) {
            return false;
          }
        } else if (got[j].status().to_string() !=
                   ref[j].status().to_string()) {
          *why = "batch member " + std::to_string(j) +
                 " reject status mismatch: batched '" +
                 got[j].status().to_string() + "' vs one-at-a-time '" +
                 ref[j].status().to_string() + "'";
          return false;
        }
      }
      if (cloned) {
        const StateDigest dl =
            digest_of(st.spec, st.db->broker(), st.db->next_lsn());
        const StateDigest dc =
            digest_of(st.spec, clone->broker(), clone->next_lsn());
        if (!(dl == dc)) {
          os << "batch state split: batched (" << dl.flows << " flows, lsn "
             << dl.next_lsn << ") vs one-at-a-time (" << dc.flows
             << " flows, lsn " << dc.next_lsn << ")";
          *why = os.str();
          return false;
        }
        // The group frame must be byte-identical to the member-at-a-time
        // appends: same records, same consecutive LSNs — the batch only
        // changes how many appends carried them.
        if (clone_journal.contents() != st.journal->contents()) {
          *why = "batch group-commit frame differs from the one-at-a-time "
                 "journal bytes";
          return false;
        }
      }
      // Pool updates in execution order; members re-deliver individually
      // through the ordinary kAdmit / kRelease dedup paths.
      for (const std::size_t j : order) {
        IssuedCall call;
        call.rid = ops[j].rid;
        call.ok = got[j].is_ok();
        call.now = st.now;
        if (!ops[j].is_admit()) {
          // Only an eviction earlier in the batch can take a live flow
          // away before its release runs.
          if (!call.ok && !cfg.allow_preemption) {
            *why = "batch release of live flow failed: " +
                   got[j].status().to_string();
            return false;
          }
          call.kind = OpKind::kRelease;
          call.flow = ops[j].flow;
          if (call.ok) {
            ++stats.releases;
            std::erase(st.per_flow, ops[j].flow);
          }
          record_issued(st, std::move(call));
          continue;
        }
        call.kind = OpKind::kAdmit;
        call.req = *ops[j].request;
        if (got[j].is_ok()) {
          ++stats.admits;
          call.result_flow = got[j].value().flow;
          for (FlowId victim : got[j].value().preempted) {
            std::erase(st.per_flow, victim);
          }
          st.per_flow.push_back(got[j].value().flow);
        } else {
          ++stats.rejects;
        }
        record_issued(st, std::move(call));
      }
      ++stats.batch_admits;
      break;
    }
    case OpKind::kRelease: {
      if (st.per_flow.empty()) break;
      const std::size_t idx = pick(op.target, st.per_flow.size());
      const FlowId id = st.per_flow[idx];
      const RequestId rid = st.next_rid++;
      auto s = st.db->release_service(rid, id);
      if (!s.is_ok()) {
        *why = "release of live flow failed: " + s.to_string();
        return false;
      }
      st.per_flow[idx] = st.per_flow.back();
      st.per_flow.pop_back();
      ++stats.releases;
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kRelease;
      call.ok = true;
      call.flow = id;
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kRenegotiate: {
      if (st.per_flow.empty()) break;
      const FlowId id = st.per_flow[pick(op.target, st.per_flow.size())];
      auto rec = bb.flows().get(id);
      QOSBB_REQUIRE(rec.is_ok(), "fuzz: live flow missing from MIB");
      // The oracle evaluates the flow's path WITHOUT its own footprint —
      // exactly what renegotiate_service tests after its withdraw step.
      OracleExclusion ex;
      ex.active = true;
      ex.params = rec.value().reservation;
      ex.l_max = rec.value().profile.l_max;
      const AdmissionOutcome oracle = oracle_admit_per_flow(
          bb.paths(), bb.nodes(), rec.value().path, rec.value().profile,
          op.d_req, ex);
      const RequestId rid = st.next_rid++;
      const FrontOutcome decided =
          st.db->renegotiate_service(rid, id, op.d_req, st.now);
      const Result<Reservation>& res = decided.result;
      const AdmissionOutcome& fast = decided.outcome;
      if (res.is_ok() != oracle.admitted) {
        os << "renegotiation divergence for flow " << id << " to d_req "
           << op.d_req << ": broker "
           << (res.is_ok() ? "admitted" : "rejected") << " ("
           << reject_reason_name(fast.reason) << "), oracle "
           << (oracle.admitted ? "admitted" : "rejected") << " ("
           << reject_reason_name(oracle.reason) << ")";
        *why = os.str();
        return false;
      }
      if (!oracle_outcomes_equivalent(fast, oracle, why)) return false;
      ++stats.renegotiations;
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kRenegotiate;
      call.ok = res.is_ok();
      call.flow = id;
      call.d_req = op.d_req;
      call.now = st.now;
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kClassJoin: {
      const auto& [in, out] = st.pairs[pick(op.pair, st.pairs.size())];
      const ClassId cls = st.classes[pick(op.target, st.classes.size())];
      const RequestId rid = st.next_rid++;
      auto j = st.db->request_class_service(rid, cls, op_profile(op), in,
                                            out, st.now, 0.0);
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kClassJoin;
      call.ok = j.admitted;
      call.result_flow = j.microflow;
      call.cls = cls;
      call.profile = op_profile(op);
      call.ingress = in;
      call.egress = out;
      call.now = st.now;
      if (j.admitted) {
        ++stats.joins;
        st.micro.push_back(j.microflow);
        if (j.grant != kInvalidGrantId) {
          // Checkpointing mid-grant must be refused with the typed
          // transient error — never silently drop the contingency.
          const Status guard = st.db->checkpoint();
          if (guard.code() != StatusCode::kUnavailable) {
            *why = "checkpoint during a live contingency grant was not "
                   "refused with UNAVAILABLE: " +
                   guard.to_string();
            return false;
          }
          // Settle the grant immediately: keeps the broker quiescent so
          // every op may checkpoint, and the settled allocation is what
          // the oracle's rebooking reconstruction expects.
          const Status settled =
              st.db->expire_contingency(j.grant, j.contingency_expires_at);
          if (!settled.is_ok()) {
            *why = "settling issued grant failed: " + settled.to_string();
            return false;
          }
        }
      }
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kClassLeave: {
      if (st.micro.empty()) break;
      const std::size_t idx = pick(op.target, st.micro.size());
      const FlowId id = st.micro[idx];
      const RequestId rid = st.next_rid++;
      auto l = st.db->leave_class_service(rid, id, st.now, 0.0);
      if (!l.is_ok()) {
        *why = "leave of live microflow failed: " + l.status().to_string();
        return false;
      }
      if (l.value().grant != kInvalidGrantId) {
        const Status settled = st.db->expire_contingency(
            l.value().grant, l.value().contingency_expires_at);
        if (!settled.is_ok()) {
          *why = "settling leave grant failed: " + settled.to_string();
          return false;
        }
      }
      st.micro[idx] = st.micro.back();
      st.micro.pop_back();
      ++stats.leaves;
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kClassLeave;
      call.ok = true;
      call.flow = id;
      call.now = st.now;
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kLinkReserve: {
      const auto& l = st.spec.links[pick(op.target, st.spec.links.size())];
      const std::string name = l.from + "->" + l.to;
      const RequestId rid = st.next_rid++;
      const Status s = st.db->reserve_link_external(rid, name, op.amount);
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kLinkReserve;
      call.ok = s.is_ok();
      call.link = name;
      call.amount = op.amount;
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kLinkRelease: {
      const auto& l = st.spec.links[pick(op.target, st.spec.links.size())];
      const std::string name = l.from + "->" + l.to;
      const RequestId rid = st.next_rid++;
      auto r = st.db->release_link_external(rid, name, op.amount);
      IssuedCall call;
      call.rid = rid;
      call.kind = OpKind::kLinkRelease;
      call.ok = r.is_ok();
      call.link = name;
      call.amount = op.amount;
      record_issued(st, std::move(call));
      break;
    }
    case OpKind::kSnapshotRestore: {
      // An anchor replaces the journal wholesale, which would heal the
      // injected append hole the sabotage canary must catch — skip.
      if (cfg.sabotage_drop_append) break;
      if (bb.classes().active_grants() != 0) {
        const Status s = st.db->checkpoint();
        if (s.code() != StatusCode::kUnavailable) {
          *why = "checkpoint during a live contingency grant was not "
                 "refused with UNAVAILABLE: " +
                 s.to_string();
          return false;
        }
        break;
      }
      const Status s = st.db->checkpoint();
      if (!s.is_ok()) {
        *why = "checkpoint failed: " + s.to_string();
        return false;
      }
      ++stats.snapshots;
      break;
    }
    case OpKind::kCrashRecover: {
      // The knot-cache canary deliberately poisons non-durable cache state;
      // recovery would legitimately differ from the sabotaged live broker.
      if (cfg.sabotage_knot_cache) break;
      const WireBuffer image = st.journal->contents();
      const int variant = static_cast<int>(op.target % 3);
      if (variant == 2 && !image.empty()) {
        // Corruption: recovery from a single flipped bit must refuse with
        // kDataLoss, never rebuild a subtly different state.
        FaultyJournalFile scratch;
        scratch.set_contents(image);
        scratch.flip_bit(static_cast<std::size_t>(
            (op.target / 3) %
            static_cast<std::int64_t>(image.size() * 8)));
        auto r = DurableBroker::open(st.spec, st.options, scratch);
        if (r.is_ok()) {
          *why = "bit-flipped journal recovered silently";
          return false;
        }
        if (r.status().code() != StatusCode::kDataLoss) {
          *why = "bit flip misclassified: " + r.status().to_string();
          return false;
        }
      } else if (variant == 1 && !image.empty()) {
        // Torn final append: the crash hit mid-write. The partial record
        // was never acknowledged; recovery must drop it cleanly.
        WireWriter dummy;
        dummy.u64(0);
        WireBuffer torn = frame_journal_record(
            st.db->next_lsn(), JournalOpKind::kRelease, dummy.take());
        const std::size_t cut =
            1 + static_cast<std::size_t>(
                    (op.target / 3) %
                    static_cast<std::int64_t>(torn.size() - 1));
        WireBuffer with_torn = image;
        with_torn.insert(with_torn.end(), torn.begin(),
                         torn.begin() + static_cast<long>(cut));
        st.journal->set_contents(std::move(with_torn));
      }
      // The crash proper: reopen from the journal. Every acknowledged op
      // must survive bit-for-bit; then continue on the recovered broker.
      std::unique_ptr<DurableBroker> recovered;
      if (!recover_and_compare(st, &recovered, why)) return false;
      st.db = std::move(recovered);
      ++stats.recoveries;
      break;
    }
    case OpKind::kRedeliver: {
      if (st.issued.empty()) break;
      const IssuedCall call = st.issued[pick(op.target, st.issued.size())];
      if (!st.db->remembers(call.rid)) {
        *why = "redelivery: decision for an acked request fell out of the "
               "dedup window";
        return false;
      }
      // An at-least-once client retries after a jittered exponential
      // delay; model the wait so redeliveries land at realistic times.
      Backoff backoff(BackoffPolicy{},
                      Rng(cfg.seed ^ (static_cast<std::uint64_t>(op.target) *
                                      0x9E3779B97F4A7C15ULL)));
      st.now += backoff.next();
      const auto before = capture_links(st);
      const std::uint64_t lsn_before = st.db->next_lsn();
      const std::uint64_t hits_before = st.db->stats().dedup_hits;
      const std::size_t flows_before = bb.flows().count();
      const std::size_t macros_before = bb.classes().macroflow_count();
      bool ok2 = false;
      FlowId rf = kInvalidFlowId;
      switch (call.kind) {
        case OpKind::kAdmit: {
          auto r2 = st.db->request_service(call.rid, call.req, call.now);
          ok2 = r2.is_ok();
          if (ok2) rf = r2.value().flow;
          break;
        }
        case OpKind::kRelease:
          ok2 = st.db->release_service(call.rid, call.flow).is_ok();
          break;
        case OpKind::kRenegotiate: {
          const FrontOutcome r2 = st.db->renegotiate_service(
              call.rid, call.flow, call.d_req, call.now);
          ok2 = r2.result.is_ok();
          break;
        }
        case OpKind::kClassJoin: {
          auto j2 = st.db->request_class_service(
              call.rid, call.cls, call.profile, call.ingress, call.egress,
              call.now, 0.0);
          ok2 = j2.admitted;
          rf = j2.microflow;
          break;
        }
        case OpKind::kClassLeave:
          ok2 = st.db->leave_class_service(call.rid, call.flow, call.now, 0.0)
                    .is_ok();
          break;
        case OpKind::kLinkReserve:
          ok2 = st.db->reserve_link_external(call.rid, call.link,
                                             call.amount)
                    .is_ok();
          break;
        case OpKind::kLinkRelease:
          ok2 = st.db->release_link_external(call.rid, call.link,
                                             call.amount)
                    .is_ok();
          break;
        default:
          break;
      }
      if (st.db->stats().dedup_hits != hits_before + 1) {
        *why = "redelivery executed instead of replaying the recorded "
               "decision";
        return false;
      }
      if (st.db->next_lsn() != lsn_before) {
        *why = "redelivery appended a journal record";
        return false;
      }
      if (ok2 != call.ok) {
        os << "redelivery decision flipped: original "
           << (call.ok ? "ok" : "rejected") << ", duplicate "
           << (ok2 ? "ok" : "rejected") << " ("
           << op_kind_name(call.kind) << " rid " << call.rid << ")";
        *why = os.str();
        return false;
      }
      if (call.ok &&
          (call.kind == OpKind::kAdmit || call.kind == OpKind::kClassJoin) &&
          rf != call.result_flow) {
        os << "redelivery handed out a different flow id: " << rf << " vs "
           << call.result_flow;
        *why = os.str();
        return false;
      }
      if (!links_unchanged(st, before, /*exact=*/true, why)) {
        *why = "redelivery " + *why;
        return false;
      }
      if (bb.flows().count() != flows_before ||
          bb.classes().macroflow_count() != macros_before) {
        *why = "redelivery changed the flow population";
        return false;
      }
      ++stats.redeliveries;
      break;
    }
  }
  return true;
}

}  // namespace

const char* op_kind_name(OpKind k) {
  switch (k) {
    case OpKind::kAdmit:
      return "admit";
    case OpKind::kRelease:
      return "release";
    case OpKind::kRenegotiate:
      return "renegotiate";
    case OpKind::kClassJoin:
      return "class-join";
    case OpKind::kClassLeave:
      return "class-leave";
    case OpKind::kLinkReserve:
      return "link-reserve";
    case OpKind::kLinkRelease:
      return "link-release";
    case OpKind::kSnapshotRestore:
      return "snapshot-restore";
    case OpKind::kCrashRecover:
      return "crash-recover";
    case OpKind::kRedeliver:
      return "redeliver";
    case OpKind::kBatchAdmit:
      return "batch-admit";
  }
  return "?";
}

const char* fuzz_topology_name(FuzzTopology t) {
  switch (t) {
    case FuzzTopology::kFig8Mixed:
      return "fig8-mixed";
    case FuzzTopology::kFig8RateOnly:
      return "fig8-rate-only";
    case FuzzTopology::kDumbbellEdf:
      return "dumbbell-edf";
  }
  return "?";
}

std::string FuzzOp::to_line() const {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "%d %.17g %.17g %.17g %.17g %.17g %d %d %lld %.17g",
                static_cast<int>(kind), sigma, rho, peak, l_max, d_req,
                priority, pair, static_cast<long long>(target), amount);
  return buf;
}

std::optional<FuzzOp> FuzzOp::from_line(const std::string& line) {
  FuzzOp op;
  int kind_int = 0;
  long long target_ll = 0;
  std::istringstream is(line);
  if (!(is >> kind_int >> op.sigma >> op.rho >> op.peak >> op.l_max >>
        op.d_req >> op.priority >> op.pair >> target_ll >> op.amount)) {
    return std::nullopt;
  }
  if (kind_int < 0 || kind_int > static_cast<int>(OpKind::kBatchAdmit)) {
    return std::nullopt;
  }
  op.kind = static_cast<OpKind>(kind_int);
  op.target = target_ll;
  return op;
}

std::string FuzzResult::summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "DIVERGED") << ": " << ops_executed << " ops ("
     << admits << " admits, " << rejects << " rejects, " << releases
     << " releases, " << renegotiations << " renegotiations, " << joins
     << " joins, " << leaves << " leaves, " << snapshots << " snapshots, "
     << recoveries << " recoveries, " << redeliveries << " redeliveries, "
     << batch_admits << " batches";
  if (prefilter_checked > 0) {
    os << ", " << prefilter_checked << " pre-filter checks";
  }
  os << ")";
  if (!ok) os << "\n  op " << divergence_op << ": " << divergence;
  return os.str();
}

FuzzResult replay(const FuzzConfig& cfg, const std::vector<FuzzOp>& ops) {
  FuzzResult result;
  result.ops = ops;
  ExecState st = make_state(cfg);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    st.now += 1.0;
    if (cfg.sabotage_knot_cache) {
      // Warm every knot cache so the only pending invalidation is the one
      // this op is about to cause...
      for_each_delay_link(st,
                          [](LinkQosState& l) { (void)l.knot_prefixes(); });
    }
    std::string why;
    bool ok = execute_op(st, ops[i], cfg, result, &why);
    if (ok) {
      if (cfg.sabotage_knot_cache) {
        // ...then drop the dirty flag without rebuilding — a simulated
        // missed invalidation the state audit below must catch.
        for_each_delay_link(
            st, [](LinkQosState& l) { l.testonly_mark_knots_clean(); });
      }
      const OracleStateReport rep =
          oracle_check_state(st.db->broker(), nullptr);
      if (!rep.ok) {
        ok = false;
        why = "after " + std::string(op_kind_name(ops[i].kind)) + ": " +
              rep.to_string();
      }
    }
    ++result.ops_executed;
    if (!ok) {
      result.ok = false;
      result.divergence_op = static_cast<int>(i);
      result.divergence = why;
      return result;
    }
  }
  // End-of-run crash: everything acknowledged must survive a recovery at
  // the very end. Under sabotage_drop_append this is where the injected
  // append hole is guaranteed to surface (LSN gap or lost acked op) even
  // if no kCrashRecover op ran after the drop.
  if (!cfg.sabotage_knot_cache && !ops.empty()) {
    std::string why;
    if (!recover_and_compare(st, nullptr, &why)) {
      result.ok = false;
      result.divergence_op = result.ops_executed - 1;
      result.divergence = "end-of-run recovery: " + why;
    }
  }
  return result;
}

namespace {

std::vector<FuzzOp> generate_ops(const FuzzConfig& cfg) {
  Rng rng(cfg.seed * 6364136223846793005ULL + 1442695040888963407ULL);
  std::vector<FuzzOp> ops;
  ops.reserve(static_cast<std::size_t>(cfg.ops));
  for (int i = 0; i < cfg.ops; ++i) {
    FuzzOp op;
    const std::int64_t roll = rng.uniform_int(1, 100);
    if (roll <= 30) {
      // The upper slice of the admission pressure arrives as a BATCH: the
      // grouped submit_batch / request_service_batch paths must be
      // indistinguishable from one-at-a-time admits. --batch widens it.
      const std::int64_t batch_cut = cfg.batch_heavy ? 7 : 25;
      op.kind = roll >= batch_cut ? OpKind::kBatchAdmit : OpKind::kAdmit;
    } else if (roll <= 44) {
      op.kind = OpKind::kRelease;
    } else if (roll <= 54) {
      op.kind = OpKind::kRenegotiate;
    } else if (roll <= 68) {
      op.kind = OpKind::kClassJoin;
    } else if (roll <= 77) {
      op.kind = OpKind::kClassLeave;
    } else if (roll <= 85) {
      op.kind = OpKind::kLinkReserve;
    } else if (roll <= 92) {
      op.kind = OpKind::kLinkRelease;
    } else if (roll <= 95) {
      op.kind = OpKind::kSnapshotRestore;
    } else if (roll <= 98) {
      op.kind = OpKind::kCrashRecover;
    } else {
      op.kind = OpKind::kRedeliver;
    }
    // Traffic shape (valid by construction: σ >= L > 0, P >= ρ > 0).
    op.l_max = rng.uniform(3000.0, 12000.0);
    op.rho = rng.uniform(20000.0, 60000.0);
    op.peak = op.rho * rng.uniform(1.2, 4.0);
    op.sigma = op.l_max + rng.uniform(10000.0, 60000.0);
    // Mostly admissible delay requirements, some tight ones for the reject
    // paths (kNoFeasibleRate / kEdfUnschedulable).
    op.d_req = rng.bernoulli(0.8) ? rng.uniform(1.6, 4.0)
                                  : rng.uniform(0.3, 1.2);
    op.priority = static_cast<int>(rng.uniform_int(0, 3));
    op.pair = static_cast<int>(rng.uniform_int(0, 7));
    op.target = rng.uniform_int(0, (std::int64_t{1} << 30) - 1);
    op.amount = rng.uniform(20000.0, 200000.0);
    ops.push_back(op);
  }
  return ops;
}

}  // namespace

FuzzResult run_fuzz(const FuzzConfig& cfg) {
  return replay(cfg, generate_ops(cfg));
}

namespace {

/// Run `fn` on a new OS thread and join it: op i of the threaded replay
/// never runs on op i-1's thread, so the front's thread-local scratch
/// crosses threads, and at most one op thread is alive at a time. An
/// exception `fn` throws is rethrown here.
template <typename F>
auto on_own_thread(F&& fn) -> std::invoke_result_t<F&> {
  std::optional<std::invoke_result_t<F&>> out;
  std::exception_ptr error;
  std::thread t([&] {
    try {
      out.emplace(fn());
    } catch (...) {
      error = std::current_exception();
    }
  });
  t.join();
  if (error) std::rethrow_exception(error);
  return std::move(*out);
}

/// Bit-exact AdmissionOutcome comparison for the threaded differential.
/// The front's snapshot-based test and the monolith's live test share the
/// templated admission core, so every field — including the Figure-4 scan
/// count and the detail string — must match exactly.
bool outcomes_identical(const AdmissionOutcome& mono,
                        const AdmissionOutcome& front, std::string* why) {
  if (mono.admitted == front.admitted && mono.reason == front.reason &&
      mono.params.rate == front.params.rate &&
      mono.params.delay == front.params.delay &&
      mono.e2e_bound == front.e2e_bound &&
      mono.intervals_scanned == front.intervals_scanned &&
      mono.detail == front.detail) {
    return true;
  }
  std::ostringstream os;
  os.precision(17);
  os << "outcome mismatch: monolith (admitted " << mono.admitted << ", "
     << reject_reason_name(mono.reason) << ", r " << mono.params.rate
     << ", d " << mono.params.delay << ", bound " << mono.e2e_bound
     << ", scans " << mono.intervals_scanned << ", '" << mono.detail
     << "') vs front (admitted " << front.admitted << ", "
     << reject_reason_name(front.reason) << ", r " << front.params.rate
     << ", d " << front.params.delay << ", bound " << front.e2e_bound
     << ", scans " << front.intervals_scanned << ", '" << front.detail
     << "')";
  *why = os.str();
  return false;
}

/// The two audit logs hold the same entries, field for field — among them
/// each decision's path headroom, which the front takes from its evolved
/// group snapshot and the monolith from the live links.
bool audit_logs_identical(const AuditLog& mono, const AuditLog& front,
                          std::string* why) {
  std::ostringstream os;
  os.precision(17);
  if (mono.total_recorded() != front.total_recorded() ||
      mono.size() != front.size()) {
    os << "audit split: monolith recorded " << mono.total_recorded()
       << ", front " << front.total_recorded();
    *why = os.str();
    return false;
  }
  for (std::size_t k = 0; k < mono.size(); ++k) {
    const AuditEntry& a = mono.entries()[k];
    const AuditEntry& b = front.entries()[k];
    if (a.time != b.time || a.kind != b.kind || a.admitted != b.admitted ||
        a.reason != b.reason || a.flow != b.flow || a.path != b.path ||
        a.ingress != b.ingress || a.egress != b.egress ||
        a.requested_rho != b.requested_rho ||
        a.requested_delay != b.requested_delay ||
        a.granted_rate != b.granted_rate ||
        a.granted_delay != b.granted_delay ||
        a.path_residual != b.path_residual || a.detail != b.detail) {
      os << "audit entry " << k << " differs: monolith (flow " << a.flow
         << ", admitted " << a.admitted << ", residual " << a.path_residual
         << ", '" << a.detail << "') vs front (flow " << b.flow
         << ", admitted " << b.admitted << ", residual " << b.path_residual
         << ", '" << b.detail << "')";
      *why = os.str();
      return false;
    }
  }
  return true;
}

}  // namespace

FuzzResult run_fuzz_threaded(const FuzzConfig& cfg) {
  FuzzResult result;
  const std::vector<FuzzOp> ops = generate_ops(cfg);
  result.ops = ops;

  DomainSpec spec;
  std::vector<std::pair<std::string, std::string>> pairs;
  BrokerOptions options;
  fuzz_domain(cfg, &spec, &pairs, &options);

  // The reference: the plain sequential broker, driven directly. The
  // subject: an identical broker behind the concurrent front, every per-flow
  // op run on its own thread and joined before the next op — so the
  // interleaving is sequential but the code path is the concurrent one:
  // snapshot, lock-free test, OCC commit.
  BandwidthBroker mono(spec, options);
  BandwidthBroker subject(spec, options);

  for (const auto& [in, out] : pairs) {
    QOSBB_REQUIRE(mono.provision_path(in, out).is_ok(),
                  "fuzz-threaded: provisioning failed");
  }
  std::vector<ClassId> classes;
  classes.push_back(mono.define_class(2.19, 0.10, "gold"));
  classes.push_back(mono.define_class(3.0, 0.15, "silver"));

  ConcurrentBrokerFront front(subject);
  front.exclusive([&](BandwidthBroker& b) {
    for (const auto& [in, out] : pairs) {
      QOSBB_REQUIRE(b.provision_path(in, out).is_ok(),
                    "fuzz-threaded: provisioning failed");
    }
    QOSBB_REQUIRE(b.define_class(2.19, 0.10, "gold") == classes[0] &&
                      b.define_class(3.0, 0.15, "silver") == classes[1],
                  "fuzz-threaded: class id sequences differ");
  });

  std::vector<FlowId> per_flow;
  std::vector<FlowId> micro;
  Seconds now = 0.0;

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FuzzOp& op = ops[i];
    now += 1.0;
    std::string why;
    std::ostringstream os;
    os.precision(17);
    switch (op.kind) {
      case OpKind::kAdmit: {
        const auto& [in, out] = pairs[pick(op.pair, pairs.size())];
        FlowServiceRequest req{op_profile(op), op.d_req, in, out,
                               cfg.allow_preemption ? op.priority : 0};
        auto rm = mono.request_service(req, now);
        const AdmissionOutcome mo = mono.last_outcome();
        FrontOutcome fo =
            on_own_thread([&] { return front.request_service(req, now); });
        if (rm.is_ok() != fo.result.is_ok()) {
          os << "admit decision split: monolith "
             << (rm.is_ok() ? "admitted" : "rejected") << ", front "
             << (fo.result.is_ok() ? "admitted" : "rejected");
          why = os.str();
          break;
        }
        if (!outcomes_identical(mo, fo.outcome, &why)) break;
        if (rm.is_ok()) {
          const Reservation& a = rm.value();
          if (!reservations_identical(a, fo.result.value(), "admit",
                                      "monolith", "front", &why)) {
            break;
          }
          for (FlowId victim : a.preempted) std::erase(per_flow, victim);
          per_flow.push_back(a.flow);
          ++result.admits;
        } else {
          if (rm.status().to_string() != fo.result.status().to_string()) {
            why = "reject status mismatch: monolith '" +
                  rm.status().to_string() + "' vs front '" +
                  fo.result.status().to_string() + "'";
            break;
          }
          ++result.rejects;
        }
        break;
      }
      case OpKind::kBatchAdmit: {
        const std::vector<FlowServiceRequest> reqs =
            batch_members(op, cfg, pairs);
        // Monolith reference: the members one at a time in grouped order —
        // the batch call's defined equivalence.
        const std::vector<std::size_t> order = batch_grouped_order(reqs);
        std::vector<Result<Reservation>> rm(
            reqs.size(), Result<Reservation>(Status::rejected("unset")));
        std::vector<AdmissionOutcome> mo(reqs.size());
        for (const std::size_t j : order) {
          rm[j] = mono.request_service(reqs[j], now);
          mo[j] = mono.last_outcome();
        }
        const std::vector<FrontOutcome> fo =
            on_own_thread([&] { return front.submit_batch(reqs, now); });
        QOSBB_REQUIRE(fo.size() == reqs.size(),
                      "fuzz-threaded: batch result arity");
        for (std::size_t j = 0; j < reqs.size() && why.empty(); ++j) {
          if (rm[j].is_ok() != fo[j].result.is_ok()) {
            os << "batch member " << j << " decision split: monolith "
               << (rm[j].is_ok() ? "admitted" : "rejected") << ", front "
               << (fo[j].result.is_ok() ? "admitted" : "rejected");
            why = os.str();
            break;
          }
          if (!outcomes_identical(mo[j], fo[j].outcome, &why)) {
            why = "batch member " + std::to_string(j) + ": " + why;
            break;
          }
          if (rm[j].is_ok()) {
            if (!reservations_identical(rm[j].value(), fo[j].result.value(),
                                        "batch member " + std::to_string(j),
                                        "monolith", "front", &why)) {
              break;
            }
          } else if (rm[j].status().to_string() !=
                     fo[j].result.status().to_string()) {
            why = "batch member " + std::to_string(j) +
                  " reject status mismatch: monolith '" +
                  rm[j].status().to_string() + "' vs front '" +
                  fo[j].result.status().to_string() + "'";
            break;
          }
        }
        if (!why.empty()) break;
        for (const std::size_t j : order) {
          if (rm[j].is_ok()) {
            for (FlowId victim : rm[j].value().preempted) {
              std::erase(per_flow, victim);
            }
            per_flow.push_back(rm[j].value().flow);
            ++result.admits;
          } else {
            ++result.rejects;
          }
        }
        ++result.batch_admits;
        break;
      }
      case OpKind::kRelease: {
        if (per_flow.empty()) break;
        const std::size_t idx = pick(op.target, per_flow.size());
        const FlowId id = per_flow[idx];
        const Status a = mono.release_service(id);
        const Status b =
            on_own_thread([&] { return front.release_service(id); });
        if (a.to_string() != b.to_string()) {
          why = "release status mismatch: monolith '" + a.to_string() +
                "' vs front '" + b.to_string() + "'";
          break;
        }
        if (!a.is_ok()) {
          why = "release of live flow failed: " + a.to_string();
          break;
        }
        per_flow[idx] = per_flow.back();
        per_flow.pop_back();
        ++result.releases;
        break;
      }
      case OpKind::kRenegotiate: {
        if (per_flow.empty()) break;
        const FlowId id = per_flow[pick(op.target, per_flow.size())];
        auto rm = mono.renegotiate_service(id, op.d_req, now);
        const AdmissionOutcome mo = mono.last_outcome();
        FrontOutcome fo = on_own_thread(
            [&] { return front.renegotiate_service(id, op.d_req, now); });
        if (rm.is_ok() != fo.result.is_ok()) {
          os << "renegotiation split for flow " << id << ": monolith "
             << (rm.is_ok() ? "admitted" : "rejected") << ", front "
             << (fo.result.is_ok() ? "admitted" : "rejected");
          why = os.str();
          break;
        }
        if (!outcomes_identical(mo, fo.outcome, &why)) break;
        if (rm.is_ok()) {
          if (!reservations_identical(
                  rm.value(), fo.result.value(),
                  "renegotiation of flow " + std::to_string(id), "monolith",
                  "front", &why)) {
            break;
          }
        } else if (rm.status().to_string() !=
                   fo.result.status().to_string()) {
          why = "renegotiation status mismatch: monolith '" +
                rm.status().to_string() + "' vs front '" +
                fo.result.status().to_string() + "'";
          break;
        }
        ++result.renegotiations;
        break;
      }
      case OpKind::kClassJoin: {
        const auto& [in, out] = pairs[pick(op.pair, pairs.size())];
        const ClassId cls = classes[pick(op.target, classes.size())];
        const TrafficProfile prof = op_profile(op);
        JoinResult ja =
            mono.request_class_service(cls, prof, in, out, now, std::nullopt);
        JoinResult jb = front.exclusive([&](BandwidthBroker& b) {
          return b.request_class_service(cls, prof, in, out, now,
                                         std::nullopt);
        });
        if (ja.admitted != jb.admitted || ja.reason != jb.reason ||
            ja.microflow != jb.microflow || ja.macroflow != jb.macroflow ||
            ja.new_macroflow != jb.new_macroflow ||
            ja.base_rate != jb.base_rate ||
            ja.contingency != jb.contingency || ja.grant != jb.grant ||
            ja.e2e_bound != jb.e2e_bound || ja.detail != jb.detail) {
          os << "class-join mismatch: monolith (admitted " << ja.admitted
             << ", micro " << ja.microflow << ", base " << ja.base_rate
             << ") vs front (admitted " << jb.admitted << ", micro "
             << jb.microflow << ", base " << jb.base_rate << ")";
          why = os.str();
          break;
        }
        if (ja.admitted) {
          micro.push_back(ja.microflow);
          ++result.joins;
          if (ja.grant != kInvalidGrantId) {
            // Settle the grant on both sides (as the sequential harness
            // does) so every later op may checkpoint.
            mono.expire_contingency(ja.grant, ja.contingency_expires_at);
            front.exclusive([&](BandwidthBroker& b) {
              b.expire_contingency(jb.grant, jb.contingency_expires_at);
            });
          }
        }
        break;
      }
      case OpKind::kClassLeave: {
        if (micro.empty()) break;
        const std::size_t idx = pick(op.target, micro.size());
        const FlowId id = micro[idx];
        auto la = mono.leave_class_service(id, now, std::nullopt);
        auto lb = front.exclusive([&](BandwidthBroker& b) {
          return b.leave_class_service(id, now, std::nullopt);
        });
        if (la.is_ok() != lb.is_ok()) {
          why = "class-leave decision split";
          break;
        }
        if (!la.is_ok()) {
          why = "leave of live microflow failed: " + la.status().to_string();
          break;
        }
        if (la.value().macroflow != lb.value().macroflow ||
            la.value().base_rate != lb.value().base_rate ||
            la.value().contingency != lb.value().contingency ||
            la.value().grant != lb.value().grant ||
            la.value().macroflow_removed != lb.value().macroflow_removed) {
          os << "class-leave mismatch for microflow " << id;
          why = os.str();
          break;
        }
        if (la.value().grant != kInvalidGrantId) {
          mono.expire_contingency(la.value().grant,
                                  la.value().contingency_expires_at);
          front.exclusive([&](BandwidthBroker& b) {
            b.expire_contingency(lb.value().grant,
                                 lb.value().contingency_expires_at);
          });
        }
        micro[idx] = micro.back();
        micro.pop_back();
        ++result.leaves;
        break;
      }
      case OpKind::kLinkReserve: {
        const auto& l = spec.links[pick(op.target, spec.links.size())];
        const std::string name = l.from + "->" + l.to;
        const Status a = mono.reserve_link_external(name, op.amount);
        const Status b = front.exclusive([&](BandwidthBroker& bb) {
          return bb.reserve_link_external(name, op.amount);
        });
        if (a.to_string() != b.to_string()) {
          why = "link-reserve status mismatch on " + name + ": monolith '" +
                a.to_string() + "' vs front '" + b.to_string() + "'";
        }
        break;
      }
      case OpKind::kLinkRelease: {
        const auto& l = spec.links[pick(op.target, spec.links.size())];
        const std::string name = l.from + "->" + l.to;
        auto a = mono.release_link_external(name, op.amount);
        auto b = front.exclusive([&](BandwidthBroker& bb) {
          return bb.release_link_external(name, op.amount);
        });
        if (a.is_ok() != b.is_ok() ||
            (a.is_ok() && a.value() != b.value())) {
          os << "link-release mismatch on " << name;
          why = os.str();
        }
        break;
      }
      case OpKind::kSnapshotRestore: {
        auto sa = mono.snapshot();
        auto sb =
            front.exclusive([](BandwidthBroker& b) { return b.snapshot(); });
        if (sa.is_ok() != sb.is_ok()) {
          why = "snapshot availability split";
          break;
        }
        if (sa.is_ok()) {
          if (sa.value() != sb.value()) {
            why = "snapshot frames differ byte-for-byte";
            break;
          }
          ++result.snapshots;
        } else if (sa.status().code() != StatusCode::kUnavailable ||
                   sb.status().code() != StatusCode::kUnavailable) {
          why = "snapshot refused with the wrong code: monolith '" +
                sa.status().to_string() + "', front '" +
                sb.status().to_string() + "'";
        }
        break;
      }
      case OpKind::kCrashRecover:
      case OpKind::kRedeliver:
        // Journal-layer ops: the threaded differential drives plain
        // brokers (run_fuzz / run_crash_sweep own durability).
        break;
    }
    if (why.empty()) {
      // Whole-MIB equality after every op: per-link floats bit-for-bit plus
      // the flow populations (next_lsn is not meaningful here).
      const StateDigest dm = digest_of(spec, mono, 0);
      const StateDigest ds = digest_of(spec, subject, 0);
      if (!(dm == ds)) {
        os << "state split after " << op_kind_name(op.kind) << " (monolith "
           << dm.flows << " flows, " << dm.macroflows
           << " macroflows; front " << ds.flows << " flows, "
           << ds.macroflows << " macroflows)";
        for (std::size_t k = 0; k < dm.links.size(); ++k) {
          if (dm.links[k] != ds.links[k]) {
            os << "; link " << spec.links[k].from << "->" << spec.links[k].to
               << " reserved " << dm.links[k].first << " vs "
               << ds.links[k].first << ", buffer " << dm.links[k].second
               << " vs " << ds.links[k].second;
            break;
          }
        }
        why = os.str();
      } else if (mono.stats().requests != subject.stats().requests ||
                 mono.stats().admitted != subject.stats().admitted ||
                 mono.stats().total_rejected() !=
                     subject.stats().total_rejected()) {
        os << "stats split after " << op_kind_name(op.kind) << ": monolith "
           << mono.stats().requests.load() << "/"
           << mono.stats().admitted.load() << "/"
           << mono.stats().total_rejected() << " vs front "
           << subject.stats().requests.load() << "/"
           << subject.stats().admitted.load() << "/"
           << subject.stats().total_rejected();
        why = os.str();
      } else {
        audit_logs_identical(mono.audit(), subject.audit(), &why);
      }
    }
    ++result.ops_executed;
    if (!why.empty()) {
      result.ok = false;
      result.divergence_op = static_cast<int>(i);
      result.divergence = why;
      return result;
    }
  }

  // The utilization pre-filter is a VERIFIED hint: in this barrier-
  // sequentialized schedule every prediction ran against a quiescent
  // broker, so a single disagreement with the full admission test is a bug
  // in the pre-filter's conservative bounds.
  const auto pf = front.prefilter_stats();
  result.prefilter_checked = pf.checked;
  if (pf.agreed != pf.checked) {
    result.ok = false;
    result.divergence_op = static_cast<int>(ops.size()) - 1;
    std::ostringstream pfs;
    pfs << "pre-filter disagreed with the full admission test: " << pf.agreed
        << " of " << pf.checked << " predictions agreed";
    result.divergence = pfs.str();
    return result;
  }

  // Final deep audit: the front-driven broker's MIB state must satisfy the
  // from-scratch oracle rebooking, not just mirror the monolith's floats.
  const OracleStateReport rep = oracle_check_state(subject, nullptr);
  if (!rep.ok) {
    result.ok = false;
    result.divergence_op = static_cast<int>(ops.size()) - 1;
    result.divergence = "front state audit: " + rep.to_string();
  }
  return result;
}

std::vector<FuzzOp> minimize(const FuzzConfig& cfg,
                             const std::vector<FuzzOp>& ops) {
  FuzzResult base = replay(cfg, ops);
  if (base.ok) return ops;  // nothing to minimize
  std::vector<FuzzOp> cur(ops.begin(),
                          ops.begin() + base.divergence_op + 1);
  for (std::size_t chunk = cur.size() / 2; chunk >= 1; chunk /= 2) {
    std::size_t start = 0;
    while (start < cur.size() && cur.size() > 1) {
      const std::size_t len = std::min(chunk, cur.size() - start);
      std::vector<FuzzOp> candidate;
      candidate.reserve(cur.size() - len);
      candidate.insert(candidate.end(), cur.begin(),
                       cur.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(
          candidate.end(),
          cur.begin() + static_cast<std::ptrdiff_t>(start + len), cur.end());
      if (!candidate.empty() && !replay(cfg, candidate).ok) {
        cur = std::move(candidate);  // chunk was irrelevant; keep removal
      } else {
        start += len;
      }
    }
    if (chunk == 1) break;
  }
  return cur;
}

std::string dump_repro(const FuzzConfig& cfg,
                       const std::vector<FuzzOp>& ops) {
  std::ostringstream os;
  os << "# qosbb fuzz repro\n";
  os << "# seed " << cfg.seed << " ops " << ops.size() << " topology "
     << static_cast<int>(cfg.topology) << " preemption "
     << (cfg.allow_preemption ? 1 : 0) << " widest "
     << (cfg.widest_residual ? 1 : 0) << " sabotage "
     << (cfg.sabotage_knot_cache ? 1 : 0) << " sabotage-drop "
     << (cfg.sabotage_drop_append ? 1 : 0) << "\n";
  for (const FuzzOp& op : ops) os << op.to_line() << "\n";
  return os.str();
}

std::optional<std::pair<FuzzConfig, std::vector<FuzzOp>>> parse_repro(
    const std::string& text) {
  FuzzConfig cfg;
  std::vector<FuzzOp> ops;
  std::istringstream is(text);
  std::string line;
  bool have_header = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream hs(line);
      std::string hash, key;
      hs >> hash >> key;
      if (key != "seed") continue;
      hs.str(line);
      hs.clear();
      std::uint64_t seed = 0;
      int nops = 0, topo = 0, pre = 0, widest = 0, sab = 0, sdrop = 0;
      std::string k1, k2, k3, k4, k5, k6, k7;
      if (hs >> hash >> k1 >> seed >> k2 >> nops >> k3 >> topo >> k4 >>
          pre >> k5 >> widest >> k6 >> sab) {
        cfg.seed = seed;
        cfg.ops = nops;
        cfg.topology = static_cast<FuzzTopology>(topo);
        cfg.allow_preemption = pre != 0;
        cfg.widest_residual = widest != 0;
        cfg.sabotage_knot_cache = sab != 0;
        // Pre-journal repro files end here; the flag defaults to off.
        if (hs >> k7 >> sdrop) cfg.sabotage_drop_append = sdrop != 0;
        have_header = true;
      }
      continue;
    }
    auto op = FuzzOp::from_line(line);
    if (!op.has_value()) return std::nullopt;
    ops.push_back(*op);
  }
  if (!have_header) return std::nullopt;
  return std::make_pair(cfg, std::move(ops));
}

// ---- Crash sweep ----

namespace {

std::uint32_t peek_record_len(const WireBuffer& b, std::size_t pos) {
  return static_cast<std::uint32_t>(b[pos]) |
         static_cast<std::uint32_t>(b[pos + 1]) << 8 |
         static_cast<std::uint32_t>(b[pos + 2]) << 16 |
         static_cast<std::uint32_t>(b[pos + 3]) << 24;
}

}  // namespace

std::string CrashSweepResult::summary() const {
  std::ostringstream os;
  os << (ok ? "OK" : "FAILED") << ": " << ops_executed << " ops, "
     << boundaries << " boundary recoveries, " << mid_cuts
     << " mid-record cuts, " << bit_flips << " bit flips, " << redeliveries
     << " dedup-window survivals";
  for (const std::string& f : failures) os << "\n  " << f;
  return os.str();
}

CrashSweepResult run_crash_sweep(const FuzzConfig& cfg) {
  CrashSweepResult out;
  const std::vector<FuzzOp> ops = generate_ops(cfg);
  ExecState st = make_state(cfg);
  auto fail = [&](std::string msg) {
    out.ok = false;
    out.failures.push_back(std::move(msg));
  };

  struct Point {
    WireBuffer image;
    StateDigest digest;
    RequestId last_rid = kNoRequestId;
  };
  std::vector<Point> points;
  points.push_back({st.journal->contents(),
                    digest_of(st.spec, st.db->broker(), st.db->next_lsn()),
                    kNoRequestId});
  FuzzResult scratch;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const FuzzOp& op = ops[i];
    // The sweep IS the crash test; in-sequence crash/redeliver ops would
    // only duplicate it (and swap the broker out from under the digests).
    if (op.kind == OpKind::kCrashRecover || op.kind == OpKind::kRedeliver) {
      continue;
    }
    st.now += 1.0;
    std::string why;
    if (!execute_op(st, op, cfg, scratch, &why)) {
      fail("live divergence at op " + std::to_string(i) + ": " + why);
      break;
    }
    ++out.ops_executed;
    points.push_back(
        {st.journal->contents(),
         digest_of(st.spec, st.db->broker(), st.db->next_lsn()),
         st.issued.empty() ? kNoRequestId : st.issued.back().rid});
  }

  // Recover a journal image and return its digest (nullopt on failure).
  auto recover_digest =
      [&](const WireBuffer& image,
          std::string* err) -> std::optional<StateDigest> {
    FaultyJournalFile f;
    f.set_contents(image);
    auto r = DurableBroker::open(st.spec, st.options, f);
    if (!r.is_ok()) {
      *err = r.status().to_string();
      return std::nullopt;
    }
    return digest_of(st.spec, r.value()->broker(), r.value()->next_lsn());
  };

  for (std::size_t p = 1; p < points.size() && out.failures.size() < 8;
       ++p) {
    const Point& pt = points[p];
    const Point& prev = points[p - 1];
    // (a) Record-boundary crash: every acknowledged op must survive.
    {
      FaultyJournalFile f;
      f.set_contents(pt.image);
      auto r = DurableBroker::open(st.spec, st.options, f);
      ++out.boundaries;
      if (!r.is_ok()) {
        fail("recovery failed at op " + std::to_string(p - 1) + ": " +
             r.status().to_string());
        continue;
      }
      const StateDigest got =
          digest_of(st.spec, r.value()->broker(), r.value()->next_lsn());
      if (!(got == pt.digest)) {
        fail("acked op lost: recovery at op " + std::to_string(p - 1) +
             " does not reproduce the live state");
      } else if (p % 7 == 1) {
        // Sampled deep audit: the recovered broker must also satisfy the
        // from-scratch oracle, not just mirror the live floats.
        const OracleStateReport rep =
            oracle_check_state(r.value()->broker(), nullptr);
        if (!rep.ok) {
          fail("oracle divergence after recovery at op " +
               std::to_string(p - 1) + ": " + rep.to_string());
        }
      }
      if (pt.last_rid != kNoRequestId) {
        if (!r.value()->remembers(pt.last_rid)) {
          fail("dedup window lost across recovery at op " +
               std::to_string(p - 1));
        } else {
          ++out.redeliveries;
        }
      }
    }
    // (b) Mid-record crash: cuts strictly inside each record this op
    // appended must recover to the state just before that record — the
    // unacked tail is cleanly absent, nothing before it is touched.
    const bool extension =
        pt.image.size() > prev.image.size() &&
        std::equal(prev.image.begin(), prev.image.end(), pt.image.begin());
    if (extension) {
      // Count the records this op appended. A single-record op gets sampled
      // cuts; a MULTI-record extension is a group-commit frame (kBatchAdmit)
      // and gets the exhaustive treatment — a cut at EVERY byte, each of
      // which must recover to the all-or-prefix state: the clean member
      // prefix applied, the torn member cleanly absent, never a half-applied
      // member.
      std::size_t frame_records = 0;
      for (std::size_t q = prev.image.size(); q + 12 <= pt.image.size();) {
        const std::size_t rec_size = 12 + peek_record_len(pt.image, q);
        if (q + rec_size > pt.image.size()) break;
        ++frame_records;
        q += rec_size;
      }
      const bool exhaustive = frame_records > 1;
      StateDigest expected = prev.digest;
      std::size_t a = prev.image.size();
      while (a + 12 <= pt.image.size() && out.failures.size() < 8) {
        const std::size_t rec_size = 12 + peek_record_len(pt.image, a);
        const std::size_t b = a + rec_size;
        if (b > pt.image.size()) break;  // defensive; images are clean
        std::vector<std::size_t> cuts;
        if (exhaustive) {
          cuts.reserve(rec_size - 1);
          for (std::size_t cut = a + 1; cut < b; ++cut) cuts.push_back(cut);
        } else {
          const std::size_t sampled[3] = {a + 1, a + rec_size / 2, b - 1};
          std::size_t done = 0;
          for (const std::size_t cut : sampled) {
            if (cut <= a || cut >= b || cut == done) continue;
            done = cut;
            cuts.push_back(cut);
          }
        }
        for (const std::size_t cut : cuts) {
          if (out.failures.size() >= 8) break;
          std::string err;
          auto got = recover_digest(
              WireBuffer(pt.image.begin(),
                         pt.image.begin() + static_cast<long>(cut)),
              &err);
          ++out.mid_cuts;
          if (!got.has_value()) {
            fail("torn-tail recovery refused at op " + std::to_string(p - 1) +
                 " cut " + std::to_string(cut) + ": " + err);
          } else if (!(*got == expected)) {
            fail("unacked record leaked into recovery at op " +
                 std::to_string(p - 1) + " cut " + std::to_string(cut));
          }
        }
        // The next record's pre-state is the clean prefix through this one.
        if (b < pt.image.size()) {
          std::string err;
          auto mid = recover_digest(
              WireBuffer(pt.image.begin(),
                         pt.image.begin() + static_cast<long>(b)),
              &err);
          if (!mid.has_value()) {
            fail("recovery failed at interior record boundary of op " +
                 std::to_string(p - 1) + ": " + err);
            break;
          }
          expected = *mid;
        }
        a = b;
      }
    }
    // (c) Corruption: one flipped bit anywhere must be refused loudly.
    if (!pt.image.empty()) {
      FaultyJournalFile f;
      f.set_contents(pt.image);
      f.flip_bit(static_cast<std::size_t>(
          (cfg.seed * 0x9E3779B97F4A7C15ULL + p * 1013904223ULL) %
          (pt.image.size() * 8)));
      auto r = DurableBroker::open(st.spec, st.options, f);
      ++out.bit_flips;
      if (r.is_ok()) {
        fail("bit-flipped journal recovered silently at op " +
             std::to_string(p - 1));
      } else if (r.status().code() != StatusCode::kDataLoss) {
        fail("bit flip misclassified at op " + std::to_string(p - 1) + ": " +
             r.status().to_string());
      }
    }
  }
  return out;
}

// ---- FaultyJournalFile ----

Status FaultyJournalFile::append(const WireBuffer& bytes) {
  const std::uint64_t idx = appends_++;
  if (drop_append_index_.has_value() && idx == *drop_append_index_) {
    return Status::ok();  // acknowledged but never written — the sabotage
  }
  data_.insert(data_.end(), bytes.begin(), bytes.end());
  return Status::ok();
}

Result<WireBuffer> FaultyJournalFile::read_all() const { return data_; }

Status FaultyJournalFile::replace(const WireBuffer& bytes) {
  ++replaces_;
  data_ = bytes;
  return Status::ok();
}

void FaultyJournalFile::flip_bit(std::size_t bit_index) {
  if (data_.empty()) return;
  bit_index %= data_.size() * 8;
  data_[bit_index / 8] ^=
      static_cast<std::uint8_t>(1u << (bit_index % 8));
}

}  // namespace qosbb::fuzz
