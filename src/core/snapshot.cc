// Broker state checkpoint / recovery (declared in broker.h).
//
// Footnote 2 of the paper argues that moving QoS control out of the routers
// lets reliability be solved in the control plane alone; this file is that
// argument made concrete: the broker's entire QoS state serializes into one
// frame, and a replacement broker rebuilds every MIB from it — core routers
// notice nothing, because they never held any of this state.
//
// Frame layout (wire.h primitives, kBrokerSnapshot envelope):
//   u32 path_count      { str... nodes }            per provisioned path
//   u32 perflow_count   { flow fields }             per per-flow record
//   u32 class_count     { class fields }            per service class
//   u32 macroflow_count { state + members }         per settled macroflow
//   u32 external_count  { str link, f64 amount }    out-of-band reservations
// Records go out in ascending id order (links by name), so equal states
// encode to equal bytes whatever their history.
// Snapshot requires quiescence (no live contingency grants; kUnavailable
// otherwise): transients reference wall-clock timers that cannot be
// checkpointed consistently. snapshot() verifies the frame by a scratch
// restore — link state the records cannot explain (e.g. leases booked
// directly on the node MIB) fails loudly with kFailedPrecondition instead
// of silently emitting a partial snapshot. The journal's anchors use
// write_snapshot and rebase_ledgers instead, which keep no second image.

#include <algorithm>
#include <cmath>

#include "core/broker.h"
#include "core/wire.h"

namespace qosbb {
namespace {

template <typename Writer>
void put_profile(Writer& w, const TrafficProfile& p) {
  w.f64(p.sigma);
  w.f64(p.rho);
  w.f64(p.peak);
  w.f64(p.l_max);
}

Result<TrafficProfile> get_profile(WireReader& r) {
  auto sigma = r.f64();
  auto rho = r.f64();
  auto peak = r.f64();
  auto l_max = r.f64();
  for (const Status& s : {sigma.status(), rho.status(), peak.status(),
                          l_max.status()}) {
    if (!s.is_ok()) return s;
  }
  if (!(l_max.value() > 0.0) || sigma.value() < l_max.value() ||
      !(rho.value() > 0.0) || peak.value() < rho.value()) {
    return Status::invalid_argument("snapshot: corrupt traffic profile");
  }
  return TrafficProfile::make(sigma.value(), rho.value(), peak.value(),
                              l_max.value());
}

template <typename Writer>
void put_nodes(Writer& w, const std::vector<std::string>& nodes) {
  w.u32(static_cast<std::uint32_t>(nodes.size()));
  for (const auto& n : nodes) w.str(n);
}

Result<std::vector<std::string>> get_nodes(WireReader& r) {
  auto count = r.u32();
  if (!count.is_ok()) return count.status();
  if (count.value() < 2 || count.value() > 4096) {
    return Status::invalid_argument("snapshot: bad path node count");
  }
  std::vector<std::string> nodes;
  nodes.reserve(count.value());
  for (std::uint32_t i = 0; i < count.value(); ++i) {
    auto n = r.str();
    if (!n.is_ok()) return n.status();
    nodes.push_back(n.value());
  }
  return nodes;
}

/// Envelope head: magic, version, type, body length.
constexpr std::size_t kSnapshotHeadSize = 8;

template <typename Writer>
void put_head(Writer& w, std::size_t body_size) {
  w.u16(kWireMagic);
  w.u8(kWireVersion);
  w.u8(static_cast<std::uint8_t>(MessageType::kBrokerSnapshot));
  w.u32(static_cast<std::uint32_t>(body_size));
}

/// Float re-summation slack between a ledger and its re-booked image.
bool within_resum_tolerance(double a, double b) {
  constexpr double kResumTol = 1e-6;
  return std::abs(a - b) <= kResumTol;
}

Status ledger_explained(const LinkQosState& live, const LinkQosState& redo) {
  if (within_resum_tolerance(live.reserved(), redo.reserved()) &&
      within_resum_tolerance(live.buffer_reserved(), redo.buffer_reserved())) {
    return Status::ok();
  }
  return Status::failed_precondition(
      "snapshot would lose state on link " + live.name() +
      ": live reservation not explained by the flow/class/external "
      "records (out-of-band booking?)");
}

}  // namespace

template <typename Writer>
void BandwidthBroker::encode_snapshot_body(Writer& w) const {
  // Paths (by id order; ids are dense).
  w.u32(static_cast<std::uint32_t>(paths_.path_count()));
  for (PathId id = 0; id < static_cast<PathId>(paths_.path_count()); ++id) {
    put_nodes(w, paths_.record(id).nodes);
  }
  // Per-flow reservations (sorted by id for determinism).
  std::vector<const FlowRecord*> per_flow;
  std::vector<const FlowRecord*> micro;
  for (const auto& [id, rec] : flows_.all()) {
    (rec.kind == FlowKind::kPerFlow ? per_flow : micro).push_back(&rec);
  }
  auto by_id = [](const auto* a, const auto* b) { return a->id < b->id; };
  std::sort(per_flow.begin(), per_flow.end(), by_id);
  std::sort(micro.begin(), micro.end(), by_id);
  w.u32(static_cast<std::uint32_t>(per_flow.size()));
  for (const FlowRecord* rec : per_flow) {
    w.i64(rec->id);
    put_profile(w, rec->profile);
    w.f64(rec->e2e_delay_req);
    w.i64(rec->path);
    w.f64(rec->reservation.rate);
    w.f64(rec->reservation.delay);
    w.f64(rec->admitted_at);
  }
  // Service classes.
  w.u32(static_cast<std::uint32_t>(classes_.all_classes().size()));
  for (const auto& [id, cls] : classes_.all_classes()) {
    w.i64(cls.id);
    w.f64(cls.e2e_delay);
    w.f64(cls.delay_param);
    w.str(cls.name);
  }
  // Macroflows with their member microflows (sorted by id).
  std::vector<const MacroflowState*> macro;
  macro.reserve(classes_.all_macroflows().size());
  for (const auto& [id, mf] : classes_.all_macroflows()) macro.push_back(&mf);
  std::sort(macro.begin(), macro.end(), by_id);
  w.u32(static_cast<std::uint32_t>(macro.size()));
  for (const MacroflowState* mf : macro) {
    w.i64(mf->id);
    w.i64(mf->service_class);
    w.i64(mf->path);
    put_profile(w, mf->aggregate);
    w.f64(mf->base_rate);
    w.f64(mf->core_bound_in_effect);
    std::vector<const FlowRecord*> members;
    for (const FlowRecord* rec : micro) {
      if (rec->service_class == mf->service_class && rec->path == mf->path) {
        members.push_back(rec);
      }
    }
    w.u32(static_cast<std::uint32_t>(members.size()));
    for (const FlowRecord* rec : members) {
      w.i64(rec->id);
      put_profile(w, rec->profile);
      w.f64(rec->reservation.rate);
      w.f64(rec->admitted_at);
    }
  }

  // Out-of-band link reservations (reserve_link_external).
  w.u32(static_cast<std::uint32_t>(external_.size()));
  for (const auto& [link, amount] : external_) {
    w.str(link);
    w.f64(amount);
  }
}

std::size_t BandwidthBroker::snapshot_size() const {
  WireSizer sizer;
  encode_snapshot_body(sizer);
  return kSnapshotHeadSize + sizer.size();
}

void BandwidthBroker::write_snapshot(WireStream& out, std::size_t size) const {
  QOSBB_REQUIRE(classes_.active_grants() == 0,
                "write_snapshot: live contingency grants");
  QOSBB_REQUIRE(size >= kSnapshotHeadSize, "write_snapshot: bad size");
  put_head(out, size - kSnapshotHeadSize);
  encode_snapshot_body(out);
}

Result<std::vector<std::uint8_t>> BandwidthBroker::snapshot() const {
  if (classes_.active_grants() != 0) {
    // kUnavailable, not kFailedPrecondition: the condition is transient —
    // the caller should settle/expire the grants and retry, nothing about
    // the request itself is wrong.
    return Status::unavailable(
        "snapshot requires a quiescent broker (active contingency grants); "
        "retry after the grants settle");
  }
  WireWriter w;
  encode_snapshot_body(w);
  WireWriter head;
  put_head(head, w.buffer().size());
  WireBuffer out = head.take();
  const WireBuffer& body = w.buffer();
  out.insert(out.end(), body.begin(), body.end());

  // Self-verification: the frame must explain ALL live link state. State
  // booked behind the broker's back (e.g. hierarchical leases placed
  // directly on the node MIB) is invisible to the flow/class/external
  // records above; emitting the frame anyway would silently lose it on
  // recovery. Restore into a scratch broker and compare.
  auto check = restore(spec_, options_, out);
  if (!check.is_ok()) {
    return Status::internal("snapshot failed self-restore: " +
                            check.status().to_string());
  }
  for (const auto& l : spec_.links) {
    const std::string name = l.from + "->" + l.to;
    if (Status s = ledger_explained(store_.nodes().link(name),
                                    check.value()->nodes().link(name));
        !s.is_ok()) {
      return s;
    }
  }
  return out;
}

Status BandwidthBroker::rebook_ledgers() {
  store_.nodes().clear_ledgers();
  std::vector<const FlowRecord*> per_flow;
  for (const auto& [id, rec] : flows_.all()) {
    if (rec.kind == FlowKind::kPerFlow) per_flow.push_back(&rec);
  }
  std::sort(per_flow.begin(), per_flow.end(),
            [](const FlowRecord* a, const FlowRecord* b) {
              return a->id < b->id;
            });
  for (const FlowRecord* rec : per_flow) {
    book_reservation(paths_.record(rec->path), rec->reservation,
                     rec->profile);
  }
  classes_.rebook_macroflows();
  for (const auto& [link, amount] : external_) {
    if (Status s = store_.nodes().link(link).reserve(amount); !s.is_ok()) {
      return Status::invalid_argument(
          "cannot re-book external reservation on " + link + ": " +
          s.to_string());
    }
  }
  MutexLock guard(limiter_mu_);
  limiters_.clear();
  return Status::ok();
}

Status BandwidthBroker::rebase_ledgers() {
  if (classes_.active_grants() != 0) {
    return Status::unavailable(
        "ledger rebase requires a quiescent broker (active contingency "
        "grants)");
  }
  struct Saved {
    const LinkQosState* link;
    BitsPerSecond reserved;
    Bits buffer;
  };
  std::vector<Saved> saved;
  saved.reserve(spec_.links.size());
  for (const auto& l : spec_.links) {
    const LinkQosState& link = store_.nodes().link(l.from + "->" + l.to);
    saved.push_back({&link, link.reserved(), link.buffer_reserved()});
  }
  if (Status s = rebook_ledgers(); !s.is_ok()) {
    return Status::internal("ledger rebase failed: " + s.to_string());
  }
  for (const Saved& before : saved) {
    if (!within_resum_tolerance(before.reserved, before.link->reserved()) ||
        !within_resum_tolerance(before.buffer,
                                before.link->buffer_reserved())) {
      return Status::failed_precondition(
          "ledger rebase dropped state on link " + before.link->name() +
          ": the reservation was not explained by the flow/class/external "
          "records (out-of-band booking?)");
    }
  }
  return Status::ok();
}

Result<std::unique_ptr<BandwidthBroker>> BandwidthBroker::restore(
    const DomainSpec& spec, BrokerOptions options,
    const std::vector<std::uint8_t>& frame) {
  auto type = peek_type(frame);
  if (!type.is_ok()) return type.status();
  if (type.value() != MessageType::kBrokerSnapshot) {
    return Status::invalid_argument("not a broker snapshot frame");
  }
  WireReader r(frame);
  (void)r.u16();
  (void)r.u8();
  (void)r.u8();
  auto body_len = r.u32();
  if (!body_len.is_ok() ||
      static_cast<std::size_t>(body_len.value()) + kSnapshotHeadSize !=
          frame.size()) {
    return Status::invalid_argument("snapshot length mismatch");
  }

  auto bb = std::make_unique<BandwidthBroker>(spec, options);

  // Paths, in original id order (provision() assigns dense ids).
  auto path_count = r.u32();
  if (!path_count.is_ok()) return path_count.status();
  for (std::uint32_t i = 0; i < path_count.value(); ++i) {
    auto nodes = get_nodes(r);
    if (!nodes.is_ok()) return nodes.status();
    for (std::size_t h = 0; h + 1 < nodes.value().size(); ++h) {
      const std::string link = nodes.value()[h] + "->" + nodes.value()[h + 1];
      if (!bb->nodes().has_link(link)) {
        return Status::invalid_argument("snapshot: path over unknown link " +
                                        link);
      }
    }
    // The path MIB holds one route per endpoint pair; a frame that routes
    // a pair twice did not come from a broker.
    if (bb->paths_.find(nodes.value().front(), nodes.value().back()) !=
        kInvalidPathId) {
      return Status::invalid_argument(
          "snapshot: second route for " + nodes.value().front() + " -> " +
          nodes.value().back());
    }
    const PathId id = bb->paths_.provision(nodes.value());
    if (id != static_cast<PathId>(i)) {
      return Status::invalid_argument("snapshot: path id drift");
    }
  }
  // Per-flow reservations.
  auto pf_count = r.u32();
  if (!pf_count.is_ok()) return pf_count.status();
  for (std::uint32_t i = 0; i < pf_count.value(); ++i) {
    auto id = r.i64();
    auto profile = get_profile(r);
    auto d_req = r.f64();
    auto path = r.i64();
    auto rate = r.f64();
    auto delay = r.f64();
    auto admitted_at = r.f64();
    for (const Status& s :
         {id.status(), profile.status(), d_req.status(), path.status(),
          rate.status(), delay.status(), admitted_at.status()}) {
      if (!s.is_ok()) return s;
    }
    if (path.value() < 0 ||
        path.value() >= static_cast<PathId>(bb->paths_.path_count()) ||
        !(rate.value() > 0.0) || delay.value() < 0.0) {
      return Status::invalid_argument("snapshot: corrupt flow record");
    }
    const PathRecord& rec = bb->paths_.record(path.value());
    FlowRecord flow;
    flow.id = id.value();
    flow.kind = FlowKind::kPerFlow;
    flow.profile = profile.value();
    flow.e2e_delay_req = d_req.value();
    flow.path = path.value();
    flow.reservation = RateDelayPair{rate.value(), delay.value()};
    flow.admitted_at = admitted_at.value();
    bb->flows_.add(flow);
    bb->flows_.bump_next_id(flow.id);
    ++bb->ingress_flows_[rec.ingress()];
  }
  // Service classes.
  auto cls_count = r.u32();
  if (!cls_count.is_ok()) return cls_count.status();
  for (std::uint32_t i = 0; i < cls_count.value(); ++i) {
    auto id = r.i64();
    auto e2e = r.f64();
    auto cd = r.f64();
    auto name = r.str();
    for (const Status& s :
         {id.status(), e2e.status(), cd.status(), name.status()}) {
      if (!s.is_ok()) return s;
    }
    bb->classes_.restore_class(
        ServiceClass{id.value(), e2e.value(), cd.value(), name.value()});
  }
  // Macroflows.
  auto mf_count = r.u32();
  if (!mf_count.is_ok()) return mf_count.status();
  for (std::uint32_t i = 0; i < mf_count.value(); ++i) {
    auto id = r.i64();
    auto cls = r.i64();
    auto path = r.i64();
    auto aggregate = get_profile(r);
    auto base = r.f64();
    auto core_bound = r.f64();
    auto member_count = r.u32();
    for (const Status& s :
         {id.status(), cls.status(), path.status(), aggregate.status(),
          base.status(), core_bound.status(), member_count.status()}) {
      if (!s.is_ok()) return s;
    }
    if (member_count.value() > 1 << 20) {
      return Status::invalid_argument("snapshot: absurd member count");
    }
    MacroflowState state;
    state.id = id.value();
    state.service_class = cls.value();
    state.path = path.value();
    state.aggregate = aggregate.value();
    state.microflows = static_cast<int>(member_count.value());
    state.base_rate = base.value();
    state.core_bound_in_effect = core_bound.value();
    std::vector<FlowRecord> members;
    members.reserve(member_count.value());
    const Seconds class_delay =
        bb->classes_.service_class(cls.value()).e2e_delay;
    for (std::uint32_t k = 0; k < member_count.value(); ++k) {
      auto mid = r.i64();
      auto profile = get_profile(r);
      auto rate = r.f64();
      auto admitted_at = r.f64();
      for (const Status& s : {mid.status(), profile.status(), rate.status(),
                              admitted_at.status()}) {
        if (!s.is_ok()) return s;
      }
      FlowRecord rec;
      rec.id = mid.value();
      rec.kind = FlowKind::kMicroflow;
      rec.profile = profile.value();
      rec.e2e_delay_req = class_delay;
      rec.path = path.value();
      rec.reservation =
          RateDelayPair{rate.value(),
                        bb->classes_.service_class(cls.value()).delay_param};
      rec.service_class = cls.value();
      rec.admitted_at = admitted_at.value();
      bb->flows_.bump_next_id(rec.id);
      members.push_back(std::move(rec));
    }
    bb->flows_.bump_next_id(state.id);
    bb->classes_.restore_macroflow(state, members);
  }
  // Out-of-band link reservations.
  auto ext_count = r.u32();
  if (!ext_count.is_ok()) return ext_count.status();
  if (ext_count.value() > 1 << 20) {
    return Status::invalid_argument("snapshot: absurd external count");
  }
  for (std::uint32_t i = 0; i < ext_count.value(); ++i) {
    auto link = r.str();
    auto amount = r.f64();
    if (!link.is_ok()) return link.status();
    if (!amount.is_ok()) return amount.status();
    if (!bb->store_.nodes().has_link(link.value()) ||
        !(amount.value() > 0.0)) {
      return Status::invalid_argument(
          "snapshot: corrupt external reservation on " + link.value());
    }
    bb->external_[link.value()] += amount.value();
  }
  if (!r.exhausted()) {
    return Status::invalid_argument("snapshot: trailing bytes");
  }
  if (Status s = bb->rebook_ledgers(); !s.is_ok()) {
    return Status::invalid_argument("snapshot: " + s.to_string());
  }
  return bb;
}

}  // namespace qosbb
