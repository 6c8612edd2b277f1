#include "core/node_mib.h"

#include <algorithm>

namespace qosbb {

namespace {
constexpr double kRateTolerance = 1e-6;  // b/s slack for float bookkeeping
}

void KnotArray::clear() {
  d.clear();
  bucket_rate.clear();
  bucket_l.clear();
  rate_sum.clear();
  fixed_sum.clear();
  s.clear();
}

void KnotArray::reserve(std::size_t n) {
  d.reserve(n);
  bucket_rate.reserve(n);
  bucket_l.reserve(n);
  rate_sum.reserve(n);
  fixed_sum.reserve(n);
  s.reserve(n);
}

void KnotArray::push_bucket(Seconds delay, double sum_rate, double sum_l) {
  d.push_back(delay);
  bucket_rate.push_back(sum_rate);
  bucket_l.push_back(sum_l);
}

void KnotArray::recompute_prefixes(double capacity) {
  recompute_prefixes_from(capacity, 0);
}

void KnotArray::recompute_prefixes_from(double capacity, std::size_t from) {
  const std::size_t n = d.size();
  rate_sum.resize(n);
  fixed_sum.resize(n);
  s.resize(n);
  // The prefix walk is a left-to-right accumulation, so resuming from the
  // stored sums at `from − 1` reproduces bit-identical values to a
  // from-scratch walk over the same buckets — prefixes left of `from` are
  // untouched by construction.
  double rsum = from > 0 ? rate_sum[from - 1] : 0.0;  // Σ r_j, d_j <= knot
  double fsum = from > 0 ? fixed_sum[from - 1] : 0.0;  // Σ (L_j − r_j·d_j)
  for (std::size_t k = from; k < n; ++k) {
    rsum += bucket_rate[k];
    fsum += bucket_l[k] - bucket_rate[k] * d[k];
    rate_sum[k] = rsum;
    fixed_sum[k] = fsum;
    // demand(d) = rate_sum·d + fixed_sum
    s[k] = capacity * d[k] - (rsum * d[k] + fsum);
  }
}

void KnotArray::insert_entry(double capacity, double r, Seconds delay,
                             double l_max) {
  const std::size_t k = lower_bound(delay);
  if (k < d.size() && d[k] == delay) {
    // Same double ops, same order as add_edf_entry on the live bucket.
    bucket_rate[k] += r;
    bucket_l[k] += l_max;
  } else {
    d.insert(d.begin() + static_cast<std::ptrdiff_t>(k), delay);
    bucket_rate.insert(bucket_rate.begin() + static_cast<std::ptrdiff_t>(k),
                       r);
    bucket_l.insert(bucket_l.begin() + static_cast<std::ptrdiff_t>(k), l_max);
  }
  // Only knots at or right of the mutation need new prefixes.
  recompute_prefixes_from(capacity, k);
}

std::size_t KnotArray::lower_bound(Seconds t) const {
  return static_cast<std::size_t>(
      std::lower_bound(d.begin(), d.end(), t) - d.begin());
}

std::size_t KnotArray::upper_bound(Seconds t) const {
  return static_cast<std::size_t>(
      std::upper_bound(d.begin(), d.end(), t) - d.begin());
}

LinkQosState::LinkQosState(std::string name, BitsPerSecond capacity,
                           SchedPolicy policy, Seconds error_term,
                           Seconds propagation_delay, Bits buffer_capacity)
    : name_(std::move(name)),
      capacity_(capacity),
      policy_(policy),
      error_term_(error_term),
      propagation_delay_(propagation_delay),
      buffer_capacity_(buffer_capacity),
      knot_cache_(std::make_shared<KnotArray>()) {
  QOSBB_REQUIRE(capacity > 0.0, "LinkQosState: capacity must be positive");
  QOSBB_REQUIRE(buffer_capacity > 0.0,
                "LinkQosState: buffer capacity must be positive");
}

Status LinkQosState::reserve_buffer(Bits b) {
  QOSBB_REQUIRE(b >= 0.0, "reserve_buffer: negative amount");
  if (buffer_reserved_ + b > buffer_capacity_ + 1e-6) {
    return Status::rejected("link " + name_ + ": buffer residual " +
                            std::to_string(buffer_residual()) + " < " +
                            std::to_string(b));
  }
  buffer_reserved_ += b;
  ++state_version_;
  return Status::ok();
}

void LinkQosState::release_buffer(Bits b) {
  QOSBB_REQUIRE(b >= 0.0, "release_buffer: negative amount");
  QOSBB_REQUIRE(buffer_reserved_ >= b - 1e-6,
                "release_buffer: releasing more than reserved");
  buffer_reserved_ = std::max(0.0, buffer_reserved_ - b);
  ++state_version_;
}

bool LinkQosState::delay_based() const { return !is_rate_based(policy_); }

Status LinkQosState::reserve(BitsPerSecond r) {
  QOSBB_REQUIRE(r > 0.0, "LinkQosState::reserve: rate must be positive");
  if (reserved_ + r > capacity_ + kRateTolerance) {
    return Status::rejected("link " + name_ + ": residual " +
                            std::to_string(residual()) + " < " +
                            std::to_string(r));
  }
  reserved_ += r;
  ++rate_version_;
  ++state_version_;
  return Status::ok();
}

void LinkQosState::release(BitsPerSecond r) {
  QOSBB_REQUIRE(r > 0.0, "LinkQosState::release: rate must be positive");
  QOSBB_REQUIRE(reserved_ >= r - kRateTolerance,
                "LinkQosState::release: releasing more than reserved");
  reserved_ = std::max(0.0, reserved_ - r);
  ++rate_version_;
  ++state_version_;
}

void LinkQosState::clear_ledger() {
  reserved_ = 0.0;
  buffer_reserved_ = 0.0;
  flows_ = 0;
  edf_.clear();
  knots_dirty_ = true;
  ++rate_version_;
  ++state_version_;
}

void LinkQosState::note_flow_removed() {
  QOSBB_REQUIRE(flows_ > 0, "LinkQosState: flow count underflow");
  --flows_;
}

void LinkQosState::add_edf_entry(BitsPerSecond r, Seconds d, Bits l_max) {
  QOSBB_REQUIRE(delay_based(), "add_edf_entry on a rate-based link");
  QOSBB_REQUIRE(r > 0.0 && d >= 0.0 && l_max > 0.0,
                "add_edf_entry: bad entry");
  EdfBucket& b = edf_[d];
  b.sum_rate += r;
  b.sum_l += l_max;
  ++b.count;
  knots_dirty_ = true;
  ++state_version_;
}

void LinkQosState::remove_edf_entry(BitsPerSecond r, Seconds d, Bits l_max) {
  auto it = edf_.find(d);
  QOSBB_REQUIRE(it != edf_.end(), "remove_edf_entry: unknown delay knot");
  EdfBucket& b = it->second;
  QOSBB_REQUIRE(b.count > 0, "remove_edf_entry: empty bucket");
  b.sum_rate -= r;
  b.sum_l -= l_max;
  --b.count;
  if (b.count == 0) edf_.erase(it);
  knots_dirty_ = true;
  ++state_version_;
}

void LinkQosState::rebuild_knot_cache() const {
  // One ascending walk, identical arithmetic to a from-scratch
  // recomputation (this IS the from-scratch recomputation, amortized to
  // once per MIB mutation instead of once per read). The rebuild never
  // mutates the published array in place: it fills the spare buffer —
  // reused when no snapshot still holds it, so the sequential steady state
  // allocates nothing — and swaps it in, retiring the old array to spare.
  std::shared_ptr<KnotArray> buf;
  if (knot_spare_ && knot_spare_.use_count() == 1) {
    buf = std::move(knot_spare_);
  } else {
    buf = std::make_shared<KnotArray>();  // qosbb-lint: allow(hotpath-alloc)
  }
  buf->clear();
  buf->reserve(edf_.size());
  for (const auto& [d, b] : edf_) buf->push_bucket(d, b.sum_rate, b.sum_l);
  buf->recompute_prefixes(capacity_);
  knot_spare_ = std::move(knot_cache_);
  knot_cache_ = std::move(buf);
  knots_dirty_ = false;
}

double LinkQosState::residual_service(Seconds t) const {
  QOSBB_REQUIRE(t >= 0.0, "residual_service: negative time");
  const KnotArray& knots = knot_prefixes();
  // Demand parameters in effect at t: the last knot with d <= t.
  const std::size_t gt = knots.upper_bound(t);
  if (gt == 0) return capacity_ * t;
  return capacity_ * t -
         (knots.rate_sum[gt - 1] * t + knots.fixed_sum[gt - 1]);
}

std::vector<std::pair<Seconds, double>>
LinkQosState::residual_service_at_knots() const {
  const KnotArray& knots = knot_prefixes();
  std::vector<std::pair<Seconds, double>> out;
  out.reserve(knots.size());
  for (std::size_t k = 0; k < knots.size(); ++k) {
    out.emplace_back(knots.d[k], knots.s[k]);
  }
  return out;
}

bool edf_schedulable_over(const KnotArray& knots, BitsPerSecond capacity,
                          BitsPerSecond r, Seconds d, Bits l_max) {
  // O(log K + |knots >= d|) over the cached knot prefixes. Each clause is a
  // pure predicate on the same state as the classic full walk, so the
  // verdict is identical.
  // Own-deadline knot (eq. 5 at t = d): demand uses entries with d_j <= d —
  // the cached prefix at the last knot <= d.
  double rate_sum = 0.0;   // Σ r_j over knots <= d
  double fixed_sum = 0.0;  // Σ (L_j − r_j·d_j) over knots <= d
  const std::size_t gt = knots.upper_bound(d);
  if (gt != 0) {
    rate_sum = knots.rate_sum[gt - 1];
    fixed_sum = knots.fixed_sum[gt - 1];
  }
  if (capacity * d - (rate_sum * d + fixed_sum) < l_max - 1e-6) {
    return false;
  }
  // Existing knots d^k >= d: residual there must absorb the new flow's
  // demand r·(d^k − d) + L (eq. 8, the Figure-4 scan). Blocked
  // OR-reduction over the dense s/d columns: within a block every element
  // evaluates the exact scalar comparison, and a block either wholly
  // passes or the function returns false, so the verdict equals the
  // first-violation early exit while the inner loop stays branch-free and
  // vectorizable.
  const std::size_t n = knots.size();
  const double* __restrict sv = knots.s.data();
  const double* __restrict dv = knots.d.data();
  std::size_t k = knots.lower_bound(d);
  constexpr std::size_t kBlock = 16;
  for (; k + kBlock <= n; k += kBlock) {
    bool bad = false;
    for (std::size_t j = 0; j < kBlock; ++j) {
      bad |= sv[k + j] < r * (dv[k + j] - d) + l_max - 1e-6;
    }
    if (bad) return false;
  }
  for (; k < n; ++k) {
    if (sv[k] < r * (dv[k] - d) + l_max - 1e-6) return false;
  }
  // Slope condition (t -> infinity).
  const double total_rate = knots.empty() ? 0.0 : knots.rate_sum.back();
  return total_rate + r <= capacity + kRateTolerance;
}

bool LinkQosState::edf_schedulable_with(BitsPerSecond r, Seconds d,
                                        Bits l_max) const {
  QOSBB_REQUIRE(delay_based(), "edf_schedulable_with on a rate-based link");
  return edf_schedulable_over(knot_prefixes(), capacity_, r, d, l_max);
}

NodeMib::NodeMib(const DomainSpec& spec) {
  for (const auto& l : spec.links) {
    const std::string key = l.from + "->" + l.to;
    // In-place construction: LinkQosState is pinned (non-copyable).
    links_.try_emplace(key, key, l.capacity, l.policy,
                       spec.l_max / l.capacity, l.propagation_delay,
                       l.buffer);
  }
}

LinkQosState& NodeMib::link(const std::string& name) {
  auto it = links_.find(name);
  QOSBB_REQUIRE(it != links_.end(), "NodeMib: unknown link " + name);
  return it->second;
}

const LinkQosState& NodeMib::link(const std::string& name) const {
  auto it = links_.find(name);
  QOSBB_REQUIRE(it != links_.end(), "NodeMib: unknown link " + name);
  return it->second;
}

void NodeMib::clear_ledgers() {
  for (auto& [name, link] : links_) link.clear_ledger();
}

BitsPerSecond NodeMib::total_reserved() const {
  BitsPerSecond sum = 0.0;
  for (const auto& [name, link] : links_) sum += link.reserved();
  return sum;
}

}  // namespace qosbb
