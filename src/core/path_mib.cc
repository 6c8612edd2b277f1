#include "core/path_mib.h"

#include <algorithm>
#include <limits>

namespace qosbb {

PathId PathMib::provision(const std::vector<std::string>& nodes) {
  QOSBB_REQUIRE(nodes.size() >= 2, "PathMib::provision: need >= 2 nodes");
  std::string node_key;
  for (const auto& n : nodes) {
    node_key += n;
    node_key += '|';
  }
  if (auto it = by_nodes_.find(node_key); it != by_nodes_.end()) {
    return it->second;
  }
  PathRecord rec;
  rec.id = static_cast<PathId>(records_.size());
  rec.nodes = nodes;
  rec.abstract = path_abstract(spec_, nodes);
  rec.l_path_max = spec_.l_max;
  rec.link_names.reserve(nodes.size() - 1);
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    rec.link_names.push_back(nodes[i] + "->" + nodes[i + 1]);
  }
  const bool fresh_pair =
      by_endpoints_.emplace(nodes.front() + "|" + nodes.back(), rec.id)
          .second;
  QOSBB_REQUIRE(fresh_pair, "PathMib::provision: pair already has a route");
  by_nodes_.emplace(node_key, rec.id);
  records_.push_back(std::move(rec));
  cache_.emplace_back();
  return records_.back().id;
}

PathId PathMib::find(const std::string& ingress,
                     const std::string& egress) const {
  auto it = by_endpoints_.find(ingress + "|" + egress);
  return it == by_endpoints_.end() ? kInvalidPathId : it->second;
}

const PathRecord& PathMib::record(PathId id) const {
  QOSBB_REQUIRE(id >= 0 && id < static_cast<PathId>(records_.size()),
                "PathMib: bad path id");
  return records_[static_cast<std::size_t>(id)];
}

PathMib::PathCache& PathMib::cache_entry(PathId id,
                                         const NodeMib& nodes) const {
  const PathRecord& rec = record(id);
  PathCache& c = cache_[static_cast<std::size_t>(id)];
  if (c.resolved_for != &nodes) {
    // First use (or a different NodeMib than last time — tests sometimes
    // evaluate one PathMib against several MIBs): resolve the name -> link
    // pointers once. NodeMib's map is node-based, so pointers are stable.
    c.links.clear();
    c.edf_links.clear();
    // qosbb-lint: allow(hotpath-alloc)
    c.links.reserve(rec.link_names.size());
    for (const auto& ln : rec.link_names) {
      const LinkQosState& link = nodes.link(ln);
      c.links.push_back(&link);  // qosbb-lint: allow(hotpath-alloc)
      // qosbb-lint: allow(hotpath-alloc)
      if (link.delay_based()) c.edf_links.push_back(&link);
    }
    c.resolved_for = &nodes;
    c.c_res_valid = false;
  }
  return c;
}

BitsPerSecond PathMib::min_residual(PathId id, const NodeMib& nodes) const {
  PathCache& c = cache_entry(id, nodes);
  std::uint64_t sum = 0;
  for (const LinkQosState* link : c.links) sum += link->rate_version();
  if (!c.c_res_valid || sum != c.version_sum) {
    BitsPerSecond res = std::numeric_limits<BitsPerSecond>::infinity();
    for (const LinkQosState* link : c.links) {
      res = std::min(res, link->residual());
    }
    c.c_res = res;
    c.version_sum = sum;
    c.c_res_valid = true;
  }
  return c.c_res;
}

BitsPerSecond PathMib::min_residual_uncached(PathId id,
                                             const NodeMib& nodes) const {
  const PathRecord& rec = record(id);
  BitsPerSecond res = std::numeric_limits<BitsPerSecond>::infinity();
  for (const auto& ln : rec.link_names) {
    res = std::min(res, nodes.link(ln).residual());
  }
  return res;
}

const std::vector<const LinkQosState*>& PathMib::link_states(
    PathId id, const NodeMib& nodes) const {
  return cache_entry(id, nodes).links;
}

const std::vector<const LinkQosState*>& PathMib::edf_link_states(
    PathId id, const NodeMib& nodes) const {
  return cache_entry(id, nodes).edf_links;
}

}  // namespace qosbb
