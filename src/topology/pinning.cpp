#include "topology/pinning.hpp"

#include <algorithm>
#include <numeric>

#include "common/expect.hpp"

namespace chronosync {

std::string to_string(CommDomain d) {
  switch (d) {
    case CommDomain::SameCore: return "same-core";
    case CommDomain::SameChip: return "same-chip";
    case CommDomain::SameNode: return "same-node";
    case CommDomain::CrossNode: return "cross-node";
  }
  return "?";
}

Placement::Placement(std::vector<CoreLocation> locations) : locations_(std::move(locations)) {}

const CoreLocation& Placement::location(Rank r) const {
  CS_REQUIRE(r >= 0 && r < ranks(), "rank out of placement range");
  return locations_[static_cast<std::size_t>(r)];
}

CommDomain Placement::domain(Rank a, Rank b) const {
  return classify(location(a), location(b));
}

namespace pinning {

Placement inter_node(const ClusterSpec& spec, int nranks) {
  CS_REQUIRE(nranks <= spec.nodes, "more ranks than nodes for inter-node pinning");
  std::vector<CoreLocation> locs;
  locs.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) locs.push_back({r, 0, 0});
  return Placement(std::move(locs));
}

Placement inter_chip(const ClusterSpec& spec, int nranks) {
  CS_REQUIRE(nranks <= spec.chips_per_node, "more ranks than chips for inter-chip pinning");
  std::vector<CoreLocation> locs;
  locs.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) locs.push_back({0, r, 0});
  return Placement(std::move(locs));
}

Placement inter_core(const ClusterSpec& spec, int nranks) {
  CS_REQUIRE(nranks <= spec.cores_per_chip, "more ranks than cores for inter-core pinning");
  std::vector<CoreLocation> locs;
  locs.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) locs.push_back({0, 0, r});
  return Placement(std::move(locs));
}

Placement block(const ClusterSpec& spec, int nranks) {
  CS_REQUIRE(nranks <= spec.total_cores(), "more ranks than cores");
  std::vector<CoreLocation> locs;
  locs.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    const int node = r / spec.cores_per_node();
    const int within = r % spec.cores_per_node();
    locs.push_back({node, within / spec.cores_per_chip, within % spec.cores_per_chip});
  }
  return Placement(std::move(locs));
}

Placement scheduler_default(const ClusterSpec& spec, int nranks, Rng& rng) {
  CS_REQUIRE(nranks <= spec.total_cores(), "more ranks than cores");
  const int nodes_needed = (nranks + spec.cores_per_node() - 1) / spec.cores_per_node();
  // Random node subset, as a batch scheduler would allocate.
  std::vector<int> node_ids(static_cast<std::size_t>(spec.nodes));
  std::iota(node_ids.begin(), node_ids.end(), 0);
  for (std::size_t i = node_ids.size(); i > 1; --i) {
    std::swap(node_ids[i - 1], node_ids[static_cast<std::size_t>(
                                   rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  node_ids.resize(static_cast<std::size_t>(nodes_needed));

  // Fill the allocated nodes core by core, then shuffle the rank order so
  // neighbouring ranks are not systematically co-located.
  std::vector<CoreLocation> slots;
  for (int n : node_ids) {
    for (int ch = 0; ch < spec.chips_per_node; ++ch) {
      for (int co = 0; co < spec.cores_per_chip; ++co) slots.push_back({n, ch, co});
    }
  }
  slots.resize(static_cast<std::size_t>(nranks));
  for (std::size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return Placement(std::move(slots));
}

}  // namespace pinning

}  // namespace chronosync
