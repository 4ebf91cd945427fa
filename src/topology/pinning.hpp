// Process-to-core placement (Table I of the paper) and the communication
// domain classification that drives both latency and clock correlation.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "topology/cluster.hpp"

namespace chronosync {

struct CoreLocation {
  int node = 0;
  int chip = 0;
  int core = 0;

  bool operator==(const CoreLocation&) const = default;
};

/// Relative position of two processes in the hierarchy; orders by distance.
enum class CommDomain { SameCore = 0, SameChip = 1, SameNode = 2, CrossNode = 3 };

inline CommDomain classify(const CoreLocation& a, const CoreLocation& b) {
  if (a.node != b.node) return CommDomain::CrossNode;
  if (a.chip != b.chip) return CommDomain::SameNode;
  if (a.core != b.core) return CommDomain::SameChip;
  return CommDomain::SameCore;
}

std::string to_string(CommDomain d);

/// Maps ranks to cores.
class Placement {
 public:
  Placement() = default;
  explicit Placement(std::vector<CoreLocation> locations);

  const CoreLocation& location(Rank r) const;
  int ranks() const { return static_cast<int>(locations_.size()); }
  CommDomain domain(Rank a, Rank b) const;

 private:
  std::vector<CoreLocation> locations_;
};

namespace pinning {

/// Table I "inter node": one process per node, n distinct nodes.
Placement inter_node(const ClusterSpec& spec, int nranks);

/// Table I "inter chip": all on one node, one process per chip.
Placement inter_chip(const ClusterSpec& spec, int nranks);

/// Table I "inter core": all on one chip, one process per core.
Placement inter_core(const ClusterSpec& spec, int nranks);

/// Fills cores in order: node 0 chip 0 core 0,1,..., then next chip, node.
Placement block(const ClusterSpec& spec, int nranks);

/// Emulates the paper's Fig. 7 setup ("we kept the default setting and let
/// the scheduler choose"): ranks land on a random subset of nodes, filling
/// cores within a node before spilling, with a shuffled rank order.
Placement scheduler_default(const ClusterSpec& spec, int nranks, Rng& rng);

}  // namespace pinning

}  // namespace chronosync
