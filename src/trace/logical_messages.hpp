// Mapping collective operations onto logical point-to-point messages.
//
// The clock condition is formulated for send/receive pairs; the paper (and
// the CLC collective extension, refs. [30]/[31]) transfers it to collectives
// by viewing each operation as a set of logical messages according to its
// flavour:
//   * 1-to-N (bcast, scatter):   root's begin   ->  every other rank's end
//   * N-to-1 (reduce, gather):   every rank's begin -> root's end
//   * N-to-N (barrier, allreduce, allgather, alltoall):
//                                every rank's begin -> every other rank's end
//
// Each logical message inherits the minimum latency of its (src, dst) domain.
// The rules themselves (first-match roots, partial instances) live in
// edge_rules.hpp.
#pragma once

#include <vector>

#include "trace/trace.hpp"

namespace chronosync {

struct LogicalMessage {
  EventRef send;  ///< a CollBegin event
  EventRef recv;  ///< a CollEnd event
  std::int64_t coll_id = -1;
};

/// Derives all logical messages from the collectives in `trace`.
std::vector<LogicalMessage> derive_logical_messages(
    const Trace& trace, const std::vector<CollectiveInstance>& collectives);

/// Convenience overload building the collective index itself.
std::vector<LogicalMessage> derive_logical_messages(const Trace& trace);

}  // namespace chronosync
