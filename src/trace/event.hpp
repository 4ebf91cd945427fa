// The event model.
//
// Mirrors what MPI/OpenMP tracing libraries record (Sec. III of the paper):
// region enter/leave, point-to-point send/receive, collective begin/end, and
// the POMP events of OpenMP constructs (fork, join, barrier enter/exit).
//
// Every event carries two timestamps:
//   * local_ts  — what the tracing library recorded from the (drifting,
//                 noisy) local clock; all synchronization algorithms operate
//                 on this alone;
//   * true_ts   — the simulator's ground truth, available only because this
//                 is a simulation; used by tests and quality metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace chronosync {

enum class EventType : std::uint8_t {
  Enter,         ///< enter code region (region field)
  Exit,          ///< leave code region
  Send,          ///< point-to-point send (peer = destination)
  Recv,          ///< point-to-point receive completion (peer = source)
  CollBegin,     ///< collective operation entered (coll, root, coll_id)
  CollEnd,       ///< collective operation completed
  Fork,          ///< OpenMP: master forks a parallel region
  Join,          ///< OpenMP: master joins a parallel region
  BarrierEnter,  ///< OpenMP: thread enters (implicit) barrier
  BarrierExit,   ///< OpenMP: thread leaves (implicit) barrier
};

std::string to_string(EventType t);

enum class CollectiveKind : std::uint8_t {
  Barrier,
  Bcast,
  Reduce,
  Allreduce,
  Gather,
  Scatter,
  Allgather,
  Alltoall,
};

std::string to_string(CollectiveKind k);

/// Communication flavour of a collective, per the CLC collective extension
/// (1-to-N, N-to-1, N-to-N) that maps it onto logical point-to-point messages.
enum class CollectiveFlavor { OneToN, NToOne, NToN };

CollectiveFlavor flavor_of(CollectiveKind k);

// The fields are ordered by size — the four 8-byte ones, then the seven
// 4-byte ones, then the two enum bytes — so that no padding falls between
// them and an event fits one 64-byte cache line; grouped by meaning instead,
// alignment padding makes it 80 bytes.  A correction decodes, walks and
// encodes millions of events, so their size is its memory traffic.
// Producers assign fields by name, never positionally.
struct Event {
  Time local_ts = 0.0;
  Time true_ts = 0.0;
  std::int64_t msg_id = -1;       ///< pairs Send with its Recv
  std::int64_t coll_id = -1;      ///< collective instance (same on all ranks)

  std::int32_t region = -1;       ///< Enter/Exit: region table index
  Rank peer = -1;                 ///< Send: destination; Recv: source
  Tag tag = -1;                   ///< p2p message tag
  std::uint32_t bytes = 0;        ///< p2p/collective payload size
  Rank root = -1;                 ///< rooted collectives
  std::int32_t omp_instance = -1; ///< parallel-region instance (POMP analysis)
  ThreadId thread = 0;            ///< OpenMP thread within the location

  EventType type{};
  CollectiveKind coll{};          ///< CollBegin/CollEnd
};
static_assert(sizeof(Event) == 64, "Event must stay one cache line");

/// Addresses one event inside a Trace.
struct EventRef {
  Rank proc = -1;
  std::uint32_t index = 0;

  bool operator==(const EventRef&) const = default;
};

}  // namespace chronosync
