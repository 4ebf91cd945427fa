#include "sync/replay.hpp"

#include <stdexcept>
#include <string>

namespace chronosync {

ReplaySchedule::ReplaySchedule(const Trace& trace, const std::vector<MessageRecord>& messages,
                               const std::vector<LogicalMessage>& logical)
    : trace_(&trace) {
  const int n = trace.ranks();
  prefix_.resize(static_cast<std::size_t>(n) + 1);
  prefix_[0] = 0;
  for (Rank r = 0; r < n; ++r) {
    prefix_[static_cast<std::size_t>(r) + 1] =
        prefix_[static_cast<std::size_t>(r)] +
        static_cast<std::uint32_t>(trace.events(r).size());
  }
  total_ = prefix_.back();

  rank_of_.resize(total_);
  for (Rank r = 0; r < n; ++r) {
    for (std::uint32_t g = prefix_[static_cast<std::size_t>(r)];
         g < prefix_[static_cast<std::size_t>(r) + 1]; ++g) {
      rank_of_[g] = r;
    }
  }

  // CSR build: count degrees, prefix-sum into offsets, then fill, using each
  // event's offset as its fill cursor.  Filling advances every cursor to the
  // next event's offset, so one shift restores the offsets.  p2p messages
  // are filled before logical ones, so each event's incoming edges keep that
  // order.
  in_off_.assign(total_ + 1, 0);
  out_off_.assign(total_ + 1, 0);
  const auto count = [&](const EventRef& send, const EventRef& recv) {
    ++in_off_[global_index(recv) + 1];
    ++out_off_[global_index(send) + 1];
  };
  for (const auto& msg : messages) count(msg.send, msg.recv);
  for (const auto& lm : logical) count(lm.send, lm.recv);
  for (std::size_t g = 0; g < total_; ++g) {
    in_off_[g + 1] += in_off_[g];
    out_off_[g + 1] += out_off_[g];
  }

  const std::size_t m = messages.size() + logical.size();
  in_edges_.resize(m);
  out_edges_.resize(m);
  const auto fill = [&](const EventRef& send, const EventRef& recv, bool is_logical) {
    const std::uint32_t src = global_index(send);
    const std::uint32_t dst = global_index(recv);
    in_edges_[in_off_[dst]++] = {src, is_logical, trace.min_latency(send.proc, recv.proc)};
    out_edges_[out_off_[src]++] = dst;
  };
  for (const auto& msg : messages) fill(msg.send, msg.recv, false);
  for (const auto& lm : logical) fill(lm.send, lm.recv, true);
  for (std::size_t g = total_; g > 0; --g) {
    in_off_[g] = in_off_[g - 1];
    out_off_[g] = out_off_[g - 1];
  }
  in_off_[0] = 0;
  out_off_[0] = 0;
}

std::uint32_t ReplaySchedule::global_index(const EventRef& ref) const {
  CS_REQUIRE(ref.proc >= 0 && ref.proc < trace_->ranks(), "rank out of range");
  CS_REQUIRE(ref.index < rank_size(ref.proc), "event index out of range for its rank");
  return prefix_[static_cast<std::size_t>(ref.proc)] + ref.index;
}

EventRef ReplaySchedule::event_ref(std::uint32_t gidx) const {
  CS_REQUIRE(gidx < total_, "global index out of range");
  const Rank r = rank_of_[gidx];
  return {r, gidx - prefix_[static_cast<std::size_t>(r)]};
}

void throw_cyclic_constraints(const EventRef& blocked) {
  throw std::invalid_argument("cyclic constraint graph: rank " + std::to_string(blocked.proc) +
                              " is blocked forever at event " +
                              std::to_string(blocked.index));
}

}  // namespace chronosync
