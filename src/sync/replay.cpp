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

  // CSR build: count degrees, prefix-sum into offsets, then fill.  Filling
  // iterates p2p messages before logical ones, so each event's incoming edges
  // keep that order.
  const std::size_t m = messages.size() + logical.size();
  std::vector<std::uint32_t> src(m), dst(m);
  std::vector<Duration> lmin(m);
  std::size_t k = 0;
  for (const auto& msg : messages) {
    src[k] = global_index(msg.send);
    dst[k] = global_index(msg.recv);
    lmin[k] = trace.min_latency(msg.send.proc, msg.recv.proc);
    ++k;
  }
  const std::size_t first_logical = k;
  for (const auto& lm : logical) {
    src[k] = global_index(lm.send);
    dst[k] = global_index(lm.recv);
    lmin[k] = trace.min_latency(lm.send.proc, lm.recv.proc);
    ++k;
  }

  in_off_.assign(total_ + 1, 0);
  out_off_.assign(total_ + 1, 0);
  for (std::size_t e = 0; e < m; ++e) {
    ++in_off_[dst[e] + 1];
    ++out_off_[src[e] + 1];
  }
  for (std::size_t g = 0; g < total_; ++g) {
    in_off_[g + 1] += in_off_[g];
    out_off_[g + 1] += out_off_[g];
  }

  in_edges_.resize(m);
  out_edges_.resize(m);
  std::vector<std::uint32_t> in_fill(in_off_.begin(), in_off_.end() - 1);
  std::vector<std::uint32_t> out_fill(out_off_.begin(), out_off_.end() - 1);
  for (std::size_t e = 0; e < m; ++e) {
    in_edges_[in_fill[dst[e]]++] = {src[e], e >= first_logical, lmin[e]};
    out_edges_[out_fill[src[e]]++] = dst[e];
  }
}

std::uint32_t ReplaySchedule::global_index(const EventRef& ref) const {
  CS_REQUIRE(ref.proc >= 0 && ref.proc < trace_->ranks(), "rank out of range");
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
