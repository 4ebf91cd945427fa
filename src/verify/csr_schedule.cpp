#include "verify/csr_schedule.hpp"

#include "common/expect.hpp"

namespace chronosync::verify {

CsrSchedule::CsrSchedule(const Trace& trace, const std::vector<MessageRecord>& messages,
                         const std::vector<LogicalMessage>& logical) {
  const int n = trace.ranks();
  prefix_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (Rank r = 0; r < n; ++r) {
    prefix_[static_cast<std::size_t>(r) + 1] =
        prefix_[static_cast<std::size_t>(r)] +
        static_cast<std::uint32_t>(trace.events(r).size());
    rank_of_.insert(rank_of_.end(), trace.events(r).size(), r);
  }
  const std::size_t total = rank_of_.size();

  // Count degrees, prefix-sum into offsets, then fill with each event's
  // offset as its cursor; one shift restores the offsets.
  in_off_.assign(total + 1, 0);
  out_off_.assign(total + 1, 0);
  const auto count = [&](const EventRef& send, const EventRef& recv) {
    ++in_off_[global_index(recv) + 1];
    ++out_off_[global_index(send) + 1];
  };
  for (const auto& msg : messages) count(msg.send, msg.recv);
  for (const auto& lm : logical) count(lm.send, lm.recv);
  for (std::size_t g = 0; g < total; ++g) {
    in_off_[g + 1] += in_off_[g];
    out_off_[g + 1] += out_off_[g];
  }

  in_edges_.resize(messages.size() + logical.size());
  out_edges_.resize(messages.size() + logical.size());
  out_l_min_.resize(messages.size() + logical.size());
  const auto fill = [&](const EventRef& send, const EventRef& recv, bool is_logical) {
    const std::uint32_t src = global_index(send);
    const std::uint32_t dst = global_index(recv);
    const Duration l_min = trace.min_latency(send.proc, recv.proc);
    in_edges_[in_off_[dst]++] = {src, is_logical, l_min};
    out_l_min_[out_off_[src]] = l_min;
    out_edges_[out_off_[src]++] = dst;
  };
  for (const auto& msg : messages) fill(msg.send, msg.recv, false);
  for (const auto& lm : logical) fill(lm.send, lm.recv, true);
  for (std::size_t g = total; g > 0; --g) {
    in_off_[g] = in_off_[g - 1];
    out_off_[g] = out_off_[g - 1];
  }
  in_off_[0] = 0;
  out_off_[0] = 0;
}

std::uint32_t CsrSchedule::global_index(const EventRef& ref) const {
  CS_REQUIRE(ref.proc >= 0 && ref.proc < ranks(), "rank out of range");
  CS_REQUIRE(ref.index < rank_size(ref.proc), "event index out of range for its rank");
  return prefix_[static_cast<std::size_t>(ref.proc)] + ref.index;
}

}  // namespace chronosync::verify
