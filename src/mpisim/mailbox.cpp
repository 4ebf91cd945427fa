#include "mpisim/mailbox.hpp"

#include <utility>

#include "obs/obs.hpp"
#include "obs/registry.hpp"

namespace chronosync {

void Mailbox::deliver(Message msg, Time t) {
  for (auto it = posted_.begin(); it != posted_.end(); ++it) {
    if (matches(it->src, it->tag, msg)) {
      Trigger* ack = msg.sender_ack;
      *it->out = std::move(msg);
      *it->arrival = t;
      if (it->complete) *it->complete = true;
      Trigger* tr = it->tr;
      const std::shared_ptr<void> keepalive = std::move(it->keepalive);
      posted_.erase(it);
      tr->fire(t);
      if (ack) ack->fire(t);
      return;
    }
  }
  unexpected_.push_back({std::move(msg), t});
  if (obs::metrics_enabled()) {
    static obs::Counter& unexpected = obs::counter("mpisim.unexpected_msgs");
    // Queue occupancy after the push, one sample per insertion.
    static obs::QuantileHisto& depth = obs::quantile_histogram("mpisim.unexpected_depth");
    unexpected.add(1);
    depth.add(static_cast<double>(unexpected_.size()));
  }
}

std::optional<std::pair<Message, Time>> Mailbox::try_match(Rank src, Tag tag, Time now) {
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (matches(src, tag, it->msg)) {
      auto result = std::make_pair(std::move(it->msg), it->arrival);
      unexpected_.erase(it);
      if (result.first.sender_ack) result.first.sender_ack->fire(now);
      return result;
    }
  }
  return std::nullopt;
}

void Mailbox::post(Rank src, Tag tag, Message* out, Time* arrival, Trigger* tr,
                   bool* complete, std::shared_ptr<void> keepalive) {
  posted_.push_back({src, tag, out, arrival, tr, complete, std::move(keepalive)});
  if (obs::metrics_enabled()) {
    static obs::Counter& posted = obs::counter("mpisim.posted_recvs");
    static obs::QuantileHisto& depth = obs::quantile_histogram("mpisim.posted_depth");
    posted.add(1);
    depth.add(static_cast<double>(posted_.size()));
  }
}

}  // namespace chronosync
