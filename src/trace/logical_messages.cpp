#include "trace/logical_messages.hpp"

#include "trace/edge_rules.hpp"

namespace chronosync {

std::vector<LogicalMessage> derive_logical_messages(
    const Trace& /*trace*/, const std::vector<CollectiveInstance>& collectives) {
  std::vector<LogicalMessage> out;
  for (const auto& inst : collectives) {
    edge_rules::for_each_logical_edge(
        inst.kind, inst.root, inst.begins, inst.ends, [](const EventRef& ref) { return ref.proc; },
        [&](const EventRef& begin, const EventRef& end) {
          out.push_back({begin, end, inst.coll_id});
        });
  }
  return out;
}

std::vector<LogicalMessage> derive_logical_messages(const Trace& trace) {
  return derive_logical_messages(trace, trace.collect_collectives());
}

}  // namespace chronosync
