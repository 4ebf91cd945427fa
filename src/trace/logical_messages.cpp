#include "trace/logical_messages.hpp"

#include "obs/obs.hpp"
#include "trace/edge_rules.hpp"

namespace chronosync {

std::vector<LogicalMessage> derive_logical_messages(
    const Trace& /*trace*/, const std::vector<CollectiveInstance>& collectives) {
  CS_SPAN("trace.derive");
  // Two walks of the same rule: the first counts, so the output is
  // allocated once at its final size.
  const auto proc_of = [](const EventRef& ref) { return ref.proc; };
  std::size_t edges = 0;
  for (const auto& inst : collectives) {
    edge_rules::for_each_logical_edge(inst.kind, inst.root, inst.begins, inst.ends, proc_of,
                                      [&](const EventRef&, const EventRef&) { ++edges; });
  }
  std::vector<LogicalMessage> out;
  out.reserve(edges);
  for (const auto& inst : collectives) {
    edge_rules::for_each_logical_edge(
        inst.kind, inst.root, inst.begins, inst.ends, proc_of,
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
