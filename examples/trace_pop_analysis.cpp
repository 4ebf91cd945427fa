// POP trace analysis: run the POP proxy under a chosen timer, write the
// trace to disk, read it back, and report clock-condition statistics under
// several corrections — the workflow of a trace-analysis tool user.
//
//   $ trace_pop_analysis [--timer tsc|gettimeofday|mpi-wtime] [--iters 200]
//                        [--out pop_trace.bin] [--seed 42]
#include <iostream>

#include "analysis/clock_condition.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sync/interpolation.hpp"
#include "sync/offset_alignment.hpp"
#include "sync/replay.hpp"
#include "trace/stream_io.hpp"
#include "workload/pop.hpp"

using namespace chronosync;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  const std::string timer_name = cli.get("timer", "tsc");
  const int iters = static_cast<int>(cli.get_int("iters", 200));
  const std::string out = cli.get("out", "pop_trace.bin");

  const TimerSpec timer = timer_specs::by_name(timer_name);

  PopConfig pop;
  pop.px = 8;
  pop.py = 4;
  pop.total_iterations = iters * 3;
  pop.traced_begin = iters;
  pop.traced_end = 2 * iters;
  pop.iter_compute = 150 * units::ms;

  JobConfig job;
  Rng pin_rng(cli.get_seed() ^ 0x9e3779b9);
  job.placement = pinning::scheduler_default(clusters::xeon_rwth(), 32, pin_rng);
  job.timer = timer;
  job.seed = cli.get_seed();

  std::cout << "Running POP proxy (32 ranks, " << iters << " traced iterations, timer "
            << timer.name << ")...\n";
  AppRunResult res = run_pop(pop, std::move(job));

  write_trace_v2_file(res.trace, out);
  std::cout << "Trace written to " << out << " (" << res.trace.total_events()
            << " events); reading back for analysis.\n\n";
  Trace trace = read_trace_v2_file(out);

  // The constraint edges depend only on the trace, so one schedule serves
  // every correction below.
  const ReplaySchedule schedule(trace, trace.match_messages(), derive_logical_messages(trace));

  AsciiTable table({"correction", "p2p reversed [%]", "p2p violations [%]",
                    "collective reversed [%]"});
  auto report = [&](const std::string& name, const TimestampArray& ts) {
    const auto rep = check_clock_condition(trace, ts, schedule);
    table.add_row({name, AsciiTable::num(rep.p2p_reversed_pct(), 3),
                   AsciiTable::num(rep.p2p_violation_pct(), 3),
                   AsciiTable::num(rep.logical_reversed_pct(), 3)});
  };

  report("raw local clocks", TimestampArray::from_local(trace));
  report("offset alignment", apply_correction(trace, OffsetAlignment::from_store(res.offsets)));
  report("linear interpolation",
         apply_correction(trace, LinearInterpolation::from_store(res.offsets)));

  std::cout << table.render();
  return 0;
}
