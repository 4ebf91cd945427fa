// CLC repair walkthrough: compares every synchronization method the paper
// surveys (Sec. V) on the same drifting-clock trace, including ground-truth
// accuracy numbers that only a simulation can provide.
//
//   $ clc_repair [--ranks 8] [--rounds 400] [--seed 42]
#include <iostream>
#include <memory>

#include "analysis/clock_condition.hpp"
#include "analysis/interval_stats.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sync/clc.hpp"
#include "sync/error_estimation.hpp"
#include "sync/interpolation.hpp"
#include "sync/offset_alignment.hpp"
#include "workload/sweep.hpp"

using namespace chronosync;

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  SweepConfig workload;
  workload.rounds = static_cast<int>(cli.get_int("rounds", 400));
  workload.gap_mean = 2.0;
  workload.collective_every = 40;

  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(),
                                      static_cast<int>(cli.get_int("ranks", 8)));
  job.timer = timer_specs::intel_tsc();
  job.seed = cli.get_seed();

  AppRunResult res = run_sweep(workload, std::move(job));
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);

  AsciiTable table({"method", "violations", "reversed [%]", "truth error [us]"});
  auto report = [&](const std::string& name, const TimestampArray& ts) {
    const auto rep = check_clock_condition(res.trace, ts, schedule);
    const auto err = truth_error(res.trace, ts);
    table.add_row({name, std::to_string(rep.violations()),
                   AsciiTable::num(rep.combined_reversed_pct(), 3),
                   AsciiTable::num(to_us(err.mean()), 3)});
    return ts;
  };

  report("raw local clocks", TimestampArray::from_local(res.trace));
  report("offset alignment",
         apply_correction(res.trace, OffsetAlignment::from_store(res.offsets)));
  const auto interp = report(
      "linear interpolation (Eq. 3)",
      apply_correction(res.trace, LinearInterpolation::from_store(res.offsets)));
  for (auto method : {EstimationMethod::Regression, EstimationMethod::ConvexHull,
                      EstimationMethod::MinMax}) {
    const auto corr = ErrorEstimationCorrection::build(res.trace, msgs, method);
    report("error estimation: " + to_string(method), apply_correction(res.trace, corr));
  }

  const ClcResult clc = controlled_logical_clock(res.trace, schedule, interp);
  report("interpolation + CLC", clc.corrected);

  std::cout << table.render() << "\nCLC repaired " << clc.violations_repaired
            << " receives (max jump " << to_us(clc.max_jump) << " us, total "
            << to_us(clc.total_jump) << " us)\n";

  const auto dist = interval_distortion(res.trace, interp, clc.corrected);
  std::cout << "interval distortion vs. interpolated input: mean "
            << to_us(dist.absolute.mean()) << " us, max " << to_us(dist.absolute.max())
            << " us over " << dist.intervals << " intervals\n";
  return 0;
}
