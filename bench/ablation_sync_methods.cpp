// Ablation — Sec. V survey: every synchronization approach on one trace.
//
// One drifting-clock run; for each method: remaining violations, reversed
// percentage, pairwise sync error against ground truth, and runtime cost.
#include <cctype>
#include <iostream>
#include <optional>

#include "analysis/clock_condition.hpp"
#include "analysis/interval_stats.hpp"
#include "analysis/order.hpp"
#include "benchkit/benchkit.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "sync/clc.hpp"
#include "sync/collective_anchor.hpp"
#include "sync/error_estimation.hpp"
#include "sync/interpolation.hpp"
#include "sync/kalman_drift.hpp"
#include "common/expect.hpp"
#include "sync/node_coupling.hpp"
#include "sync/offset_alignment.hpp"
#include "verify/invariants.hpp"
#include "workload/sweep.hpp"

using namespace chronosync;

namespace {

std::string slugify(const std::string& name) {
  std::string slug;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!slug.empty() && slug.back() != '_') {
      slug += '_';
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  benchkit::Harness harness(cli, "ablation_sync_methods", {1, 0});
  SweepConfig workload;
  workload.rounds = static_cast<int>(cli.get_int("rounds", 600));
  workload.gap_mean = cli.get_double("gap", 3.0);
  workload.collective_every = 50;
  // Mid-run probe batches every k rounds (0 = endpoints only): the model-based
  // methods are only distinguishable from Eq. 3 when they have interior knots.
  workload.probe_every = static_cast<int>(cli.get_int("probe-every", 100));

  JobConfig job;
  const int ranks = static_cast<int>(cli.get_int("ranks", 16));
  job.placement = pinning::inter_node(clusters::xeon_rwth(), ranks);
  job.timer = timer_specs::intel_tsc();
  job.seed = cli.get_seed();
  const benchkit::ConfigList base = {{"ranks", std::to_string(ranks)},
                                     {"rounds", std::to_string(workload.rounds)}};

  std::cerr << "simulating...\n";
  AppRunResult res = run_sweep(workload, std::move(job));
  const auto msgs = res.trace.match_messages();
  const auto logical = derive_logical_messages(res.trace);
  const ReplaySchedule schedule(res.trace, msgs, logical);

  AsciiTable table({"method", "violations", "reversed [%]", "pair sync err [us]",
                    "misordered [%]", "time [ms]"});

  // Opt-in audits: CLC-family outputs must satisfy Eq. 1 exactly; everything
  // else is only held to the structural invariants (finiteness, local order)
  // since pre-sync methods are allowed to leave clock-condition violations.
  verify::VerifyOptions structural_opt;
  structural_opt.clock_condition_slack = kTimeInfinity;
  const verify::InvariantChecker strict_checker(res.trace, schedule);
  const verify::InvariantChecker structural_checker(res.trace, schedule, structural_opt);

  auto report = [&](const std::string& name, bool restores_clock, auto&& make_ts) {
    benchkit::ConfigList config = base;
    config.emplace_back("method", name);
    std::optional<TimestampArray> ts;
    const auto& timing =
        harness.time(slugify(name), config,
                     static_cast<std::int64_t>(res.trace.total_events()),
                     [&] { ts = make_ts(); });
    const auto rep = check_clock_condition(res.trace, *ts, schedule);
    const auto err = message_sync_error(res.trace, *ts, msgs);
    const auto order = order_consistency(res.trace, *ts);
    harness.metric(slugify(name) + "_quality", config,
                   {{"violations", static_cast<double>(rep.violations())},
                    {"reversed_pct", rep.combined_reversed_pct()},
                    {"pair_sync_error_us", to_us(err.mean())},
                    {"misordered_pct", 100.0 * order.misordered_fraction()}});
    table.add_row({name, std::to_string(rep.violations()),
                   AsciiTable::num(rep.combined_reversed_pct(), 2),
                   AsciiTable::num(to_us(err.mean()), 3),
                   AsciiTable::num(100.0 * order.misordered_fraction(), 3),
                   AsciiTable::num(timing.wall_ns_p50 / 1e6, 1)});
    if (cli.has("verify")) {
      const auto& checker = restores_clock ? strict_checker : structural_checker;
      const auto audit = checker.check(*ts);
      if (!audit.ok()) std::cerr << name << ":\n" << audit.summary();
      CS_ENSURE(audit.ok(), "method \"" + name + "\" violates its invariants");
    }
    return *ts;
  };

  report("raw local clocks", false,
         [&] { return TimestampArray::from_local(res.trace); });
  report("offset alignment", false, [&] {
    return apply_correction(res.trace, OffsetAlignment::from_store(res.offsets));
  });
  const auto interp = report("linear interpolation (Eq. 3)", false, [&] {
    return apply_correction(res.trace, LinearInterpolation::from_store(res.offsets));
  });
  report("piecewise interpolation", false, [&] {
    return apply_correction(res.trace, PiecewiseInterpolation::from_store(res.offsets));
  });
  report("Kalman drift filter", false, [&] {
    return apply_correction(res.trace, KalmanDriftCorrection::from_store(res.offsets));
  });
  for (auto method : {EstimationMethod::Regression, EstimationMethod::ConvexHull,
                      EstimationMethod::MinMax}) {
    report("error estimation: " + to_string(method), false, [&] {
      return apply_correction(res.trace,
                              ErrorEstimationCorrection::build(res.trace, msgs, method));
    });
  }
  report("interpolation + CLC", true, [&] {
    return controlled_logical_clock(res.trace, schedule, interp).corrected;
  });
  report("collective anchors (Babaoglu)", false, [&] {
    return apply_correction(res.trace, CollectiveAnchorCorrection::build(res.trace));
  });
  report("interpolation + node-coupled CLC", true, [&] {
    return node_coupled_clc(res.trace, schedule, interp).clc.corrected;
  });
  report("CLC on raw clocks (no pre-sync)", true, [&] {
    return controlled_logical_clock(res.trace, schedule,
                                    TimestampArray::from_local(res.trace))
        .corrected;
  });

  std::cout << "\nABLATION -- synchronization methods on one trace ("
            << res.trace.total_events() << " events, " << msgs.size() << " messages, "
            << logical.size() << " logical messages)\n\n"
            << table.render()
            << "\nOnly the CLC variants restore the clock condition exactly; CLC run on\n"
               "raw clocks shows why the paper recommends pre-synchronization (its\n"
               "sync error stays offset-sized even though violations are gone).\n";
  return 0;
}
