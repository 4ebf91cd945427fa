#include <gtest/gtest.h>

#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "topology/cluster.hpp"
#include "verify/differential.hpp"
#include "workload/smg2000.hpp"
#include "workload/sweep.hpp"

namespace chronosync {
namespace {

// The windowed streaming CLC promises bit-identical output to the in-memory
// CLC whenever its divergence counters stay zero.  cross_check_windowed_clc
// asserts exactly that; here it runs over real workload traces (message +
// collective traffic, genuine drift-induced violations) and over several
// option points, so the sanitizer suite sweeps the whole streaming engine.

std::vector<std::string> check(const Trace& trace, StreamClcOptions opt) {
  std::vector<std::string> failures;
  const std::size_t n = verify::cross_check_windowed_clc(trace, testing::TempDir(), opt, failures);
  EXPECT_GT(n, 1u);
  return failures;
}

TEST(WindowedClc, SweepWorkloadMatchesInMemory) {
  SweepConfig cfg;
  cfg.rounds = 25;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 17;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;

  StreamClcOptions opt;
  opt.emit_batch = 24;  // small batches: exercise interim sweeps + finality rules
  opt.backward_window = 1e3;  // above every ramp: the run must be divergence-free
  for (const std::string& f : check(trace, opt)) ADD_FAILURE() << f;
}

TEST(WindowedClc, CollectiveHeavyWorkloadMatchesInMemory) {
  SmgConfig cfg;
  cfg.px = 4;
  cfg.py = 2;
  cfg.levels = 3;
  cfg.iterations = 2;
  cfg.setup_exchanges = 1;
  cfg.level_compute = 100 * units::us;
  cfg.pre_sleep = 0.5;
  cfg.post_sleep = 0.5;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 8);
  job.timer = timer_specs::intel_tsc();
  job.seed = 23;
  const Trace trace = run_smg(cfg, std::move(job)).trace;

  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;
  for (const std::string& f : check(trace, opt)) ADD_FAILURE() << f;
  StreamClcOptions no_ba;
  no_ba.clc.backward_amortization = false;
  no_ba.emit_batch = 16;
  for (const std::string& f : check(trace, no_ba)) ADD_FAILURE() << f;
}

TEST(WindowedClc, ConcurrentCrossChecksShareOneWorkDir) {
  // Regression: the cross-check used fixed scratch names inside work_dir, so
  // concurrent runs sharing it (ctest -j, parallel chronocheck) overwrote
  // each other's trace and spill files.  Two at once must both stay clean
  // and leave nothing behind.
  SweepConfig cfg;
  cfg.rounds = 40;
  JobConfig job;
  job.placement = pinning::inter_node(clusters::xeon_rwth(), 4);
  job.timer = timer_specs::intel_tsc();
  job.seed = 31;
  const Trace trace = run_sweep(cfg, std::move(job)).trace;
  StreamClcOptions opt;
  opt.emit_batch = 16;
  opt.backward_window = 1e3;

  const std::filesystem::path work =
      std::filesystem::path(testing::TempDir()) / "windowed_clc_concurrent";
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);
  std::vector<std::string> failures[2];
  {
    std::vector<std::thread> runs;
    for (auto& f : failures) {
      runs.emplace_back([&] {
        try {
          verify::cross_check_windowed_clc(trace, work.string(), opt, f);
        } catch (const std::exception& e) {
          f.push_back(e.what());
        }
      });
    }
    for (auto& t : runs) t.join();
  }
  for (const auto& f : failures) {
    for (const std::string& msg : f) ADD_FAILURE() << msg;
  }
  EXPECT_TRUE(std::filesystem::is_empty(work));
  std::filesystem::remove_all(work);
}

}  // namespace
}  // namespace chronosync
