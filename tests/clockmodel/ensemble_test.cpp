#include "clockmodel/clock_ensemble.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "clockmodel/timer_spec.hpp"
#include "topology/cluster.hpp"

namespace chronosync {
namespace {

TEST(TimerSpecs, NamesAreDistinct) {
  EXPECT_EQ(timer_specs::perfect().name, "perfect");
  EXPECT_EQ(timer_specs::intel_tsc().name, "intel-tsc");
  EXPECT_EQ(timer_specs::mpi_wtime().name, "mpi-wtime");
  EXPECT_NE(timer_specs::gettimeofday_ntp().name, timer_specs::opteron_gettimeofday().name);
}

TEST(TimerSpecs, SoftwareClocksAreNtpDisciplined) {
  EXPECT_TRUE(timer_specs::gettimeofday_ntp().ntp_disciplined);
  EXPECT_TRUE(timer_specs::mpi_wtime().ntp_disciplined);
  EXPECT_FALSE(timer_specs::intel_tsc().ntp_disciplined);
  EXPECT_FALSE(timer_specs::ibm_time_base().ntp_disciplined);
}

TEST(TimerSpecs, GettimeofdayHasMicrosecondResolution) {
  EXPECT_DOUBLE_EQ(timer_specs::gettimeofday_ntp().resolution, 1e-6);
}

TEST(TimerRegistry, ByNameAndAliases) {
  EXPECT_EQ(timer_specs::by_name("intel-tsc").kind, TimerKind::IntelTsc);
  EXPECT_EQ(timer_specs::by_name("tsc").kind, TimerKind::IntelTsc);
  EXPECT_EQ(timer_specs::by_name("tb").kind, TimerKind::IbmTimeBase);
  EXPECT_EQ(timer_specs::by_name("mpi-wtime").kind, TimerKind::MpiWtime);
  EXPECT_THROW(timer_specs::by_name("sundial"), std::invalid_argument);
}

TEST(TimerRegistry, AllHasUniqueNames) {
  const auto specs = timer_specs::all();
  EXPECT_GE(specs.size(), 8u);
  std::set<std::string> names;
  for (const auto& s : specs) names.insert(s.name);
  EXPECT_EQ(names.size(), specs.size());
}

TEST(ClockEnsemble, PerfectClocksAgreeExactly) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 4);
  ClockEnsemble ens(pl, timer_specs::perfect(), RngTree(1));
  for (Time t : {0.0, 100.0, 3600.0}) {
    for (Rank r = 1; r < 4; ++r) {
      EXPECT_DOUBLE_EQ(ens.deviation(r, 0, t), 0.0);
    }
  }
}

TEST(ClockEnsemble, CrossNodeClocksDrift) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 4);
  ClockEnsemble ens(pl, timer_specs::intel_tsc(), RngTree(2));
  // After removing initial offsets, cross-node deviations must grow with
  // time (different node oscillators).
  const Duration d0 = ens.deviation(1, 0, 0.0);
  const Duration d1 = ens.deviation(1, 0, 3600.0);
  EXPECT_GT(std::abs(d1 - d0), 1 * units::ms * 0.001);  // >1 us of relative drift
}

TEST(ClockEnsemble, SameNodeTscStaysTightlyCoupled) {
  // Ranks on one node share the TSC oscillator: deviation stays at the
  // (sub-microsecond) offset noise level for the whole run.
  const Placement pl = pinning::inter_core(clusters::xeon_rwth(), 4);
  ClockEnsemble ens(pl, timer_specs::intel_tsc(), RngTree(3));
  const Duration d0 = ens.deviation(1, 0, 0.0);
  const Duration d1 = ens.deviation(1, 0, 3600.0);
  EXPECT_LT(std::abs(d0), 0.5 * units::us);
  EXPECT_NEAR(d0, d1, 1e-12);  // shared oscillator: difference is constant
}

TEST(ClockEnsemble, PerChipScopeSeparatesChips) {
  const Placement pl = pinning::block(clusters::itanium_smp_node(), 8);
  ClockEnsemble ens(pl, timer_specs::itanium_tsc(), RngTree(4));
  // Ranks 0..3 share chip 0; ranks 4..7 chip 1.  Same-chip pairs differ only
  // by constant offsets; cross-chip pairs drift apart slowly.
  const Duration same0 = ens.deviation(1, 0, 0.0);
  const Duration same1 = ens.deviation(1, 0, 100.0);
  EXPECT_NEAR(same0, same1, 1e-10);
  const Duration cross0 = ens.deviation(4, 0, 0.0);
  const Duration cross1 = ens.deviation(4, 0, 300.0);
  EXPECT_NE(cross0, cross1);
}

TEST(ClockEnsemble, DeterministicAcrossConstruction) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 4);
  ClockEnsemble a(pl, timer_specs::intel_tsc(), RngTree(5));
  ClockEnsemble b(pl, timer_specs::intel_tsc(), RngTree(5));
  for (Rank r = 0; r < 4; ++r) {
    EXPECT_DOUBLE_EQ(a.clock(r).local_time(1800.0), b.clock(r).local_time(1800.0));
  }
}

TEST(ClockEnsemble, SeedChangesClocks) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 2);
  ClockEnsemble a(pl, timer_specs::intel_tsc(), RngTree(6));
  ClockEnsemble b(pl, timer_specs::intel_tsc(), RngTree(7));
  EXPECT_NE(a.clock(1).local_time(100.0), b.clock(1).local_time(100.0));
}

TEST(ClockEnsemble, NtpClockBoundedDivergence) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 4);
  ClockEnsemble ens(pl, timer_specs::gettimeofday_ntp(), RngTree(8));
  // Disciplined system clocks stay within NTP-grade bounds (~ms).
  EXPECT_LT(std::abs(ens.deviation(1, 0, 3600.0)), 30 * units::ms);
}

TEST(ClockEnsemble, RankRangeChecked) {
  const Placement pl = pinning::inter_node(clusters::xeon_rwth(), 2);
  ClockEnsemble ens(pl, timer_specs::perfect(), RngTree(1));
  EXPECT_THROW(ens.clock(2), std::invalid_argument);
  EXPECT_THROW(ens.clock(-1), std::invalid_argument);
}

}  // namespace
}  // namespace chronosync
