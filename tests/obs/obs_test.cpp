// Tests for the obs span tracer and metrics registry: Chrome trace-event
// output shape (golden, via synthetic timestamps), multi-threaded recording
// (run under TSan in CI), ring overflow accounting, and level gating.
#include "obs/obs.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "benchkit/json.hpp"
#include "obs/registry.hpp"

namespace chronosync::obs {
namespace {

using benchkit::JsonValue;

/// Every test starts from a clean recording state at level Off and restores
/// it afterwards (ring capacity back to the library default, too — it only
/// affects threads registering after the call).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_level(Level::Off);
    reset();
    set_ring_capacity(1u << 15);
  }
  void TearDown() override {
    set_level(Level::Off);
    reset();
    set_ring_capacity(1u << 15);
  }
};

JsonValue write_and_parse() {
  std::ostringstream os;
  write_chrome_trace(os);
  return JsonValue::parse(os.str());
}

const JsonValue& trace_events(const JsonValue& doc) {
  const JsonValue* events = doc.find("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_TRUE(events->is_array());
  return *events;
}

/// Tid of the thread whose thread_name metadata equals `name`; -1 if absent.
int tid_of(const JsonValue& doc, const std::string& name) {
  for (const JsonValue& ev : trace_events(doc).items()) {
    const JsonValue* ph = ev.find("ph");
    const JsonValue* what = ev.find("name");
    if (ph == nullptr || ph->as_string() != "M") continue;
    if (what == nullptr || what->as_string() != "thread_name") continue;
    const JsonValue* args = ev.find("args");
    if (args == nullptr) continue;
    const JsonValue* n = args->find("name");
    if (n != nullptr && n->is_string() && n->as_string() == name) {
      return static_cast<int>(ev.find("tid")->as_number());
    }
  }
  return -1;
}

/// Chrome-trace validity: per-thread B/E sequences must nest (each E names
/// the innermost open B) and close by end of file.  Returns spans matched.
std::size_t expect_well_formed(const JsonValue& doc) {
  std::map<int, std::vector<std::string>> open;
  std::map<int, double> last_ts;
  std::size_t matched = 0;
  for (const JsonValue& ev : trace_events(doc).items()) {
    const std::string ph = ev.find("ph")->as_string();
    if (ph == "M") continue;
    const int tid = static_cast<int>(ev.find("tid")->as_number());
    const double ts = ev.find("ts")->as_number();
    EXPECT_GE(ts, 0.0);
    if (ph == "C") {
      const JsonValue* args = ev.find("args");
      EXPECT_NE(args, nullptr);
      const JsonValue* value = args == nullptr ? nullptr : args->find("value");
      EXPECT_NE(value, nullptr);
      if (value != nullptr) {
        EXPECT_TRUE(value->is_number());
      }
      continue;
    }
    // B/E on one thread must come out in non-decreasing timestamp order.
    auto [it, fresh] = last_ts.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second);
    }
    it->second = ts;
    const std::string name = ev.find("name")->as_string();
    if (ph == "B") {
      open[tid].push_back(name);
    } else {
      EXPECT_EQ(ph, "E");
      EXPECT_FALSE(open[tid].empty()) << "'E' without open span on tid " << tid;
      if (open[tid].empty()) continue;
      EXPECT_EQ(open[tid].back(), name);
      open[tid].pop_back();
      ++matched;
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
  return matched;
}

TEST_F(ObsTest, LevelRoundTripsThroughNames) {
  for (Level level : {Level::Off, Level::Metrics, Level::Trace}) {
    Level parsed = Level::Off;
    ASSERT_TRUE(parse_level(to_string(level), parsed));
    EXPECT_EQ(parsed, level);
  }
  Level ignored = Level::Off;
  EXPECT_FALSE(parse_level("verbose", ignored));
  EXPECT_FALSE(parse_level("", ignored));
}

TEST_F(ObsTest, GoldenTraceShapeFromSyntheticTimestamps) {
  set_level(Level::Trace);
  // Synthetic timestamps make the exported event sequence fully
  // deterministic; a dedicated named thread isolates it from any recording
  // the test process did elsewhere.
  std::thread recorder([] {
    set_thread_name("golden");
    detail::record_counter("golden.counter", 2500, 7.0);
    detail::record_span("inner", 2000, 4000);  // children record first
    detail::record_span("outer", 1000, 9000);
    detail::record_counter("golden.fraction", 5000, 0.25);
  });
  recorder.join();

  const JsonValue doc = write_and_parse();
  ASSERT_NE(doc.find("displayTimeUnit"), nullptr);
  EXPECT_EQ(doc.find("displayTimeUnit")->as_string(), "ms");
  ASSERT_NE(doc.find("otherData"), nullptr);
  EXPECT_EQ(doc.find("otherData")->find("generator")->as_string(), "chronosync-obs");

  const int tid = tid_of(doc, "golden");
  ASSERT_GE(tid, 0);
  expect_well_formed(doc);

  // Exact (ph, ts, name[, value]) sequence for the golden thread.  ts is
  // microseconds with fixed millisecond-of-a-microsecond precision.
  std::vector<std::string> got;
  for (const JsonValue& ev : trace_events(doc).items()) {
    if (ev.find("ph")->as_string() == "M") continue;
    if (static_cast<int>(ev.find("tid")->as_number()) != tid) continue;
    // The trailing drop-summary counter rides on tid 0, not the recorder.
    if (ev.find("name")->as_string() == "obs.dropped_spans") continue;
    std::ostringstream line;
    line << ev.find("ph")->as_string() << ' ' << ev.find("ts")->as_number() << ' '
         << ev.find("name")->as_string();
    if (const JsonValue* args = ev.find("args"); args != nullptr) {
      line << ' ' << args->find("value")->as_number();
    }
    got.push_back(line.str());
  }
  const std::vector<std::string> want = {
      "B 1 outer", "B 2 inner", "E 4 inner", "E 9 outer",
      "C 2.5 golden.counter 7", "C 5 golden.fraction 0.25",
  };
  EXPECT_EQ(got, want);

  // Counter events carry a per-thread series id.
  for (const JsonValue& ev : trace_events(doc).items()) {
    if (ev.find("ph")->as_string() != "C") continue;
    if (static_cast<int>(ev.find("tid")->as_number()) != tid) continue;
    if (ev.find("name")->as_string() == "obs.dropped_spans") continue;
    ASSERT_NE(ev.find("id"), nullptr);
    EXPECT_EQ(ev.find("id")->as_string(), "t" + std::to_string(tid));
  }
}

TEST_F(ObsTest, EightThreadsOverlappingSpansStayWellNested) {
  set_level(Level::Trace);
  constexpr int kThreads = 8;
  constexpr int kIters = 200;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t] {
      set_thread_name("worker-" + std::to_string(t));
      for (int i = 0; i < kIters; ++i) {
        CS_SPAN("test.outer");
        counter_sample("test.progress", i);
        {
          CS_SPAN("test.inner");
          counter_sample("test.depth", 2);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();

  const TraceStats stats = trace_stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.spans, static_cast<std::uint64_t>(kThreads) * kIters * 2);
  EXPECT_EQ(stats.counter_samples, static_cast<std::uint64_t>(kThreads) * kIters * 2);

  const JsonValue doc = write_and_parse();
  EXPECT_EQ(expect_well_formed(doc), stats.spans);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_GE(tid_of(doc, "worker-" + std::to_string(t)), 0) << t;
  }
}

TEST_F(ObsTest, RingOverflowCountsDropsAndKeepsOutputParseable) {
  set_level(Level::Trace);
  set_ring_capacity(16);
  constexpr int kSpans = 100;
  // The shrunken capacity only applies to threads registering afterwards, so
  // record from a fresh one.
  std::thread recorder([] {
    set_thread_name("overflow");
    for (int i = 0; i < kSpans; ++i) {
      CS_SPAN("test.flood");
    }
  });
  recorder.join();

  const TraceStats stats = trace_stats();
  EXPECT_EQ(stats.dropped, static_cast<std::uint64_t>(kSpans - 16));

  // Drops also surface as a registry counter for --metrics-out consumers.
  const std::int64_t dropped_metric = counter("obs.dropped_spans").value();
  EXPECT_EQ(dropped_metric, kSpans - 16);

  const JsonValue doc = write_and_parse();
  expect_well_formed(doc);

  // The exported trace ends with the obs.dropped_spans counter track.
  double last_dropped = -1.0;
  for (const JsonValue& ev : trace_events(doc).items()) {
    const JsonValue* name = ev.find("name");
    if (ev.find("ph")->as_string() == "C" && name->as_string() == "obs.dropped_spans") {
      last_dropped = ev.find("args")->find("value")->as_number();
    }
  }
  EXPECT_EQ(last_dropped, static_cast<double>(kSpans - 16));
}

TEST_F(ObsTest, DisabledLevelsRecordNothing) {
  set_level(Level::Off);
  std::thread recorder([] {
    CS_SPAN("test.invisible");
    counter_sample("test.invisible", 1.0);
  });
  recorder.join();
  EXPECT_EQ(trace_stats().spans, 0u);
  EXPECT_EQ(trace_stats().counter_samples, 0u);

  // Metrics level accumulates registry values but records no timeline.
  set_level(Level::Metrics);
  counter("test.metrics_only").add(3);
  counter_sample("test.metrics_only", 1.0);
  EXPECT_EQ(counter("test.metrics_only").value(), 3);
  EXPECT_EQ(trace_stats().counter_samples, 0u);
}

TEST_F(ObsTest, RegistryAggregatesAcrossThreadsAndSnapshots) {
  set_level(Level::Metrics);
  constexpr int kThreads = 8;
  constexpr int kAdds = 1000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      Counter& c = counter("test.reg_counter");
      QuantileHisto& h = quantile_histogram("test.reg_histo");
      for (int i = 0; i < kAdds; ++i) {
        c.add(1);
        h.add(static_cast<double>(i % 100));
      }
      gauge("test.reg_gauge").set(42.5);
    });
  }
  for (std::thread& th : pool) th.join();

  EXPECT_EQ(counter("test.reg_counter").value(), kThreads * kAdds);
  EXPECT_EQ(gauge("test.reg_gauge").value(), 42.5);
  const QuantileSnapshot merged = quantile_histogram("test.reg_histo").snapshot();
  EXPECT_EQ(merged.count, static_cast<std::uint64_t>(kThreads) * kAdds);
  EXPECT_EQ(merged.min, 0.0);
  EXPECT_EQ(merged.max, 99.0);

  std::map<std::string, double> snap;
  for (const auto& [name, value] : metrics_snapshot()) snap[name] = value;
  EXPECT_EQ(snap.at("test.reg_counter"), static_cast<double>(kThreads * kAdds));
  EXPECT_EQ(snap.at("test.reg_gauge"), 42.5);
  EXPECT_EQ(snap.at("test.reg_histo.count"), static_cast<double>(kThreads * kAdds));
  EXPECT_EQ(snap.at("test.reg_histo.min"), 0.0);
  EXPECT_EQ(snap.at("test.reg_histo.max"), 99.0);

  // reset() zeroes values but keeps registrations (and handles) alive.
  reset();
  EXPECT_EQ(counter("test.reg_counter").value(), 0);
  EXPECT_EQ(quantile_histogram("test.reg_histo").snapshot().count, 0u);
}

TEST_F(ObsTest, QuantileHistoGoldenQuantilesOnKnownDistributions) {
  set_level(Level::Metrics);
  // Uniform 1..1000 ms: the true q-quantile is q seconds; the log-bucketed
  // estimate must land within one bucket ratio (2^(1/16), < 4.5% relative).
  QuantileHisto& uniform = quantile_histogram("test.q_uniform");
  for (int i = 1; i <= 1000; ++i) uniform.add(static_cast<double>(i) * 1e-3);
  const QuantileSnapshot u = uniform.snapshot();
  EXPECT_EQ(u.count, 1000u);
  EXPECT_EQ(u.underflow, 0u);
  EXPECT_EQ(u.invalid, 0u);
  EXPECT_EQ(u.min, 1e-3);  // min/max are exact, not bucketed
  EXPECT_EQ(u.max, 1.0);
  constexpr double kRelTol = 0.045;
  EXPECT_NEAR(u.quantile(0.50), 0.500, 0.500 * kRelTol);
  EXPECT_NEAR(u.quantile(0.90), 0.900, 0.900 * kRelTol);
  EXPECT_NEAR(u.quantile(0.99), 0.990, 0.990 * kRelTol);
  EXPECT_NEAR(u.quantile(0.999), 0.999, 0.999 * kRelTol);

  // Bimodal 90/10: the tail quantiles must jump to the far mode.
  QuantileHisto& bimodal = quantile_histogram("test.q_bimodal");
  for (int i = 0; i < 90; ++i) bimodal.add(1.0);
  for (int i = 0; i < 10; ++i) bimodal.add(100.0);
  const QuantileSnapshot b = bimodal.snapshot();
  EXPECT_NEAR(b.quantile(0.50), 1.0, 1.0 * kRelTol);
  EXPECT_NEAR(b.quantile(0.90), 1.0, 1.0 * kRelTol);
  EXPECT_NEAR(b.quantile(0.99), 100.0, 100.0 * kRelTol);
  EXPECT_NEAR(b.quantile(1.0), 100.0, 100.0 * kRelTol);
}

TEST_F(ObsTest, QuantileHistoEdgeSemantics) {
  set_level(Level::Metrics);
  QuantileHisto& q = quantile_histogram("test.q_edges");

  // Below-range samples (zero and negatives included) land in the underflow
  // bucket but still update the exact min.
  q.add(0.0);
  q.add(-5.0);
  QuantileSnapshot snap = q.snapshot();
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.underflow, 2u);
  EXPECT_EQ(snap.min, -5.0);
  EXPECT_EQ(snap.max, 0.0);
  EXPECT_EQ(snap.quantile(0.0), -5.0);  // any rank inside the underflow -> min

  // NaN is tallied separately and never contributes to count or quantiles.
  q.add(std::numeric_limits<double>::quiet_NaN());
  snap = q.snapshot();
  EXPECT_EQ(snap.invalid, 1u);
  EXPECT_EQ(snap.count, 2u);

  // reset() zeroes the buckets and the exact min/max.
  reset();
  snap = quantile_histogram("test.q_edges").snapshot();
  EXPECT_TRUE(snap.empty());
  EXPECT_EQ(snap.underflow, 0u);
  EXPECT_EQ(snap.invalid, 0u);
  EXPECT_EQ(snap.min, 0.0);
  EXPECT_EQ(snap.max, 0.0);

  // With metrics off, add() is a no-op beyond the level check.
  set_level(Level::Off);
  quantile_histogram("test.q_edges").add(1.0);
  EXPECT_TRUE(quantile_histogram("test.q_edges").snapshot().empty());
}

TEST_F(ObsTest, QuantileHistoShardMergeIsDeterministicUnderConcurrentAdd) {
  set_level(Level::Metrics);
  // The same multiset added concurrently from 8 threads and serially from
  // one must produce bit-identical snapshots: integer bucket counts merge
  // commutatively and min/max maintenance is order-independent.
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  auto value_at = [](int index) {
    // Deterministic spread over ~6 decades, underflow included.
    const double base = std::exp2(static_cast<double>(index % 40) - 20.0);
    return (index % 97 == 0) ? -base : base * (1.0 + 1e-3 * (index % 13));
  };

  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, value_at] {
      QuantileHisto& q = quantile_histogram("test.q_concurrent");
      for (int i = 0; i < kPerThread; ++i) q.add(value_at(t * kPerThread + i));
    });
  }
  for (std::thread& th : pool) th.join();
  const QuantileSnapshot concurrent = quantile_histogram("test.q_concurrent").snapshot();

  QuantileHisto& serial = quantile_histogram("test.q_serial");
  for (int i = 0; i < kThreads * kPerThread; ++i) serial.add(value_at(i));
  const QuantileSnapshot expected = serial.snapshot();

  EXPECT_EQ(concurrent.count, expected.count);
  EXPECT_EQ(concurrent.underflow, expected.underflow);
  EXPECT_EQ(concurrent.invalid, expected.invalid);
  EXPECT_EQ(concurrent.buckets, expected.buckets);
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(concurrent.quantile(q)),
              std::bit_cast<std::uint64_t>(expected.quantile(q)))
        << "quantile " << q;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(concurrent.min),
            std::bit_cast<std::uint64_t>(expected.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(concurrent.max),
            std::bit_cast<std::uint64_t>(expected.max));
}

TEST_F(ObsTest, QuantileHistoSurfacesInMetricsSnapshot) {
  set_level(Level::Metrics);
  QuantileHisto& q = quantile_histogram("test.q_snapshot");
  for (int i = 1; i <= 100; ++i) q.add(static_cast<double>(i));

  std::map<std::string, double> snap;
  for (const auto& [name, value] : metrics_snapshot()) snap[name] = value;
  EXPECT_EQ(snap.at("test.q_snapshot.count"), 100.0);
  EXPECT_EQ(snap.at("test.q_snapshot.min"), 1.0);
  EXPECT_EQ(snap.at("test.q_snapshot.max"), 100.0);
  EXPECT_EQ(snap.at("test.q_snapshot.p50"), q.snapshot().quantile(0.5));
  EXPECT_EQ(snap.at("test.q_snapshot.p90"), q.snapshot().quantile(0.9));
  EXPECT_EQ(snap.at("test.q_snapshot.p99"), q.snapshot().quantile(0.99));
  EXPECT_EQ(snap.at("test.q_snapshot.p999"), q.snapshot().quantile(0.999));
}

}  // namespace
}  // namespace chronosync::obs
