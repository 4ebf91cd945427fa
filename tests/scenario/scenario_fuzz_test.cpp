// Deterministic mutation corpus for the scenario config parser — the same
// discipline as the trace-reader fuzz battery: seed valid scenario documents,
// apply structured mutations (bit/byte flips, truncations, splices, token
// substitutions, deep nesting, plain garbage), and assert parse_scenario
// ALWAYS either succeeds or throws exactly ScenarioError.  No mutation may
// crash, abort, leak (the suite runs under ASan/UBSan in CI), or escape with
// a foreign exception type; mutations that keep the JSON well-formed must be
// caught by the strict unknown-key/type/range schema instead.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "scenario/scenario.hpp"

namespace chronosync::scenario {
namespace {

enum class Outcome { Parsed, ScenarioErr, WrongException };

Outcome feed(const std::string& text) {
  try {
    parse_scenario(text, "<fuzz>");
    return Outcome::Parsed;
  } catch (const ScenarioError&) {
    return Outcome::ScenarioErr;
  } catch (...) {
    return Outcome::WrongException;
  }
}

void expect_contained(const std::string& text, const std::string& context) {
  if (feed(text) == Outcome::WrongException) {
    ADD_FAILURE() << "parser threw something other than ScenarioError: " << context;
  }
}

std::vector<std::string> seed_corpus() {
  return {
      R"({"name": "mini"})",
      R"({"name": "full", "seed": 7,
          "workload": {"kind": "dynamic", "ranks": 6, "rounds": 100,
                       "elephant": {"bytes": 262144, "ranks": [0], "probability": 0.1},
                       "membership": [{"rank": 1, "join_round": 5, "leave_round": 50}]},
          "clock": {"timer": "gettimeofday",
                    "overrides": {"wander_sigma": 1e-8},
                    "storms": [{"nodes": [0], "extra_ppm": 300}],
                    "steps": [{"rank": 0, "at_fraction": 0.5, "step": 0.001}],
                    "leap_second_ranks": [2]},
          "network": {"asymmetry_extra": 1e-5, "varying_amplitude": 2e-5},
          "expect": {"raw_violations_min": 1, "clc_repairs_min": 1}})",
      R"({"name": "edge", "workload": {"ranks": 2, "rounds": 1, "gap_spread": 0.0}})",
      R"({"name": "race", "workload": {"ranks": 4, "rounds": 50, "probe_every": 10},
          "expect": {"accuracy": [
            {"method": "kalman-drift", "reference": "linear-interpolation",
             "max_rms_ratio": 0.95, "rms_slack": 1e-6}]}})",
  };
}

TEST(ScenarioConfigFuzz, SeedsParse) {
  for (const std::string& seed : seed_corpus()) {
    EXPECT_EQ(feed(seed), Outcome::Parsed) << seed;
  }
}

TEST(ScenarioConfigFuzz, ByteFlips) {
  Rng rng(0xC0FFEE);
  for (const std::string& seed : seed_corpus()) {
    for (int i = 0; i < 400; ++i) {
      std::string mutated = seed;
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(seed.size()) - 1));
      mutated[pos] = static_cast<char>(rng.uniform_int(0, 255));
      expect_contained(mutated, "byte flip @" + std::to_string(pos));
    }
  }
}

TEST(ScenarioConfigFuzz, BitFlips) {
  Rng rng(0xBEEF);
  for (const std::string& seed : seed_corpus()) {
    for (int i = 0; i < 400; ++i) {
      std::string mutated = seed;
      const std::size_t pos =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(seed.size()) - 1));
      mutated[pos] = static_cast<char>(mutated[pos] ^ (1 << rng.uniform_int(0, 7)));
      expect_contained(mutated, "bit flip @" + std::to_string(pos));
    }
  }
}

TEST(ScenarioConfigFuzz, Truncations) {
  for (const std::string& seed : seed_corpus()) {
    for (std::size_t len = 0; len < seed.size(); ++len) {
      expect_contained(seed.substr(0, len), "truncation @" + std::to_string(len));
    }
  }
}

TEST(ScenarioConfigFuzz, Splices) {
  Rng rng(0xDEAD);
  const std::vector<std::string> corpus = seed_corpus();
  for (int i = 0; i < 500; ++i) {
    const std::string& a = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const std::string& b = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const std::size_t cut_a =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(a.size())));
    const std::size_t cut_b =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(b.size())));
    expect_contained(a.substr(0, cut_a) + b.substr(cut_b), "splice #" + std::to_string(i));
  }
}

TEST(ScenarioConfigFuzz, TokenSubstitutions) {
  // Swap in hostile tokens at every literal position that looks replaceable:
  // huge numbers, negative values, wrong types, duplicate keys.
  const std::vector<std::string> tokens = {
      "1e309",  "-1e309", "9223372036854775808", "-42",   "1e-320", "null",
      "true",   "false",  "\"\"",                "[]",    "{}",     "\"nan\"",
      "1.5",    "0.0",    "1e6",                 "[[[]]]",
      // Method-vocabulary hostility: unknown names must surface as the typed
      // Schema error the chronocheck exit-4 contract depends on, and a known
      // name in a numeric slot must be a type error, not a crash.
      "\"no-such-method\"", "\"kalman-drift\"", "\"raw\""};
  for (const std::string& seed : seed_corpus()) {
    for (std::size_t pos = 0; pos < seed.size(); ++pos) {
      if (seed[pos] != ':') continue;
      // Replace the value after this colon (up to the next , } ]) with each token.
      std::size_t end = pos + 1;
      int depth = 0;
      while (end < seed.size() &&
             (depth > 0 || (seed[end] != ',' && seed[end] != '}' && seed[end] != ']'))) {
        if (seed[end] == '[' || seed[end] == '{') ++depth;
        if (seed[end] == ']' || seed[end] == '}') --depth;
        ++end;
      }
      for (const std::string& token : tokens) {
        expect_contained(seed.substr(0, pos + 1) + token + seed.substr(end),
                         "token @" + std::to_string(pos) + " = " + token);
      }
    }
  }
}

TEST(ScenarioConfigFuzz, DeepNestingAndGarbage) {
  // Deep nesting must be rejected (or parsed) without exhausting the stack.
  expect_contained(std::string(100000, '['), "deep arrays");
  expect_contained(std::string(100000, '{'), "deep objects");
  std::string nested = R"({"name": "x", "workload": )";
  for (int i = 0; i < 2000; ++i) nested += R"({"a":)";
  expect_contained(nested, "nested workload");

  Rng rng(0xFACE);
  for (int i = 0; i < 200; ++i) {
    std::string garbage(static_cast<std::size_t>(rng.uniform_int(0, 300)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.uniform_int(0, 255));
    expect_contained(garbage, "garbage #" + std::to_string(i));
  }
}

TEST(ScenarioConfigFuzz, DuplicateKeysStayDeterministic) {
  // Whatever the dup-key policy is, it must be a policy: same input, same
  // outcome, and never a foreign exception.
  const std::string doc = R"({"name": "a", "name": "b", "seed": 1, "seed": 2})";
  const Outcome first = feed(doc);
  EXPECT_NE(first, Outcome::WrongException);
  EXPECT_EQ(feed(doc), first);
}

}  // namespace
}  // namespace chronosync::scenario
