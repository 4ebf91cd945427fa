#include "obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <stdexcept>

#include "benchkit/json.hpp"
#include "common/expect.hpp"

namespace chronosync::obs {

namespace {

// JSON has no literal for non-finite numbers; emit null so a reader sees a
// typed schema violation instead of silently mangled text.  Finite values
// print as %.17g, integral ones without a decimal point — the same contract
// as JsonValue::dump(), so parse(write(x)) reproduces x exactly.
void put_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  if (std::abs(v) < 1e15 && v == static_cast<long long>(v)) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  out += buf;
}

}  // namespace

void write_metrics_json(std::ostream& out, const std::string& suite, Level level) {
  const auto metrics = metrics_snapshot();
  std::string buf;
  buf.reserve(64 + metrics.size() * 48);
  buf += "{\"schema\":";
  buf += benchkit::json_escape(kMetricsSchema);
  buf += ",\"suite\":";
  buf += benchkit::json_escape(suite);
  buf += ",\"obs_level\":";
  buf += benchkit::json_escape(to_string(level));
  buf += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    if (!first) buf += ',';
    first = false;
    buf += benchkit::json_escape(name);
    buf += ':';
    put_json_number(buf, value);
  }
  buf += "}}\n";
  out << buf;
}

void write_metrics_json_file(const std::string& path, const std::string& suite, Level level) {
  std::ofstream out(path, std::ios::trunc);
  CS_REQUIRE(out.good(), "cannot open metrics output file '" + path + "'");
  write_metrics_json(out, suite, level);
  out.flush();
  CS_REQUIRE(out.good(), "writing metrics output file '" + path + "' failed");
}

std::vector<std::pair<std::string, double>> read_metrics_json(const std::string& text) {
  benchkit::JsonValue doc;
  try {
    doc = benchkit::JsonValue::parse(text);
  } catch (const std::exception& e) {
    throw std::invalid_argument(std::string("metrics snapshot is not valid JSON: ") + e.what());
  }
  if (!doc.is_object()) throw std::invalid_argument("metrics snapshot is not a JSON object");
  const benchkit::JsonValue* schema = doc.find("schema");
  if (schema == nullptr || !schema->is_string())
    throw std::invalid_argument("metrics snapshot is missing its \"schema\" marker");
  if (schema->as_string() != kMetricsSchema)
    throw std::invalid_argument("metrics snapshot has schema '" + schema->as_string() +
                                "' (expected '" + kMetricsSchema + "')");
  const benchkit::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr || !metrics->is_object())
    throw std::invalid_argument("metrics snapshot is missing its \"metrics\" object");

  std::vector<std::pair<std::string, double>> out;
  out.reserve(metrics->members().size());
  for (const auto& [name, value] : metrics->members()) {
    if (!value.is_number())
      throw std::invalid_argument("metric '" + name + "' is not a number");
    out.emplace_back(name, value.as_number());
  }
  return out;
}

}  // namespace chronosync::obs
