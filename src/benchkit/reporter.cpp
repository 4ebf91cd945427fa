#include "benchkit/reporter.hpp"

#include <filesystem>
#include <fstream>

#include "common/expect.hpp"

namespace chronosync::benchkit {

int schema_version_for(const BenchRecord& record) {
  if (record.boot_resamples > 0) return 3;
  if (record.cpu_user_ns != 0 || record.cpu_sys_ns != 0) return 2;
  return 1;
}

JsonValue to_json(const BenchRecord& record) {
  // The stamped version must match the keys actually present: a record with
  // no CPU sample and no bootstrap interval is a faithful v1 record, and
  // labeling it v2/v3 would promise fields it does not carry.
  const int version = schema_version_for(record);
  JsonValue obj = JsonValue::object();
  obj.set("schema_version", version);
  obj.set("suite", record.suite);
  obj.set("name", record.name);
  obj.set("kind", record.kind);
  JsonValue config = JsonValue::object();
  for (const auto& [k, v] : record.config) config.set(k, v);
  obj.set("config", std::move(config));
  obj.set("iters", record.iters);
  obj.set("wall_ns_p50", record.wall_ns_p50);
  obj.set("wall_ns_p90", record.wall_ns_p90);
  obj.set("wall_ns_min", record.wall_ns_min);
  if (version >= 3) {
    obj.set("wall_ns_ci_lo", record.wall_ns_ci_lo);
    obj.set("wall_ns_ci_hi", record.wall_ns_ci_hi);
    obj.set("boot_resamples", record.boot_resamples);
    obj.set("boot_confidence", record.boot_confidence);
  }
  obj.set("throughput", record.throughput);
  JsonValue metrics = JsonValue::object();
  for (const auto& [k, v] : record.metrics) metrics.set(k, v);
  obj.set("metrics", std::move(metrics));
  if (version >= 2) {
    obj.set("cpu_user_ns", record.cpu_user_ns);
    obj.set("cpu_sys_ns", record.cpu_sys_ns);
  }
  obj.set("peak_rss_bytes", record.peak_rss_bytes);
  obj.set("alloc_bytes_per_iter", record.alloc_bytes_per_iter);
  obj.set("git_sha", record.git_sha);
  obj.set("timestamp", record.timestamp);
  return obj;
}

namespace {

const JsonValue& field(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.find(key);
  CS_REQUIRE(v != nullptr, std::string("bench record missing key '") + key + "'");
  return *v;
}

}  // namespace

BenchRecord record_from_json(const JsonValue& value) {
  CS_REQUIRE(value.is_object(), "bench record is not a JSON object");
  const int version = static_cast<int>(field(value, "schema_version").as_number());
  CS_REQUIRE(version >= 1 && version <= kSchemaVersion,
             "unsupported bench record schema_version " + std::to_string(version));
  BenchRecord rec;
  rec.suite = field(value, "suite").as_string();
  rec.name = field(value, "name").as_string();
  rec.kind = field(value, "kind").as_string();
  for (const auto& [k, v] : field(value, "config").members()) {
    rec.config.emplace_back(k, v.as_string());
  }
  rec.iters = static_cast<std::int64_t>(field(value, "iters").as_number());
  rec.wall_ns_p50 = field(value, "wall_ns_p50").as_number();
  rec.wall_ns_p90 = field(value, "wall_ns_p90").as_number();
  rec.wall_ns_min = field(value, "wall_ns_min").as_number();
  rec.throughput = field(value, "throughput").as_number();
  for (const auto& [k, v] : field(value, "metrics").members()) {
    rec.metrics.emplace_back(k, v.as_number());
  }
  if (version >= 2) {
    rec.cpu_user_ns = static_cast<std::int64_t>(field(value, "cpu_user_ns").as_number());
    rec.cpu_sys_ns = static_cast<std::int64_t>(field(value, "cpu_sys_ns").as_number());
  }
  if (version >= 3) {
    rec.wall_ns_ci_lo = field(value, "wall_ns_ci_lo").as_number();
    rec.wall_ns_ci_hi = field(value, "wall_ns_ci_hi").as_number();
    CS_REQUIRE(rec.wall_ns_ci_lo <= rec.wall_ns_ci_hi,
               "bench record has wall_ns_ci_lo > wall_ns_ci_hi");
    rec.boot_resamples =
        static_cast<std::int64_t>(field(value, "boot_resamples").as_number());
    rec.boot_confidence = field(value, "boot_confidence").as_number();
  }
  rec.peak_rss_bytes = static_cast<std::int64_t>(field(value, "peak_rss_bytes").as_number());
  rec.alloc_bytes_per_iter =
      static_cast<std::int64_t>(field(value, "alloc_bytes_per_iter").as_number());
  rec.git_sha = field(value, "git_sha").as_string();
  rec.timestamp = static_cast<std::int64_t>(field(value, "timestamp").as_number());
  return rec;
}

void JsonReporter::append(const BenchRecord& record) const {
  const std::filesystem::path p(path_);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p, std::ios::app);
  CS_REQUIRE(out.good(), "cannot open bench JSON file '" + path_ + "' for append");
  out << to_json(record).dump() << '\n';
}

}  // namespace chronosync::benchkit
