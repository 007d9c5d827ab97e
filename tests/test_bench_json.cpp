// Bench-report schema tests (tools/bench_json.hpp): the palb-qps-v1
// section carries the overload counters (shed_requests, retry_count,
// stale_plan_ns), the palb-chaos-v1 section serializes the chaos
// harness verdicts, both sections' complete key sets are pinned and
// written straight from the serve report structs, sections accumulate into one document without
// clobbering each other, and write_file's write/re-parse roundtrip
// self-check holds for documents carrying every section at once.

#include "bench_json.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "serve/async_planner.hpp"
#include "serve/chaos.hpp"
#include "serve/load_driver.hpp"
#include "util/json.hpp"

namespace palb {
namespace {

/// Unique-ish temp path per test; removed on teardown.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(std::string("/tmp/palb_bench_json_test_") + name + ".json") {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The key set of a JSON object, in its (sorted) serialization order.
std::vector<std::string> keys_of(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& entry : object.as_object()) keys.push_back(entry.first);
  return keys;
}

serve::QpsReport sample_qps_report() {
  serve::QpsReport q;
  q.threads = 4;
  q.requests = 1000000;
  q.routed = 900000;
  q.no_route = 50000;
  q.shed = 50000;
  q.elapsed_seconds = 0.04;  // qps() = 2.5e7
  return q;
}

serve::AsyncPlanner::WatchdogStats sample_watchdog() {
  serve::AsyncPlanner::WatchdogStats w;
  w.retries = 2;
  w.stale_plan_ns = 1234567;
  return w;
}

Json sample_qps() {
  return benchjson::qps_section(sample_qps_report(), "worldcup", 24,
                                "balanced", true, sample_watchdog());
}

serve::ChaosReport sample_chaos_report() {
  serve::ChaosReport c;
  c.slots = 20;
  c.faulted_slots = 11;
  c.stalled_solves = 3;
  c.delayed_publishes = 6;
  c.ttl_escalations = 1;
  c.fallback_rungs = {1, 1, 1, 1, 1, 3, 3, 3, 3, 1};
  c.requests = 40960;
  c.routed = 36000;
  c.no_route = 0;
  c.shed = 4960;
  c.max_stale_slots = 3;
  c.mean_stale_slots = 0.45;
  c.stalled_routes = 0;
  c.decisions_identical = true;
  return c;
}

Json sample_chaos(const serve::ChaosReport& report = sample_chaos_report()) {
  serve::ChaosOptions options;
  options.stale_plan_ttl_slots = 3;
  options.thread_counts = {1, 2, 4};
  return benchjson::chaos_section(report, "basic-low", "canned-chaos",
                                  "optimized", options);
}

TEST(BenchJson, QpsSectionCarriesTheOverloadCounters) {
  const Json doc = sample_qps();
  EXPECT_EQ(doc.at("schema").as_string(), benchjson::kQpsSchema);
  EXPECT_EQ(doc.at("policy").as_string(), "balanced");
  EXPECT_EQ(doc.at("qps").as_number(), 2.5e7);
  EXPECT_EQ(doc.at("shed_requests").as_number(), 50000.0);
  EXPECT_EQ(doc.at("retry_count").as_number(), 2.0);
  EXPECT_EQ(doc.at("stale_plan_ns").as_number(), 1234567.0);
  // The complete palb-qps-v1 key set: a key dropped from (or added to)
  // the writer must show up here, not silently in a consumer.
  const std::vector<std::string> expected = {
      "elapsed_seconds", "identical_across_threads", "latency_samples",
      "max_ns",          "max_plan_version",         "min_plan_version",
      "no_route",        "p50_ns",                   "p90_ns",
      "p999_ns",         "p99_ns",                   "policy",
      "qps",             "rebuilds",                 "refresh_skips",
      "requests",        "retry_count",              "routed",
      "scenario",        "schema",                   "shed_requests",
      "slots",           "stale_plan_ns",            "stalled_routes",
      "threads"};
  EXPECT_EQ(keys_of(doc), expected);
  // Keys are emitted even when zero — consumers never branch on
  // presence.
  serve::QpsReport calm = sample_qps_report();
  calm.shed = 0;
  const Json calm_doc = benchjson::qps_section(
      calm, "worldcup", 24, "balanced", true,
      serve::AsyncPlanner::WatchdogStats{});
  EXPECT_EQ(keys_of(calm_doc), expected);
  EXPECT_EQ(calm_doc.at("shed_requests").as_number(), 0.0);
  EXPECT_EQ(calm_doc.at("retry_count").as_number(), 0.0);
  EXPECT_EQ(calm_doc.at("stale_plan_ns").as_number(), 0.0);
}

TEST(BenchJson, ChaosSectionSerializesTheHarnessVerdicts) {
  const Json doc = sample_chaos();
  EXPECT_EQ(doc.at("schema").as_string(), benchjson::kChaosSchema);
  EXPECT_EQ(doc.at("scenario").as_string(), "basic-low");
  EXPECT_EQ(doc.at("schedule").as_string(), "canned-chaos");
  EXPECT_EQ(doc.at("policy").as_string(), "optimized");
  EXPECT_EQ(doc.at("stalled_solves").as_number(), 3.0);
  EXPECT_EQ(doc.at("ttl_escalations").as_number(), 1.0);
  EXPECT_EQ(doc.at("shed").as_number(), 4960.0);
  EXPECT_EQ(doc.at("shed_fraction").as_number(), 4960.0 / 40960.0);
  EXPECT_EQ(doc.at("max_stale_slots").as_number(), 3.0);
  EXPECT_EQ(doc.at("stale_plan_ttl_slots").as_number(), 3.0);
  EXPECT_EQ(doc.at("stalled_routes").as_number(), 0.0);
  EXPECT_TRUE(doc.at("decisions_identical").as_bool());
  EXPECT_EQ(doc.at("fallback_rungs").size(), 10u);
  EXPECT_EQ(doc.at("thread_counts").size(), 3u);
  EXPECT_EQ(doc.at("thread_counts")[2].as_number(), 4.0);
  // The complete palb-chaos-v1 key set.
  const std::vector<std::string> expected = {
      "decisions_identical", "delayed_publishes",    "fallback_rungs",
      "faulted_slots",       "latency_samples",      "max_ns",
      "max_stale_slots",     "mean_stale_slots",     "no_route",
      "p50_ns",              "p999_ns",              "p99_ns",
      "policy",              "requests",             "routed",
      "scenario",            "schedule",             "schema",
      "shed",                "shed_fraction",        "slots",
      "stale_plan_ttl_slots", "stalled_routes",      "stalled_solves",
      "thread_counts",       "timed_qps",            "ttl_escalations"};
  EXPECT_EQ(keys_of(doc), expected);
}

TEST(BenchJson, SectionsAccumulateWithoutClobbering) {
  const TempFile file("accumulate");
  // qps lands first in a fresh skeleton...
  Json doc = benchjson::with_qps_section(file.path(), sample_qps());
  benchjson::write_file(file.path(), doc);
  // ...then chaos accumulates into the same document.
  doc = benchjson::with_chaos_section(file.path(), sample_chaos());
  benchjson::write_file(file.path(), doc);
  EXPECT_EQ(doc.at("schema").as_string(), benchjson::kSchema);
  ASSERT_TRUE(doc.contains("qps"));
  ASSERT_TRUE(doc.contains("chaos"));
  EXPECT_EQ(doc.at("qps").at("schema").as_string(), benchjson::kQpsSchema);
  EXPECT_EQ(doc.at("chaos").at("schema").as_string(),
            benchjson::kChaosSchema);
  // Re-writing one section leaves the other untouched.
  serve::ChaosReport updated = sample_chaos_report();
  updated.shed = 9999;
  doc = benchjson::with_chaos_section(file.path(), sample_chaos(updated));
  EXPECT_EQ(doc.at("chaos").at("shed").as_number(), 9999.0);
  EXPECT_EQ(doc.at("qps").at("qps").as_number(), 2.5e7);
}

TEST(BenchJson, WriteFileRoundTripsEverySection) {
  const TempFile file("roundtrip");
  Json doc = benchjson::with_qps_section(file.path(), sample_qps());
  benchjson::write_file(file.path(), doc);
  doc = benchjson::with_chaos_section(file.path(), sample_chaos());
  // write_file itself re-parses and compares — a schema that cannot
  // round-trip throws IoError here.
  EXPECT_NO_THROW(benchjson::write_file(file.path(), doc));
}

TEST(BenchJson, UnparseableReportIsReplacedWholesale) {
  const TempFile file("garbage");
  {
    FILE* f = std::fopen(file.path().c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not json at all {{{", f);
    std::fclose(f);
  }
  const Json doc = benchjson::with_chaos_section(file.path(), sample_chaos());
  EXPECT_EQ(doc.at("schema").as_string(), benchjson::kSchema);
  EXPECT_TRUE(doc.contains("chaos"));
  EXPECT_FALSE(doc.contains("qps"));
}

}  // namespace
}  // namespace palb
