#include "bench_json.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace palb::benchjson {

namespace {
/// Solver counters are uint64 but JSON numbers are doubles. On LP64 the
/// implicit route happens to hit the size_t constructor; spell the cast
/// out and refuse counts past 2^53, where a double silently drops bits.
Json counter(std::uint64_t n) {
  constexpr std::uint64_t kMaxExactDouble = 1ull << 53;
  PALB_REQUIRE(n <= kMaxExactDouble,
               "solver counter exceeds the exactly-representable "
               "double range");
  return Json(static_cast<double>(n));
}
}  // namespace

Json to_json(const WorkloadResult& w) {
  Json solver = Json::object();
  solver.set("profiles_examined", counter(w.solver.profiles_examined));
  solver.set("profiles_pruned", counter(w.solver.profiles_pruned));
  solver.set("lp_iterations", counter(w.solver.lp_iterations));
  // Alias of lp_iterations under the name regression tooling keys on:
  // every LP iteration is one simplex pivot (bound flips included).
  solver.set("simplex_pivots", counter(w.solver.lp_iterations));
  solver.set("phase1_skips", counter(w.solver.phase1_skips));
  solver.set("basis_warm_hits", counter(w.solver.basis_warm_hits));
  solver.set("sparse_price_skips", counter(w.solver.sparse_price_skips));
  solver.set("master_iterations", counter(w.solver.master_iterations));
  solver.set("subproblem_solves", counter(w.solver.subproblem_solves));
  solver.set("nlp_iterations", counter(w.solver.nlp_iterations));
  solver.set("warm_start_hits", counter(w.solver.warm_start_hits));
  solver.set("warm_start_misses", counter(w.solver.warm_start_misses));
  solver.set("cache_hit_rate", Json(w.solver.cache_hit_rate()));

  Json doc = Json::object();
  doc.set("name", Json(w.name));
  doc.set("scenario", Json(w.scenario));
  doc.set("slots", Json(w.slots));
  doc.set("workers", Json(w.workers));
  doc.set("serial_ms", Json(w.serial_ms));
  doc.set("parallel_ms", Json(w.parallel_ms));
  doc.set("slots_per_sec", Json(w.slots_per_sec()));
  doc.set("speedup", Json(w.speedup()));
  doc.set("plans_identical", Json(w.plans_identical));
  doc.set("faulted_slots", Json(w.faulted_slots));
  doc.set("repairs", Json(w.repairs));
  Json rungs = Json::array();
  for (const int r : w.fallback_rungs) rungs.push_back(Json(r));
  doc.set("fallback_rungs", std::move(rungs));
  doc.set("solver", std::move(solver));
  return doc;
}

Json qps_section(const serve::QpsReport& timed, const std::string& scenario,
                 std::size_t slots, const std::string& policy,
                 bool identical_across_threads,
                 const serve::AsyncPlanner::WatchdogStats& watchdog) {
  Json doc = Json::object();
  doc.set("schema", Json(kQpsSchema));
  doc.set("scenario", Json(scenario));
  doc.set("policy", Json(policy));
  doc.set("slots", Json(slots));
  doc.set("threads", Json(timed.threads));
  doc.set("requests", counter(timed.requests));
  doc.set("routed", counter(timed.routed));
  doc.set("no_route", counter(timed.no_route));
  doc.set("elapsed_seconds", Json(timed.elapsed_seconds));
  doc.set("qps", Json(timed.qps()));
  doc.set("p50_ns", Json(timed.p50_ns));
  doc.set("p90_ns", Json(timed.p90_ns));
  doc.set("p99_ns", Json(timed.p99_ns));
  doc.set("p999_ns", Json(timed.p999_ns));
  doc.set("max_ns", Json(timed.max_ns));
  doc.set("latency_samples", counter(timed.latency_samples));
  doc.set("min_plan_version", counter(timed.min_plan_version));
  doc.set("max_plan_version", counter(timed.max_plan_version));
  doc.set("rebuilds", counter(timed.dispatcher.rebuilds));
  doc.set("refresh_skips", counter(timed.dispatcher.refresh_skips));
  doc.set("stalled_routes", counter(timed.dispatcher.stalled_routes));
  doc.set("identical_across_threads", Json(identical_across_threads));
  doc.set("shed_requests", counter(timed.shed));
  doc.set("retry_count", counter(watchdog.retries));
  doc.set("stale_plan_ns", counter(watchdog.stale_plan_ns));
  return doc;
}

Json chaos_section(const serve::ChaosReport& report,
                   const std::string& scenario, const std::string& schedule,
                   const std::string& policy,
                   const serve::ChaosOptions& options) {
  Json doc = Json::object();
  doc.set("schema", Json(kChaosSchema));
  doc.set("scenario", Json(scenario));
  doc.set("schedule", Json(schedule));
  doc.set("policy", Json(policy));
  doc.set("slots", Json(report.slots));
  doc.set("faulted_slots", Json(report.faulted_slots));
  doc.set("stalled_solves", Json(report.stalled_solves));
  doc.set("delayed_publishes", Json(report.delayed_publishes));
  doc.set("ttl_escalations", Json(report.ttl_escalations));
  Json rungs = Json::array();
  for (const int r : report.fallback_rungs) rungs.push_back(Json(r));
  doc.set("fallback_rungs", std::move(rungs));
  doc.set("requests", counter(report.requests));
  doc.set("routed", counter(report.routed));
  doc.set("no_route", counter(report.no_route));
  doc.set("shed", counter(report.shed));
  doc.set("shed_fraction", Json(report.shed_fraction()));
  doc.set("max_stale_slots", Json(report.max_stale_slots));
  doc.set("mean_stale_slots", Json(report.mean_stale_slots));
  doc.set("stale_plan_ttl_slots", Json(options.stale_plan_ttl_slots));
  doc.set("stalled_routes", counter(report.stalled_routes));
  doc.set("decisions_identical", Json(report.decisions_identical));
  Json threads = Json::array();
  for (const std::size_t t : options.thread_counts) {
    threads.push_back(Json(t));
  }
  doc.set("thread_counts", std::move(threads));
  doc.set("timed_qps", Json(report.timed_qps));
  doc.set("p50_ns", Json(report.p50_ns));
  doc.set("p99_ns", Json(report.p99_ns));
  doc.set("p999_ns", Json(report.p999_ns));
  doc.set("max_ns", Json(report.max_ns));
  doc.set("latency_samples", counter(report.latency_samples));
  return doc;
}

Json with_section(const std::string& path, const std::string& key,
                  Json section) {
  Json doc = Json::object();
  std::ifstream is(path);
  if (is) {
    std::ostringstream buffer;
    buffer << is.rdbuf();
    try {
      Json existing = Json::parse(buffer.str());
      if (existing.is_object()) doc = std::move(existing);
    } catch (const std::exception&) {
      // An unparseable report is replaced wholesale, never appended to.
    }
  }
  if (!doc.contains("schema")) doc.set("schema", Json(kSchema));
  doc.set(key, std::move(section));
  return doc;
}

Json with_qps_section(const std::string& path, Json section) {
  return with_section(path, "qps", std::move(section));
}

Json with_chaos_section(const std::string& path, Json section) {
  return with_section(path, "chaos", std::move(section));
}

Json document(std::size_t hardware_concurrency, std::size_t workers,
              bool smoke, const std::vector<WorkloadResult>& workloads) {
  Json list = Json::array();
  for (const auto& w : workloads) list.push_back(to_json(w));
  Json doc = Json::object();
  doc.set("schema", Json(kSchema));
  doc.set("hardware_concurrency", Json(hardware_concurrency));
  doc.set("workers", Json(workers));
  doc.set("smoke", Json(smoke));
  doc.set("workloads", std::move(list));
  return doc;
}

void write_file(const std::string& path, const Json& doc) {
  {
    std::ofstream os(path);
    if (!os) throw IoError("cannot open " + path);
    os << doc.dump(2) << "\n";
    if (!os) throw IoError("failed writing " + path);
  }
  std::ifstream is(path);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const Json reread = Json::parse(buffer.str());
  if (!(reread == doc)) {
    throw IoError("bench report round-trip mismatch for " + path);
  }
}

}  // namespace palb::benchjson
