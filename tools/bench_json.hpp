#pragma once

// Machine-readable benchmark report (schema "palb-bench-v1") for the
// `palb bench` subcommand. One document per invocation:
//
//   {
//     "schema": "palb-bench-v1",
//     "hardware_concurrency": 4,
//     "workers": 4,                 // resolved worker budget
//     "smoke": false,
//     "workloads": [
//       {
//         "name": "fig06_worldcup",
//         "scenario": "worldcup",
//         "slots": 24,
//         "workers": 4,
//         "serial_ms": 812.4,       // 1 worker, sequential profile sweep
//         "parallel_ms": 231.9,     // N workers via SlotController
//         "slots_per_sec": 103.5,   // parallel arm
//         "speedup": 3.50,          // serial_ms / parallel_ms
//         "plans_identical": true,  // byte-identical plan JSON
//         "faulted_slots": 0,       // slots a fault schedule touched
//         "repairs": 0,             // PlanChecker::repair() adjustments
//         "fallback_rungs": [1, 1], // per-slot ladder rung (1..5)
//         "solver": {
//           "profiles_examined": 1536,
//           "profiles_pruned": 410,
//           "lp_iterations": 9021,
//           "simplex_pivots": 9021,   // alias of lp_iterations
//           "phase1_skips": 1490,     // solves that needed no phase 1
//           "basis_warm_hits": 1433,  // solves that accepted a warm basis
//           "warm_start_hits": 20,
//           "warm_start_misses": 4,
//           "cache_hit_rate": 0.8333
//         }                          // parallel arm's counters
//       }, ...
//     ]
//   }
//
// CI consumes this file (see .github/workflows/ci.yml bench-smoke and
// docs/BENCHMARKING.md); keep the schema additive — consumers pin
// "schema" and ignore unknown keys.

#include <cstddef>
#include <string>
#include <vector>

#include "core/policy.hpp"
#include "serve/async_planner.hpp"
#include "serve/chaos.hpp"
#include "serve/load_driver.hpp"
#include "util/json.hpp"

namespace palb::benchjson {

inline constexpr const char* kSchema = "palb-bench-v1";

/// Schema tag of the "qps" section `palb qps` adds to the same report
/// file — the online dispatcher fast path (src/serve/) driven by the
/// closed-loop QPS driver. Nested under the top-level document as
///
///   { "schema": "palb-bench-v1", ..., "qps": { "schema": "palb-qps-v1",
///     "qps": 2.3e7, "p50_ns": 41.0, "stalled_routes": 0, ... } }
///
/// so bench and qps runs accumulate into one artifact; each command
/// overwrites only its own section. docs/SERVING.md documents the keys.
inline constexpr const char* kQpsSchema = "palb-qps-v1";

/// Schema tag of the "chaos" section `palb chaos` adds to the same
/// report file — the overload-hardening harness (src/serve/chaos.hpp):
/// shed fraction, stale-plan exposure, fallback-ladder usage, and the
/// cross-thread-count determinism verdict under a fault schedule.
/// Nested exactly like "qps"; docs/OVERLOAD.md documents the keys.
inline constexpr const char* kChaosSchema = "palb-chaos-v1";

/// One workload's head-to-head timing: the same slot range planned by
/// the same policy configuration, once with 1 worker and once with the
/// full worker budget.
struct WorkloadResult {
  std::string name;      ///< stable key CI thresholds refer to
  std::string scenario;  ///< resolve_scenario() name it ran on
  std::size_t slots = 0;
  std::size_t workers = 0;  ///< worker budget of the parallel arm
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  bool plans_identical = false;
  /// Solver-effort counters of the parallel arm (RunResult::stats).
  PolicyStats solver;
  /// Resilience telemetry of the parallel arm (zero / empty on plain
  /// workloads): slots the fault schedule touched, total
  /// PlanChecker::repair() adjustments, and the per-slot ladder rung
  /// (1 = full solve ... 5 = shed-all; docs/RESILIENCE.md).
  std::size_t faulted_slots = 0;
  std::size_t repairs = 0;
  std::vector<int> fallback_rungs;

  double speedup() const {
    return parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  }
  double slots_per_sec() const {
    return parallel_ms > 0.0
               ? 1000.0 * static_cast<double>(slots) / parallel_ms
               : 0.0;
  }
};

Json to_json(const WorkloadResult& w);

/// The palb-qps-v1 section of one `palb qps` run: the timed arm's
/// throughput, latency percentiles and dispatcher counters, plus what
/// the report does not carry itself — the run's scenario, slot count and
/// policy name, the fixed-mode determinism verdict (decisions
/// byte-identical across driver-thread counts), and the planner's
/// watchdog counters. Overload keys (shed_requests, retry_count,
/// stale_plan_ns) are emitted even when zero, so consumers never branch
/// on presence.
Json qps_section(const serve::QpsReport& timed, const std::string& scenario,
                 std::size_t slots, const std::string& policy,
                 bool identical_across_threads,
                 const serve::AsyncPlanner::WatchdogStats& watchdog);

/// The palb-chaos-v1 section of one `palb chaos` run
/// (src/serve/chaos.hpp): the slow-path fault telemetry plus the
/// fast-path replay's shed / staleness / determinism verdicts. `options`
/// supplies the stale-plan TTL and the driver thread counts compared.
Json chaos_section(const serve::ChaosReport& report,
                   const std::string& scenario, const std::string& schedule,
                   const std::string& policy,
                   const serve::ChaosOptions& options);

/// Loads `path` when it already holds a parseable JSON object (a prior
/// `palb bench` report, typically) and replaces its `key` section with
/// `section`; otherwise starts a fresh skeleton document carrying only
/// the schema tag and the section. This is how side harnesses (`palb
/// qps`, the ext_scale solver gate) accumulate into the one report
/// artifact without clobbering each other's sections.
Json with_section(const std::string& path, const std::string& key,
                  Json section);

/// with_section() for the "qps" section (a qps_section() result).
Json with_qps_section(const std::string& path, Json section);

/// with_section() for the "chaos" section (a chaos_section() result).
Json with_chaos_section(const std::string& path, Json section);

/// Assembles the whole palb-bench-v1 document.
Json document(std::size_t hardware_concurrency, std::size_t workers,
              bool smoke, const std::vector<WorkloadResult>& workloads);

/// Serializes `doc` to `path` (pretty-printed, trailing newline), then
/// re-parses the written bytes as a self-check so a malformed report can
/// never reach CI silently. Throws IoError on failure.
void write_file(const std::string& path, const Json& doc);

}  // namespace palb::benchjson
