// Chaos-harness and watchdog tests (docs/OVERLOAD.md): the canned
// overload schedule keeps the dispatcher serving — zero stalled routes,
// bounded nonzero shed during the stale-plan window, stale exposure
// within the TTL, decisions byte-identical across driver thread counts
// — and so do two worldcup storms (the canned schedule and a seeded
// random one); two identical chaos runs agree bit for bit. The
// AsyncPlanner watchdog: an impossible deadline expires, retries
// descend the effort ladder, and every slot still ends with an
// applied, audited plan.

#include "serve/chaos.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <future>

#include "core/balanced_policy.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_handle.hpp"
#include "fault/fault.hpp"
#include "fault/resilient_controller.hpp"
#include "serve/async_planner.hpp"

namespace palb {
namespace {

using serve::AsyncPlanner;
using serve::ChaosOptions;
using serve::ChaosReport;
using serve::run_chaos;

ChaosOptions smoke_options() {
  ChaosOptions opt;
  opt.num_slots = 20;
  opt.requests_per_slot = 2048;
  opt.stale_plan_ttl_slots = 3;
  return opt;
}

TEST(Chaos, CannedScheduleKeepsTheDispatcherServing) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_chaos();
  BalancedPolicy policy;
  const ChaosReport report =
      run_chaos(sc, schedule, policy, smoke_options());

  EXPECT_EQ(report.slots, 20u);
  // Planner stalled slots 6-8, publishes suppressed 4-6 and 12-15.
  EXPECT_EQ(report.stalled_solves, 3u);
  EXPECT_GT(report.delayed_publishes, 0u);
  // The surge-onset delay window outlives the TTL, so escalation fires.
  EXPECT_GE(report.ttl_escalations, 1u);

  // The acceptance gates: serving never stalls, decisions deterministic
  // across {1, 2, 4} driver threads, staleness within the TTL, shedding
  // nonzero (the stale pre-surge plan faced 3x demand) but bounded.
  EXPECT_EQ(report.stalled_routes, 0u);
  EXPECT_TRUE(report.decisions_identical);
  EXPECT_LE(report.max_stale_slots, 3u);
  EXPECT_GT(report.shed, 0u);
  EXPECT_LT(report.shed_fraction(), 0.5);
}

TEST(Chaos, ReportIsAPureFunctionOfItsInputs) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  const FaultSchedule schedule = fault_gen::canned_chaos();
  ChaosOptions opt = smoke_options();
  opt.num_slots = 12;
  opt.requests_per_slot = 1024;
  BalancedPolicy first_policy, second_policy;
  const ChaosReport a = run_chaos(sc, schedule, first_policy, opt);
  const ChaosReport b = run_chaos(sc, schedule, second_policy, opt);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.routed, b.routed);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.fallback_rungs, b.fallback_rungs);
  EXPECT_EQ(a.max_stale_slots, b.max_stale_slots);
  EXPECT_EQ(a.ttl_escalations, b.ttl_escalations);
}

TEST(Chaos, StallsWithoutSurgeShedNothing) {
  // A schedule with planner stalls but no demand change: the ladder
  // serves the previous slot's plan, which is sized for the same
  // offered mix — admission never triggers.
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  FaultEvent stall;
  stall.kind = FaultKind::kPlannerStall;
  stall.first_slot = 2;
  stall.last_slot = 5;
  const FaultSchedule schedule({stall});
  BalancedPolicy policy;
  ChaosOptions opt = smoke_options();
  opt.num_slots = 8;
  const ChaosReport report = run_chaos(sc, schedule, policy, opt);
  EXPECT_EQ(report.stalled_solves, 4u);
  EXPECT_EQ(report.shed, 0u);
  EXPECT_EQ(report.stalled_routes, 0u);
  EXPECT_TRUE(report.decisions_identical);
}

/// The keep-serving gates of the worldcup storms below: zero stalled
/// routes, decisions identical across driver thread counts, stale-plan
/// exposure within the TTL, and at most half the requests shed.
void expect_keeps_serving(const ChaosReport& report) {
  EXPECT_EQ(report.stalled_routes, 0u);
  EXPECT_TRUE(report.decisions_identical);
  EXPECT_LE(report.max_stale_slots, 3u);
  EXPECT_LE(report.shed_fraction(), 0.5);
}

ChaosOptions worldcup_options() {
  ChaosOptions opt;
  opt.num_slots = 24;
  opt.stale_plan_ttl_slots = 3;
  opt.timed_seconds = 0.0;
  return opt;
}

TEST(Chaos, WorldcupCannedScheduleKeepsServing) {
  const Scenario sc = paper::worldcup_study();
  BalancedPolicy policy;
  expect_keeps_serving(run_chaos(sc, fault_gen::canned_chaos(), policy,
                                 worldcup_options()));
}

TEST(Chaos, WorldcupRandomStormKeepsServing) {
  // A differently-shaped storm: seeded, every chaos kind enabled.
  const Scenario sc = paper::worldcup_study();
  fault_gen::Options storm;
  storm.slots = 24;
  storm.fault_rate = 0.35;
  storm.planner_stalls = true;
  storm.publish_delays = true;
  storm.demand_surges = true;
  const FaultSchedule schedule =
      fault_gen::generate(sc.topology, /*seed=*/1002, storm);
  BalancedPolicy policy;
  expect_keeps_serving(
      run_chaos(sc, schedule, policy, worldcup_options()));
}

TEST(Watchdog, ImpossibleDeadlineDegradesButEverySlotStillPlans) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  PlanHandle live;
  AsyncPlanner::Options options;
  options.watchdog.solve_deadline_seconds = 1e-9;  // expires immediately
  options.watchdog.max_retries = 2;
  options.watchdog.backoff_base_seconds = 1e-4;  // keep the test fast
  AsyncPlanner planner(sc, FaultSchedule{}, live, options);

  OptimizedPolicy policy;
  const RunResult run = planner.solve_async(policy, 3).get();

  // The first attempt and both retries launch (the last attempt can
  // occasionally finish before its watchdog observes the expiry, so the
  // expiration count is >= 2, not == 3); each retry descends one effort
  // rung, and the stale window spans the whole retry phase.
  const AsyncPlanner::WatchdogStats stats = planner.watchdog_stats();
  EXPECT_GE(stats.deadline_expirations, 2u);
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_GT(stats.stale_plan_ns, 0u);

  // Graceful degradation, not an outage: the returned run is the final
  // attempt, capped at kPreviousPlan effort — rungs 1-2 skipped — and
  // every slot still carries an applied, audited plan, with the live
  // handle following along.
  ASSERT_EQ(run.plans.size(), 3u);
  for (const int rung : run.fallback_rungs) {
    EXPECT_GE(rung, static_cast<int>(FallbackRung::kPreviousPlan));
  }
  EXPECT_GT(live.version(), 0u);
}

TEST(Watchdog, DisabledWatchdogRunsCleanly) {
  const Scenario sc = paper::basic_synthetic(paper::ArrivalSet::kLow);
  PlanHandle live;
  AsyncPlanner planner(sc, FaultSchedule{}, live);  // deadline 0 = off
  BalancedPolicy policy;
  const RunResult run = planner.solve_async(policy, 2).get();
  EXPECT_EQ(run.plans.size(), 2u);
  const AsyncPlanner::WatchdogStats stats = planner.watchdog_stats();
  EXPECT_EQ(stats.deadline_expirations, 0u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.stale_plan_ns, 0u);
}

}  // namespace
}  // namespace palb
