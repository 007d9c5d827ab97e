// Differential suite for the solver scale-up pair: the simplex's
// support-walking (sparse) pivot kernel against the dense kernel, and
// the Dantzig-Wolfe decomposed driver against the monolithic simplex.
//
// The sparse kernel's contract is *bitwise*: skipping an exact zero is
// an arithmetic no-op, so pivot sequences, statuses, points, and
// objectives must match the dense kernel exactly. The decomposed
// driver's contract is two-layered: objectives always agree to LP
// tolerance, and on generic instances (random continuous data, so the
// optimum is unique) the crossover + deterministic refactorization land
// on the very same point bitwise. Worker-count invariance of the
// subproblem fan-out is structural and also checked bitwise.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "core/controller.hpp"
#include "solver/decomposed.hpp"
#include "solver/linear_program.hpp"
#include "solver/simplex.hpp"
#include "util/rng.hpp"

namespace palb {
namespace {

/// Block-angular maximization instance: `blocks` independent groups of
/// variables, each with its own "flow" row, tied together by `coupling`
/// dense rows — the same shape as the dispatcher's profile LPs (flow
/// per (class, front-end), capacity per DC). All data is continuous
/// random, so the optimum is unique almost surely.
LinearProgram random_block_lp(std::uint64_t seed, int blocks = 4,
                              int vars_per_block = 3, int coupling = 2) {
  Rng rng(seed * 104729 + 7);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  std::vector<std::vector<int>> block_vars(
      static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    for (int v = 0; v < vars_per_block; ++v) {
      block_vars[static_cast<std::size_t>(b)].push_back(lp.add_variable(
          0.0, rng.uniform(1.0, 5.0), rng.uniform(0.5, 3.0)));
    }
  }
  for (int b = 0; b < blocks; ++b) {
    std::vector<std::pair<int, double>> terms;
    for (const int v : block_vars[static_cast<std::size_t>(b)]) {
      terms.emplace_back(v, 1.0);
    }
    lp.add_constraint(terms, Relation::kLe, rng.uniform(1.0, 6.0));
  }
  for (int c = 0; c < coupling; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < lp.num_variables(); ++j) {
      terms.emplace_back(j, rng.uniform(0.2, 1.5));
    }
    lp.add_constraint(terms, Relation::kLe, rng.uniform(2.0, 8.0));
  }
  return lp;
}

/// General (non-block) random LP for the kernel differential: mixed
/// relations, some negative rhs, maximize.
LinearProgram random_general_lp(std::uint64_t seed) {
  Rng rng(seed * 6151 + 11);
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  const int n = 4 + static_cast<int>(rng.uniform_index(5));
  const int m = 3 + static_cast<int>(rng.uniform_index(4));
  for (int j = 0; j < n; ++j) {
    lp.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(-1.0, 3.0));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < n; ++j) {
      if (rng.uniform(0.0, 1.0) < 0.7) {
        terms.emplace_back(j, rng.uniform(-1.0, 2.0));
      }
    }
    if (terms.empty()) terms.emplace_back(0, 1.0);
    const double roll = rng.uniform(0.0, 1.0);
    const Relation rel = roll < 0.7   ? Relation::kLe
                         : roll < 0.85 ? Relation::kGe
                                       : Relation::kEq;
    const double rhs = rel == Relation::kGe ? rng.uniform(-2.0, 0.5)
                                            : rng.uniform(0.5, 6.0);
    lp.add_constraint(terms, rel, rhs);
  }
  return lp;
}

// ---- Sparse pivot kernel vs dense kernel --------------------------------

TEST(SparsePivoting, BitIdenticalToDenseKernel) {
  std::uint64_t total_skips = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const LinearProgram lp = seed % 2 == 0 ? random_block_lp(seed)
                                           : random_general_lp(seed);
    SimplexSolver::Options dense_opt;
    dense_opt.sparse_pivoting = false;
    dense_opt.record_pivots = true;
    SimplexSolver::Options sparse_opt;
    sparse_opt.sparse_pivoting = true;
    sparse_opt.record_pivots = true;

    const LpSolution d = SimplexSolver(dense_opt).solve(lp);
    const LpSolution s = SimplexSolver(sparse_opt).solve(lp);
    ASSERT_EQ(d.status, s.status) << "seed " << seed;
    EXPECT_EQ(d.pivot_log, s.pivot_log) << "seed " << seed;
    EXPECT_EQ(d.iterations, s.iterations) << "seed " << seed;
    EXPECT_EQ(d.objective, s.objective) << "seed " << seed;
    EXPECT_EQ(d.x, s.x) << "seed " << seed;
    EXPECT_EQ(d.duals, s.duals) << "seed " << seed;
    EXPECT_EQ(d.sparse_price_skips, 0u) << "dense kernel must not count";
    total_skips += s.sparse_price_skips;
  }
  // The hybrid kernel hands filled-in pivot rows back to the dense
  // loops, so an individual instance may legitimately count nothing;
  // across 40 instances the sparse path must still fire.
  EXPECT_GT(total_skips, 0u) << "sparse path never taken in 40 instances";
}

// ---- Structure detection ------------------------------------------------

TEST(DecomposedSolver, DetectsBlockAngularStructure) {
  const LinearProgram lp = random_block_lp(3, 5, 3, 2);
  DecomposedSolver dec;
  const DecomposedSolver::Result sol = dec.solve(lp);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_TRUE(sol.stats.decomposed);
  EXPECT_EQ(sol.stats.blocks, 5);
  EXPECT_EQ(sol.stats.coupling_rows, 2);
  EXPECT_GE(sol.stats.master_iterations, 1);
  EXPECT_GE(sol.stats.subproblem_solves, 5);
}

TEST(DecomposedSolver, FallsBackWhenNoSplitExists) {
  // A fully coupled LP: every row touches every variable, so no peel
  // count ever splits the remainder.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  for (int j = 0; j < 4; ++j) lp.add_variable(0.0, 2.0, 1.0 + 0.1 * j);
  for (int r = 0; r < 3; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < 4; ++j) terms.emplace_back(j, 1.0 + 0.2 * r);
    lp.add_constraint(terms, Relation::kLe, 3.0 + r);
  }
  DecomposedSolver dec;
  const DecomposedSolver::Result sol = dec.solve(lp);
  EXPECT_FALSE(sol.stats.decomposed);
  const LpSolution mono = SimplexSolver().solve(lp);
  ASSERT_EQ(sol.status, mono.status);
  EXPECT_EQ(sol.x, mono.x);
}

TEST(DecomposedSolver, FallsBackOnInfiniteBounds) {
  LinearProgram lp = random_block_lp(5);
  lp.set_bounds(0, 0.0, kInfinity);  // DW needs bounded vertices
  DecomposedSolver dec;
  const DecomposedSolver::Result sol = dec.solve(lp);
  EXPECT_FALSE(sol.stats.decomposed);
  EXPECT_EQ(sol.status, LpStatus::kOptimal);  // ub row 0 caps var 0 anyway
}

// ---- Monolithic vs decomposed differential ------------------------------

TEST(DecomposedSolver, MatchesMonolithicOnGenericBlockInstances) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const LinearProgram lp = random_block_lp(seed, 3 + seed % 4, 2 + seed % 3,
                                             1 + static_cast<int>(seed % 2));
    const LpSolution mono = SimplexSolver().solve(lp);
    DecomposedSolver dec;
    const LpSolution sol = dec.solve(lp);
    ASSERT_EQ(mono.status, LpStatus::kOptimal) << "seed " << seed;
    ASSERT_EQ(sol.status, LpStatus::kOptimal) << "seed " << seed;
    EXPECT_NEAR(mono.objective, sol.objective, 1e-9) << "seed " << seed;
    // Generic data => unique optimum => the crossover ends in the same
    // basis and the deterministic refactorization makes the points
    // bitwise equal, not merely close.
    EXPECT_EQ(mono.x, sol.x) << "seed " << seed;
  }
}

TEST(DecomposedSolver, SubproblemWorkerCountInvariant) {
  const LinearProgram lp = random_block_lp(11, 6, 3, 2);
  std::vector<LpSolution> sols;
  std::vector<DecomposedSolver::Stats> stats;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    DecomposedSolver::Options opt;
    opt.subproblem_workers = workers;
    DecomposedSolver dec(opt);
    const DecomposedSolver::Result sol = dec.solve(lp);
    sols.push_back(sol);
    stats.push_back(sol.stats);
  }
  for (std::size_t i = 1; i < sols.size(); ++i) {
    EXPECT_EQ(sols[0].x, sols[i].x);
    EXPECT_EQ(sols[0].objective, sols[i].objective);
    EXPECT_EQ(sols[0].iterations, sols[i].iterations);
    EXPECT_EQ(stats[0].master_iterations, stats[i].master_iterations);
    EXPECT_EQ(stats[0].subproblem_solves, stats[i].subproblem_solves);
  }
  EXPECT_TRUE(stats[0].decomposed);
}

TEST(DecomposedSolver, AgreesOnInfeasibleInstances) {
  // One block's flow row demands more than its variables' bounds allow.
  LinearProgram lp = random_block_lp(7);
  std::vector<std::pair<int, double>> terms{{0, 1.0}, {1, 1.0}, {2, 1.0}};
  lp.add_constraint(terms, Relation::kGe, 100.0);  // ub sum is < 15
  const LpSolution mono = SimplexSolver().solve(lp);
  const LpSolution sol = DecomposedSolver().solve(lp);
  EXPECT_EQ(mono.status, LpStatus::kInfeasible);
  EXPECT_EQ(sol.status, LpStatus::kInfeasible);
}

TEST(DecomposedSolver, AgreesOnUnboundedInstances) {
  // Unbounded => an infinite bound exists => the structure check already
  // routed the solve down the monolithic path; statuses must agree.
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  lp.add_variable(0.0, kInfinity, 1.0);
  lp.add_variable(0.0, 1.0, 1.0);
  std::vector<std::pair<int, double>> terms{{1, 1.0}};
  lp.add_constraint(terms, Relation::kLe, 1.0);
  DecomposedSolver dec;
  const DecomposedSolver::Result sol = dec.solve(lp);
  EXPECT_FALSE(sol.stats.decomposed);
  EXPECT_EQ(sol.status, LpStatus::kUnbounded);
  EXPECT_EQ(SimplexSolver().solve(lp).status, LpStatus::kUnbounded);
}

TEST(DecomposedSolver, AgreesOnDegenerateInstances) {
  // Zero-capacity coupling rows force every block to its lower bounds:
  // heavy degeneracy (many optimal bases for the same point). Objectives
  // must still agree to tolerance and both points must be feasible.
  LinearProgram lp = random_block_lp(9, 4, 3, 0);
  std::vector<std::pair<int, double>> terms;
  for (int j = 0; j < lp.num_variables(); ++j) terms.emplace_back(j, 1.0);
  lp.add_constraint(terms, Relation::kLe, 0.0);
  lp.add_constraint(terms, Relation::kLe, 0.0);  // duplicate: redundant row
  const LpSolution mono = SimplexSolver().solve(lp);
  const LpSolution sol = DecomposedSolver().solve(lp);
  ASSERT_EQ(mono.status, LpStatus::kOptimal);
  ASSERT_EQ(sol.status, LpStatus::kOptimal);
  EXPECT_NEAR(mono.objective, sol.objective, 1e-9);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
  EXPECT_TRUE(lp.is_feasible(sol.x));
}

TEST(DecomposedSolver, ForwardsWarmBasisToFallbackPath) {
  // On a non-decomposable LP the caller's warm basis must reach the
  // monolithic solver (same contract as calling it directly).
  LinearProgram lp;
  lp.set_objective_sense(Sense::kMaximize);
  for (int j = 0; j < 4; ++j) lp.add_variable(0.0, 2.0, 1.0 + 0.3 * j);
  for (int r = 0; r < 3; ++r) {
    std::vector<std::pair<int, double>> terms;
    for (int j = 0; j < 4; ++j) terms.emplace_back(j, 1.0 + 0.1 * (r + j));
    lp.add_constraint(terms, Relation::kLe, 2.5 + r);
  }
  const LpSolution cold = SimplexSolver().solve(lp);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  DecomposedSolver dec;
  const DecomposedSolver::Result warm = dec.solve(lp, &cold.basis);
  EXPECT_FALSE(warm.stats.decomposed);
  EXPECT_TRUE(warm.warm_start_used);
  EXPECT_EQ(cold.x, warm.x);
}

// ---- Policy-level integration -------------------------------------------

std::string plans_fingerprint(const RunResult& run) {
  return plan_json::run_to_json(run).dump(2);
}

TEST(DecomposedPolicy, ForcedOnMatchesOffByteIdentical) {
  // The paper scenarios sit below the kAuto size threshold, so force the
  // decomposed driver on and require the plans (JSON bytes) to match the
  // plain path — the crossover contract end to end.
  for (const auto& scenario :
       {paper::basic_synthetic(paper::ArrivalSet::kLow),
        paper::worldcup_study()}) {
    const SlotController controller(scenario);
    OptimizedPolicy::Options off_opt;
    off_opt.decomposed_solve = OptimizedPolicy::DecomposedSolve::kOff;
    OptimizedPolicy off(off_opt);
    OptimizedPolicy::Options on_opt;
    on_opt.decomposed_solve = OptimizedPolicy::DecomposedSolve::kOn;
    OptimizedPolicy on(on_opt);
    const RunResult off_run = controller.run(off, 3);
    const RunResult on_run = controller.run(on, 3);
    EXPECT_EQ(plans_fingerprint(off_run), plans_fingerprint(on_run));
    EXPECT_DOUBLE_EQ(off_run.total.net_profit(), on_run.total.net_profit());
  }
}

TEST(DecomposedPolicy, CountersFlowIntoPolicyStats) {
  const Scenario scenario = paper::basic_synthetic(paper::ArrivalSet::kHigh);
  OptimizedPolicy::Options opt;
  opt.decomposed_solve = OptimizedPolicy::DecomposedSolve::kOn;
  OptimizedPolicy policy(opt);
  const SlotController controller(scenario);
  (void)controller.run(policy, 2);
  const PolicyStats stats = policy.stats();
  EXPECT_GT(stats.sparse_price_skips, 0u);
  EXPECT_GT(stats.master_iterations, 0u);
  EXPECT_GT(stats.subproblem_solves, 0u);
}

TEST(DecomposedPolicy, DegradedForcesDecompositionOff) {
  // Rung 2 runs under a tight per-LP pivot budget; column generation's
  // many inner solves are pure overhead there, so degraded() pins the
  // switch off — and the budget interaction still returns a plan (the
  // all-off fallback is always available).
  const Scenario scenario = paper::basic_synthetic(paper::ArrivalSet::kLow);
  OptimizedPolicy::Options opt;
  opt.decomposed_solve = OptimizedPolicy::DecomposedSolve::kOn;
  OptimizedPolicy base(opt);
  const auto rung2 = base.degraded();
  const SlotController controller(scenario);
  OptimizedPolicy probe(opt);
  (void)controller.run(probe, 1);  // sanity: kOn itself plans fine
  const RunResult run = controller.run(*rung2, 2);
  EXPECT_EQ(run.slots.size(), 2u);
  // The degraded copy reports zero decomposition work: the switch is off.
  EXPECT_EQ(rung2->stats().master_iterations, 0u);
  EXPECT_EQ(rung2->stats().subproblem_solves, 0u);

  // And a kOn policy under the same tight budget still returns plans.
  OptimizedPolicy::Options tight = opt;
  tight.lp_max_iterations = 3;  // starves almost every LP
  OptimizedPolicy starved(tight);
  const RunResult starved_run = controller.run(starved, 1);
  EXPECT_EQ(starved_run.slots.size(), 1u);
}

}  // namespace
}  // namespace palb
