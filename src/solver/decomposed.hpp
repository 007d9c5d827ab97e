#pragma once

#include <cstddef>
#include <cstdint>

#include "solver/simplex.hpp"

namespace palb {

/// Block-decomposed LP driver (Dantzig-Wolfe column generation) for the
/// dispatcher's block-angular profile LPs: per-(class, front-end) flow
/// blocks coupled only by the per-DC capacity rows (Eq. 7/8). The
/// structure is *detected*, not assumed — rows are peeled in descending
/// support order until the remainder splits into >= 2 independent
/// blocks; when no such split exists (or any variable is unbounded) the
/// driver falls back to the monolithic SimplexSolver, so it is always
/// safe to route a solve through here.
///
/// Correctness never rests on the decomposition converging: the column-
/// generation phase only *discovers* a near-optimal basis, and a final
/// monolithic "crossover" solve — warm-started from that basis — owns
/// the returned solution. Combined with the simplex's deterministic
/// final refactorization (SimplexSolver::Options::refactor_solution),
/// the returned point is a pure function of the final basis; on
/// instances with a unique optimal basis the crossover lands on the
/// same basis as a cold monolithic solve and x is bitwise identical.
/// Degenerate instances can stop at a *different* optimal basis whose
/// refactorized point differs at ulp level (<= 1e-9); those
/// perturbations are far below the dispatcher's rounding, so
/// decomposed and monolithic modes still produce byte-identical
/// DispatchPlans — the contract the policy layer relies on.
///
/// Determinism: blocks are ordered by smallest member row, columns enter
/// the master pool in (iteration, block) order, subproblem results are
/// collected index-ordered regardless of worker count, and every inner
/// solve is the deterministic SimplexSolver — so the whole driver is a
/// pure function of the model, independent of `subproblem_workers`.
class DecomposedSolver {
 public:
  struct Options {
    /// Inner solver configuration, shared by the master, the
    /// subproblems, and the final crossover (so pivot budgets like
    /// OptimizedPolicy's lp_max_iterations bound every piece).
    SimplexSolver::Options lp;
    /// Column-generation rounds before handing the incumbent basis to
    /// the crossover regardless of convergence.
    int max_master_iterations = 60;
    /// A block's proposed column must beat its convexity dual by this
    /// much to enter the master.
    double pricing_tolerance = 1e-7;
    /// Worker budget for the per-round subproblem fan-out: 1 solves
    /// inline (the right choice when the caller is itself a pool
    /// worker), 0 resolves to hardware concurrency, anything else is
    /// clamped to the block count. Results are collected in block order
    /// either way.
    std::size_t subproblem_workers = 1;
  };

  /// Telemetry of one solve().
  struct Stats {
    /// False when the structure check (or any mid-flight anomaly) sent
    /// the solve down the monolithic path instead.
    bool decomposed = false;
    int blocks = 0;
    int coupling_rows = 0;
    /// Master re-solves performed (column-generation rounds).
    int master_iterations = 0;
    /// Block subproblem solves across all rounds (pricing + the initial
    /// per-block vertex solves).
    int subproblem_solves = 0;
  };

  /// One solve's answer plus its telemetry. Callers that only want the
  /// LP answer can keep it as a plain LpSolution.
  struct Result : LpSolution {
    Stats stats;
  };

  DecomposedSolver() = default;
  explicit DecomposedSolver(Options options) : options_(options) {}

  /// Solves `lp`; `warm` is forwarded to the monolithic path (the
  /// decomposed path derives a better basis of its own). The returned
  /// solution aggregates iterations and sparse_price_skips across the
  /// master, subproblem, and crossover solves.
  Result solve(const LinearProgram& lp,
               const SimplexBasis* warm = nullptr) const;

 private:
  Options options_;
};

}  // namespace palb
