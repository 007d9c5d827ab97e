#include "solver/decomposed.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "util/thread_pool.hpp"

namespace palb {

namespace {

/// Result of the block-angular structure check: `coupling` rows tie
/// otherwise-independent blocks of (rows, vars) together. Block order is
/// deterministic (first block row ascending; the trailing vars-only
/// "orphan" block — variables touched by coupling rows alone — last).
struct Structure {
  bool valid = false;
  std::vector<int> coupling;                 ///< ascending model row ids
  std::vector<std::vector<int>> block_rows;  ///< per block, ascending
  std::vector<std::vector<int>> block_vars;  ///< per block, ascending
};

int uf_find(std::vector<int>& parent, int x) {
  while (parent[static_cast<std::size_t>(x)] != x) {
    parent[static_cast<std::size_t>(x)] =
        parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
    x = parent[static_cast<std::size_t>(x)];
  }
  return x;
}

void uf_unite(std::vector<int>& parent, int a, int b) {
  a = uf_find(parent, a);
  b = uf_find(parent, b);
  if (a == b) return;
  // Smaller root wins: keeps find() results independent of visit order.
  if (b < a) std::swap(a, b);
  parent[static_cast<std::size_t>(b)] = a;
}

/// Peels rows in descending support order (ties to the lower index)
/// until the remaining rows split into >= 2 connected components over
/// shared variables. For the dispatcher's profile LP this peels the
/// per-DC capacity rows (support K*S) and leaves one block per
/// (class, front-end) flow row. Returns invalid when no peel count
/// yields a split, when any variable bound is infinite (DW needs
/// bounded subproblem vertices), or when the model is trivially small.
Structure detect_structure(const LinearProgram& lp) {
  Structure st;
  const int n = lp.num_variables();
  const int m = lp.num_constraints();
  if (n < 2 || m < 3) return st;
  for (int j = 0; j < n; ++j) {
    if (!std::isfinite(lp.lower_bound(j)) ||
        !std::isfinite(lp.upper_bound(j))) {
      return st;
    }
  }
  for (int r = 0; r < m; ++r) {
    if (lp.row_terms(r).empty()) return st;
  }

  std::vector<int> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const auto sa = lp.row_terms(a).size();
    const auto sb = lp.row_terms(b).size();
    return sa != sb ? sa > sb : a < b;
  });

  std::vector<char> is_coupling(static_cast<std::size_t>(m), 0);
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::vector<int> block_of_root(static_cast<std::size_t>(n));
  std::vector<int> row_block(static_cast<std::size_t>(m));
  for (int t = 1; t < m; ++t) {
    std::fill(is_coupling.begin(), is_coupling.end(), static_cast<char>(0));
    for (int i = 0; i < t; ++i) {
      is_coupling[static_cast<std::size_t>(order[static_cast<std::size_t>(
          i)])] = 1;
    }
    std::iota(parent.begin(), parent.end(), 0);
    for (int r = 0; r < m; ++r) {
      if (is_coupling[static_cast<std::size_t>(r)]) continue;
      const auto& terms = lp.row_terms(r);
      const int anchor = terms.front().first;
      for (const auto& [var, coef] : terms) {
        (void)coef;
        uf_unite(parent, anchor, var);
      }
    }
    std::fill(block_of_root.begin(), block_of_root.end(), -1);
    std::fill(row_block.begin(), row_block.end(), -1);
    int nblocks = 0;
    for (int r = 0; r < m; ++r) {
      if (is_coupling[static_cast<std::size_t>(r)]) continue;
      const int root = uf_find(parent, lp.row_terms(r).front().first);
      if (block_of_root[static_cast<std::size_t>(root)] < 0) {
        block_of_root[static_cast<std::size_t>(root)] = nblocks++;
      }
      row_block[static_cast<std::size_t>(r)] =
          block_of_root[static_cast<std::size_t>(root)];
    }
    if (nblocks < 2) continue;

    st.coupling.clear();
    for (int r = 0; r < m; ++r) {
      if (is_coupling[static_cast<std::size_t>(r)]) st.coupling.push_back(r);
    }
    st.block_rows.assign(static_cast<std::size_t>(nblocks), {});
    st.block_vars.assign(static_cast<std::size_t>(nblocks), {});
    for (int r = 0; r < m; ++r) {
      const int b = row_block[static_cast<std::size_t>(r)];
      if (b >= 0) st.block_rows[static_cast<std::size_t>(b)].push_back(r);
    }
    std::vector<int> orphans;
    for (int j = 0; j < n; ++j) {
      const int b = block_of_root[static_cast<std::size_t>(uf_find(parent, j))];
      if (b >= 0) {
        st.block_vars[static_cast<std::size_t>(b)].push_back(j);
      } else {
        orphans.push_back(j);  // appears only in coupling rows (or nowhere)
      }
    }
    if (!orphans.empty()) {
      st.block_rows.emplace_back();
      st.block_vars.push_back(std::move(orphans));
    }
    st.valid = true;
    return st;
  }
  return st;
}

/// One block's standalone subproblem: its rows and variables lifted into
/// a private LP (built once; only the costs change between pricing
/// rounds), plus the basis chained across rounds.
struct Block {
  LinearProgram sub;
  std::vector<int> vars;  ///< model var per local var (ascending)
  SimplexBasis basis;
  bool has_basis = false;
};

/// One generated column of the master: a vertex of its block, with the
/// master objective cost (c . v) and per-coupling-row activity (A_r . v)
/// precomputed in deterministic (ascending local var) order.
struct PoolColumn {
  int block = 0;
  double cost = 0.0;
  std::vector<double> act;  ///< per coupling slot
  std::vector<double> v;    ///< block-local vertex
};

}  // namespace

DecomposedSolver::Result DecomposedSolver::solve(
    const LinearProgram& lp, const SimplexBasis* warm) const {
  Stats stats;
  const SimplexSolver mono(options_.lp);
  const Structure st = detect_structure(lp);
  if (!st.valid) return {mono.solve(lp, warm), stats};

  const int n = lp.num_variables();
  const int m = lp.num_constraints();
  const int nblocks = static_cast<int>(st.block_rows.size());
  const int ncoupling = static_cast<int>(st.coupling.size());
  const Sense sense = lp.objective_sense();
  stats.decomposed = true;
  stats.blocks = nblocks;
  stats.coupling_rows = ncoupling;

  // Everything the pricing loop spends before the crossover, so the
  // returned solution can account for the full cost of the solve.
  int inner_iterations = 0;
  std::uint64_t inner_skips = 0;
  auto fall_back_monolithic = [&]() {
    stats.decomposed = false;
    Result out{mono.solve(lp, warm), stats};
    out.iterations += inner_iterations;
    out.sparse_price_skips += inner_skips;
    return out;
  };

  // Per-variable coupling-row entries (slot, coef), flattened CSC-style
  // off the model's cached column view.
  std::vector<int> coupling_slot(static_cast<std::size_t>(m), -1);
  for (int s = 0; s < ncoupling; ++s) {
    coupling_slot[static_cast<std::size_t>(
        st.coupling[static_cast<std::size_t>(s)])] = s;
  }
  const ColumnView& csc = lp.column_view();
  std::vector<int> vc_start(static_cast<std::size_t>(n) + 1, 0);
  std::vector<int> vc_slot;
  std::vector<double> vc_coef;
  for (int j = 0; j < n; ++j) {
    for (int at = csc.col_start[static_cast<std::size_t>(j)];
         at < csc.col_start[static_cast<std::size_t>(j) + 1]; ++at) {
      const int slot =
          coupling_slot[static_cast<std::size_t>(csc.row_index[at])];
      if (slot >= 0) {
        vc_slot.push_back(slot);
        vc_coef.push_back(csc.value[at]);
      }
    }
    vc_start[static_cast<std::size_t>(j) + 1] =
        static_cast<int>(vc_slot.size());
  }

  // Build each block's subproblem LP once.
  std::vector<Block> blocks(static_cast<std::size_t>(nblocks));
  std::vector<int> local_of(static_cast<std::size_t>(n), -1);
  for (int b = 0; b < nblocks; ++b) {
    Block& blk = blocks[static_cast<std::size_t>(b)];
    blk.vars = st.block_vars[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < blk.vars.size(); ++i) {
      const int j = blk.vars[i];
      local_of[static_cast<std::size_t>(j)] = static_cast<int>(i);
      blk.sub.add_variable(lp.lower_bound(j), lp.upper_bound(j), lp.cost(j));
    }
    for (const int r : st.block_rows[static_cast<std::size_t>(b)]) {
      std::vector<std::pair<int, double>> terms;
      for (const auto& [var, coef] : lp.row_terms(r)) {
        terms.emplace_back(local_of[static_cast<std::size_t>(var)], coef);
      }
      blk.sub.add_constraint(terms, lp.relation(r), lp.rhs(r));
    }
    blk.sub.set_objective_sense(sense);
    for (const int j : blk.vars) local_of[static_cast<std::size_t>(j)] = -1;
  }

  std::vector<PoolColumn> pool;
  // Column ids per block, for the convexity rows and duplicate checks.
  std::vector<std::vector<int>> block_cols(static_cast<std::size_t>(nblocks));
  auto make_column = [&](int b, const std::vector<double>& x) {
    PoolColumn col;
    col.block = b;
    col.v = x;
    col.act.assign(static_cast<std::size_t>(ncoupling), 0.0);
    const Block& blk = blocks[static_cast<std::size_t>(b)];
    for (std::size_t i = 0; i < blk.vars.size(); ++i) {
      const int j = blk.vars[i];
      col.cost += lp.cost(j) * x[i];
      for (int at = vc_start[static_cast<std::size_t>(j)];
           at < vc_start[static_cast<std::size_t>(j) + 1]; ++at) {
        col.act[static_cast<std::size_t>(vc_slot[static_cast<std::size_t>(
            at)])] += vc_coef[static_cast<std::size_t>(at)] * x[i];
      }
    }
    return col;
  };
  auto add_column = [&](int b, const std::vector<double>& x) {
    for (const int i : block_cols[static_cast<std::size_t>(b)]) {
      if (pool[static_cast<std::size_t>(i)].v == x) return false;  // bitwise
    }
    block_cols[static_cast<std::size_t>(b)].push_back(
        static_cast<int>(pool.size()));
    pool.push_back(make_column(b, x));
    return true;
  };

  // Initial columns: each block's own-objective optimal vertex, plus its
  // all-lower-bounds vertex when block-feasible (for the dispatch LPs
  // the zero vertex is feasible everywhere, so the master always has the
  // "route nothing" combination to start from).
  for (int b = 0; b < nblocks; ++b) {
    Block& blk = blocks[static_cast<std::size_t>(b)];
    const LpSolution sol = mono.solve(blk.sub);
    ++stats.subproblem_solves;
    inner_iterations += sol.iterations;
    inner_skips += sol.sparse_price_skips;
    if (sol.status != LpStatus::kOptimal) {
      return fall_back_monolithic();  // block infeasible => model decides
    }
    blk.basis = sol.basis;
    blk.has_basis = true;
    add_column(b, sol.x);
    std::vector<double> at_lower(blk.vars.size());
    for (std::size_t i = 0; i < blk.vars.size(); ++i) {
      at_lower[i] = lp.lower_bound(blk.vars[i]);
    }
    if (blk.sub.is_feasible(at_lower)) add_column(b, at_lower);
  }

  // Shared pool for the per-round subproblem fan-out (created once, not
  // per round). subproblem_workers == 1 keeps everything inline.
  const std::size_t resolved = bounded_workers(
      options_.subproblem_workers, static_cast<std::size_t>(nblocks));
  std::unique_ptr<ThreadPool> fanout;
  if (resolved > 1) fanout = std::make_unique<ThreadPool>(resolved);

  // --- Column generation. -------------------------------------------------
  LpSolution master_sol;
  SimplexBasis master_basis;
  bool have_master = false;
  for (int round = 0; round < options_.max_master_iterations; ++round) {
    // Master over the current pool: coupling rows in model order, then
    // one convexity row per block. Columns only ever append, so the
    // previous round's basis (master-variable indexed) stays valid.
    LinearProgram master;
    master.set_objective_sense(sense);
    for (const PoolColumn& col : pool) {
      master.add_variable(0.0, 1.0, col.cost);
    }
    for (int s = 0; s < ncoupling; ++s) {
      const int r = st.coupling[static_cast<std::size_t>(s)];
      std::vector<std::pair<int, double>> terms;
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const double a = pool[i].act[static_cast<std::size_t>(s)];
        if (a != 0.0) terms.emplace_back(static_cast<int>(i), a);
      }
      master.add_constraint(terms, lp.relation(r), lp.rhs(r));
    }
    for (int b = 0; b < nblocks; ++b) {
      std::vector<std::pair<int, double>> terms;
      for (const int i : block_cols[static_cast<std::size_t>(b)]) {
        terms.emplace_back(i, 1.0);
      }
      master.add_constraint(terms, Relation::kEq, 1.0);
    }
    master_sol =
        mono.solve(master, have_master ? &master_basis : nullptr);
    inner_iterations += master_sol.iterations;
    inner_skips += master_sol.sparse_price_skips;
    ++stats.master_iterations;
    if (master_sol.status != LpStatus::kOptimal) {
      // Usually "the initial columns cannot cover the coupling rows yet"
      // — rather than running a phase-1 master, hand the whole model to
      // the monolithic path.
      return fall_back_monolithic();
    }
    master_basis = master_sol.basis;
    have_master = true;

    // Price every block against the master duals: subproblem objective
    // (c - pi A)x in the model's own sense; a block's best vertex enters
    // the pool when it beats the block's convexity dual mu_b.
    const std::function<LpSolution(std::size_t)> price =
        [&](std::size_t bz) -> LpSolution {
      Block& blk = blocks[bz];
      for (std::size_t i = 0; i < blk.vars.size(); ++i) {
        const int j = blk.vars[i];
        double red = lp.cost(j);
        for (int at = vc_start[static_cast<std::size_t>(j)];
             at < vc_start[static_cast<std::size_t>(j) + 1]; ++at) {
          red -= master_sol.duals[static_cast<std::size_t>(
                     vc_slot[static_cast<std::size_t>(at)])] *
                 vc_coef[static_cast<std::size_t>(at)];
        }
        blk.sub.set_cost(static_cast<int>(i), red);
      }
      const SimplexSolver sub_solver(options_.lp);
      return sub_solver.solve(blk.sub, blk.has_basis ? &blk.basis : nullptr);
    };
    std::vector<LpSolution> priced;
    if (fanout) {
      priced = parallel_collect<LpSolution>(
          *fanout, static_cast<std::size_t>(nblocks), price);
    } else {
      priced.reserve(static_cast<std::size_t>(nblocks));
      for (int b = 0; b < nblocks; ++b) {
        priced.push_back(price(static_cast<std::size_t>(b)));
      }
    }
    stats.subproblem_solves += nblocks;

    bool added = false;
    for (int b = 0; b < nblocks; ++b) {
      LpSolution& sol = priced[static_cast<std::size_t>(b)];
      inner_iterations += sol.iterations;
      inner_skips += sol.sparse_price_skips;
      if (sol.status != LpStatus::kOptimal) return fall_back_monolithic();
      Block& blk = blocks[static_cast<std::size_t>(b)];
      blk.basis = std::move(sol.basis);
      blk.has_basis = true;
      const double reduced =
          sol.objective -
          master_sol.duals[static_cast<std::size_t>(ncoupling + b)];
      const bool attractive = sense == Sense::kMaximize
                                  ? reduced > options_.pricing_tolerance
                                  : reduced < -options_.pricing_tolerance;
      if (attractive && add_column(b, sol.x)) added = true;
    }
    if (!added) break;  // no block improves the master: DW has converged
  }

  if (!have_master) return fall_back_monolithic();

  // --- Crossover. ---------------------------------------------------------
  // Map the DW point x = sum_i lambda_i v_i back to model space and turn
  // it into a simplex basis guess: strictly interior variables basic,
  // non-binding rows keep their slack basic (the warm-start installer
  // fills any rows left over and discards the guess entirely if it lands
  // out of bounds). The monolithic warm solve from here owns the final
  // answer — DW convergence only affects how many pivots it still needs.
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const double lambda = master_sol.x[i];
    if (lambda == 0.0) continue;
    const PoolColumn& col = pool[i];
    const Block& blk = blocks[static_cast<std::size_t>(col.block)];
    for (std::size_t v = 0; v < blk.vars.size(); ++v) {
      x[static_cast<std::size_t>(blk.vars[v])] += lambda * col.v[v];
    }
  }
  constexpr double kGuessTol = 1e-7;
  SimplexBasis guess;
  for (int j = 0; j < n; ++j) {
    const double lb = lp.lower_bound(j);
    const double ub = lp.upper_bound(j);
    const double xj = x[static_cast<std::size_t>(j)];
    if (xj > lb + kGuessTol && xj < ub - kGuessTol) {
      guess.basic.push_back({SimplexBasis::Kind::kVariable, j});
    } else if (ub > lb && xj >= ub - kGuessTol) {
      guess.at_upper.push_back(j);
    }
  }
  for (int r = 0; r < m; ++r) {
    const double activity = lp.row_activity(r, x);
    const double slack_tol = kGuessTol * (1.0 + std::abs(lp.rhs(r)));
    const bool loose =
        (lp.relation(r) == Relation::kLe &&
         activity < lp.rhs(r) - slack_tol) ||
        (lp.relation(r) == Relation::kGe &&
         activity > lp.rhs(r) + slack_tol);
    if (loose) guess.basic.push_back({SimplexBasis::Kind::kSlack, r});
  }

  Result out{mono.solve(lp, &guess), stats};
  out.iterations += inner_iterations;
  out.sparse_price_skips += inner_skips;
  return out;
}

}  // namespace palb
