#pragma once

#include <cstdint>
#include <memory>

#include "cloud/model.hpp"
#include "core/plan_handle.hpp"
#include "serve/derived_table.hpp"
#include "serve/routing_table.hpp"

namespace palb::serve {

/// The online fast path: routes individual requests against the plan
/// the slow path (AsyncPlanner / ResilientController) last published
/// into a PlanHandle, via per-front-end RoutingTables that hot-swap on
/// version change (serve/derived_table.hpp owns the compile-and-swap).
///
/// Reader side — two surfaces, both safe from any number of threads:
///
///  * route() is the coherent one-shot: it detects a stale table
///    (including the rung-5 shed-all transition, where the new plan
///    routes *nothing* and the old table must not keep serving its
///    destinations), rebuilds opportunistically, and routes. A reader
///    never blocks on a swap: if another thread is already compiling,
///    route() serves from the incumbent table and moves on — that is
///    the zero-stall contract tests/test_plan_swap_coherence.cpp
///    hammers.
///
///  * tables() + refresh() is the batch hot path the QPS driver uses:
///    hold the immutable table snapshot across a batch of requests
///    (route() on a RoutingTable is pure arithmetic, no locks), and
///    poll refresh() between batches. The snapshot stays valid while
///    held — RCU via shared_ptr, exactly PlanHandle's grace period.
///
/// Every table is stamped with the plan version it was compiled from,
/// so each routed request is attributable to exactly one publish.
class Dispatcher {
 public:
  struct Stats {
    std::uint64_t rebuilds = 0;       ///< tables compiled and swapped in
    std::uint64_t refresh_skips = 0;  ///< try_refresh found a peer compiling
    /// Routes that blocked on a swap. 0 by construction, not measured:
    /// the read path only try-locks the compile mutex, so no route can
    /// wait on one. Kept so the report schemas stay stable.
    std::uint64_t stalled_routes = 0;
  };

  /// `plans` is not owned and must outlive the dispatcher.
  Dispatcher(Topology topology, const PlanHandle& plans);

  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Routes one class-`klass` request arriving at front-end `frontend`.
  /// Coherent: serves from a table no older than the newest plan that
  /// was published before this call began, except while a peer holds
  /// the compile lock (then the incumbent table is used — no waiting).
  Route route(std::size_t klass, std::size_t frontend,
              std::uint64_t request_id) const;

  /// Current immutable table snapshot (null before the first plan is
  /// published and compiled). Wait-free apart from the brief pointer
  /// copy; hold it across a request batch and poll refresh() between
  /// batches.
  std::shared_ptr<const RoutingTable> tables() const {
    return tables_.current();
  }

  /// Recompiles and swaps the tables iff the plan handle has advanced
  /// past the compiled version. Serializes with concurrent refreshers;
  /// returns true when a new table was swapped in.
  bool refresh() const;

  /// refresh() that declines to wait: if another thread is already
  /// compiling, returns false immediately (counted in
  /// Stats::refresh_skips) — the caller keeps routing on the incumbent
  /// table instead of stalling.
  bool try_refresh() const;

  /// Plan version of the current tables (0 = none compiled yet).
  std::uint64_t table_version() const { return tables_.version(); }

  Stats stats() const {
    return Stats{tables_.rebuilds(), tables_.refresh_skips()};
  }

 private:
  /// The compile step tables_ runs on version change.
  auto compiler() const;

  Topology topology_;
  const PlanHandle& plans_;
  mutable DerivedTable<RoutingTable> tables_;
};

}  // namespace palb::serve
