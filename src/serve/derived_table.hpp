#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>

#include "core/plan_handle.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace palb::serve {

/// An immutable `Table` compiled from the plan a PlanHandle last
/// published and hot-swapped when the handle moves on: the one
/// compile-and-swap primitive behind Dispatcher (routing tables) and
/// AdmissionController (admit fractions). `Table::plan_version()`
/// reports the plan version a table was compiled from.
///
/// Readers copy the shared_ptr under table_mutex_ (PlanHandle's
/// TSan-visible guarded-shared_ptr idiom) and may hold the snapshot
/// across a request batch — RCU via shared_ptr. Compiles serialize on
/// compile_mutex_, held across the whole build by design; table_mutex_
/// guards only the pointer swap and is the K2 fast-path mutex in
/// tools/palb_analyze/layers.txt. try_refresh() only try-locks the
/// compile side, so a reader never waits behind a peer's build: it
/// keeps the incumbent table (counted in refresh_skips()) — the
/// zero-stall contract of docs/SERVING.md.
///
/// `compile` maps a `const PlanHandle::Snapshot&` to a Table and runs
/// under compile_mutex(), so an owner may guard its compile inputs with
/// PALB_GUARDED_BY(table.compile_mutex()); the callable then calls
/// compile_mutex().assert_held(), as the analysis cannot follow the
/// lock into a lambda.
template <class Table>
class DerivedTable {
 public:
  /// Current table (null before the first compile).
  std::shared_ptr<const Table> current() const PALB_EXCLUDES(table_mutex_) {
    MutexLock lock(table_mutex_);
    return table_;
  }

  /// Plan version of the current table (0 = none compiled yet).
  std::uint64_t version() const PALB_EXCLUDES(table_mutex_) {
    MutexLock lock(table_mutex_);
    return table_ ? table_->plan_version() : 0;
  }

  /// current(), after a try_refresh() iff it lags the published plan:
  /// the one-shot coherent read behind route() and admit().
  template <class Compile>
  std::shared_ptr<const Table> fresh(const PlanHandle& plans,
                                     const Compile& compile)
      PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    std::shared_ptr<const Table> table = current();
    if (!table || table->plan_version() < plans.version()) {
      try_refresh(plans, compile);
      table = current();
    }
    return table;
  }

  /// Recompiles and swaps iff `plans` moved past the compiled version
  /// or invalidate() was called; true iff a new table was swapped in.
  template <class Compile>
  bool refresh(const PlanHandle& plans, const Compile& compile)
      PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    MutexLock lock(compile_mutex_);
    return refresh_locked(plans, compile);
  }

  /// refresh() that declines to wait behind a peer's compile.
  template <class Compile>
  bool try_refresh(const PlanHandle& plans, const Compile& compile)
      PALB_EXCLUDES(compile_mutex_, table_mutex_) {
    if (!compile_mutex_.try_lock()) {
      refresh_skips_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const bool swapped = refresh_locked(plans, compile);
    compile_mutex_.unlock();
    return swapped;
  }

  /// refresh() body, for callers already holding compile_mutex().
  template <class Compile>
  bool refresh_locked(const PlanHandle& plans, const Compile& compile)
      PALB_REQUIRES(compile_mutex_) PALB_EXCLUDES(table_mutex_) {
    // After invalidate(), acquire_if_newer(0) returns the current plan
    // whenever any plan has been published.
    const std::uint64_t have = invalidated_ ? 0 : version();
    const std::optional<PlanHandle::Snapshot> snap =
        plans.acquire_if_newer(have);
    if (!snap) return false;
    // Compile outside table_mutex_: readers keep serving the incumbent
    // table for the whole build and only wait out the pointer swap.
    auto compiled = std::make_shared<const Table>(compile(*snap));
    invalidated_ = false;
    {
      MutexLock lock(table_mutex_);
      table_ = std::move(compiled);
    }
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Forces the next refresh to recompile at an unchanged plan version.
  void invalidate() PALB_REQUIRES(compile_mutex_) { invalidated_ = true; }

  /// The compile capability, for owners that change their compile
  /// inputs, invalidate() and refresh_locked() in one step.
  Mutex& compile_mutex() const PALB_RETURN_CAPABILITY(compile_mutex_) {
    return compile_mutex_;
  }

  /// Tables compiled and swapped in; try_refresh() calls that found a
  /// peer compiling.
  std::uint64_t rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }
  std::uint64_t refresh_skips() const {
    return refresh_skips_.load(std::memory_order_relaxed);
  }

 private:
  /// Fixed order: compile_mutex_ before table_mutex_.
  mutable Mutex compile_mutex_;
  mutable Mutex table_mutex_ PALB_ACQUIRED_AFTER(compile_mutex_);
  std::shared_ptr<const Table> table_ PALB_GUARDED_BY(table_mutex_);
  bool invalidated_ PALB_GUARDED_BY(compile_mutex_) = false;
  std::atomic<std::uint64_t> rebuilds_{0};
  std::atomic<std::uint64_t> refresh_skips_{0};
};

}  // namespace palb::serve
