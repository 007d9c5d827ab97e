#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "cloud/plan.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace palb {

/// RCU-style hot-swap cell for the currently applied DispatchPlan — the
/// seed of the ROADMAP's online serving mode, where per-request routing
/// is a constant-time lookup against the plan the slow path last
/// published.
///
/// Reader side: acquire() copies one shared_ptr under a dedicated
/// snapshot mutex — O(1), independent of plan size, never held across
/// a solve — and returns an immutable Snapshot that stays valid for as
/// long as the caller holds it, with no lock held while it is used.
/// The grace period is the shared_ptr refcount: a swapped-out plan is
/// reclaimed exactly when its last reader lets go, so a dispatcher
/// thread can route against a snapshot while the next slot's plan
/// lands. (The storage is a guarded shared_ptr rather than
/// std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic guards its raw
/// pointer with a lock bit ThreadSanitizer cannot see through, and a
/// primitive whose own swap path reports races under the tsan preset
/// would be useless here. The brief mutex copy is TSan-visible, lets
/// current_ carry PALB_GUARDED_BY, and the acquire() contract leaves
/// room to go lock-free later without touching callers.)
///
/// Writer side: publish() serializes publishers on the handle's
/// publish mutex and bumps a strictly increasing version, so a reader
/// detects a swap by comparing Snapshot::version across two acquires.
/// For read-modify-publish sequences (inspect the incumbent, then swap
/// atomically with respect to other writers) the two-step
/// publish_mutex()/publish_locked() surface is exposed — and it is
/// capability-annotated: calling publish_locked() without holding
/// publish_mutex(), or publish() while holding it, is a compile error
/// under the thread-safety preset
/// (tests/compile_fail/thread_safety_cases/).
class PlanHandle {
 public:
  /// One coherent (plan, version) pair. `plan` is null and `version` 0
  /// until the first publish.
  struct Snapshot {
    std::shared_ptr<const DispatchPlan> plan;
    std::uint64_t version = 0;

    explicit operator bool() const { return plan != nullptr; }
  };

  PlanHandle() = default;
  PlanHandle(const PlanHandle&) = delete;
  PlanHandle& operator=(const PlanHandle&) = delete;

  /// Coherent read of the current plan. Safe from any thread —
  /// concurrently with publish(), and also while holding
  /// publish_mutex() inside a two-step sequence (it takes only the
  /// internal snapshot mutex); no lock is held once the Snapshot is
  /// returned.
  Snapshot acquire() const PALB_EXCLUDES(snap_mutex_);

  /// Version of the currently published plan (0 = none yet); the same
  /// constant-time read as acquire() without materializing a snapshot.
  std::uint64_t version() const PALB_EXCLUDES(snap_mutex_);

  /// acquire(), but only when the current version is strictly newer
  /// than `since`; an empty optional means the caller's copy is still
  /// current. One lock round-trip instead of the racy version() +
  /// acquire() pair — the poll the serving fast path's table refresh
  /// (src/serve/derived_table.hpp) runs between request batches.
  std::optional<Snapshot> acquire_if_newer(std::uint64_t since) const
      PALB_EXCLUDES(snap_mutex_);

  /// Publishes `plan` as the new current plan; returns its version.
  /// Serializes with other publishers internally.
  std::uint64_t publish(DispatchPlan plan) PALB_EXCLUDES(mutex_);

  /// The capability guarding the publish side, for two-step sequences:
  ///
  ///   MutexLock lock(handle.publish_mutex());
  ///   ... inspect handle.acquire() / decide ...
  ///   handle.publish_locked(std::move(next));
  Mutex& publish_mutex() const PALB_RETURN_CAPABILITY(mutex_) {
    return mutex_;
  }

  /// publish() body, for callers already holding publish_mutex().
  std::uint64_t publish_locked(DispatchPlan plan)
      PALB_REQUIRES(mutex_) PALB_EXCLUDES(snap_mutex_);

 private:
  /// One allocation per publish; Snapshot::plan aliases into the node,
  /// so the node (and its version) live until the last reader drops.
  struct Node {
    DispatchPlan plan;
    std::uint64_t version = 0;
  };

  /// Two capabilities with a fixed order (mutex_ before snap_mutex_):
  /// mutex_ is the publish capability, held across a whole read-modify-
  /// publish sequence; snap_mutex_ guards only the current_ pointer for
  /// the brief reader copy / writer swap, so acquire() works both from
  /// dispatcher threads and from inside a two-step publish.
  mutable Mutex mutex_;
  std::uint64_t version_ PALB_GUARDED_BY(mutex_) = 0;
  mutable Mutex snap_mutex_ PALB_ACQUIRED_AFTER(mutex_);
  std::shared_ptr<const Node> current_ PALB_GUARDED_BY(snap_mutex_);
};

}  // namespace palb
