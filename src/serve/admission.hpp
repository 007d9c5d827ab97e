#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cloud/model.hpp"
#include "core/plan_handle.hpp"
#include "serve/derived_table.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace palb::serve {

/// Immutable per-(class, front-end) admission table compiled from one
/// DispatchPlan and the slot's *offered* mix — the overload gate that
/// sits in front of Dispatcher::route (docs/OVERLOAD.md).
///
/// Sizing: each stream's admitted capacity starts at the plan's total
/// dispatched rate for that stream (what the optimizer actually
/// provisioned). Spare planned capacity of under-subscribed streams at
/// the same front-end is then pooled and re-granted in class-priority
/// order — class 0 (interactive) first — so when the front-end as a
/// whole is overloaded, batch classes shed before interactive ones.
/// A burst margin on top absorbs the Poisson jitter of a stream that
/// is exactly at plan.
///
/// The per-request decision is a deterministic "hash-space token
/// bucket": request id -> SplitMix64 hash into [0, 1), admitted iff the
/// hash falls below the stream's admit fraction. admit() is therefore a
/// pure function of (table, class, front-end, request id) — no counters,
/// no clock — which is what keeps shed/route decision sequences
/// byte-identical across driver-thread counts (the same guarantee
/// RoutingTable::route gives, tests/test_dispatch_determinism.cpp).
///
/// A rung-5 shed-all plan admits nothing: every planned rate is zero, so
/// every admit fraction is zero and 100% of requests shed — the
/// acceptance case tests/test_admission.cpp pins down.
class AdmissionTable {
 public:
  AdmissionTable() = default;

  /// Compiles the admit fractions for `plan` (published as
  /// `plan_version`) against the offered arrival rates in `offered`.
  /// Throws InvalidArgument on a shape mismatch or a negative rate.
  static AdmissionTable compile(const Topology& topology,
                                const DispatchPlan& plan,
                                std::uint64_t plan_version,
                                const SlotInput& offered,
                                double burst_margin);

  /// Admission-controls one class-`klass` request at front-end
  /// `frontend`. Pure and lock-free: any number of threads may call it
  /// on a shared immutable table.
  bool admit(std::size_t klass, std::size_t frontend,
             std::uint64_t request_id) const;

  /// The compiled admit fraction of one stream, in [0, 1] — the test
  /// surface for the sizing rules.
  double admit_fraction(std::size_t klass, std::size_t frontend) const;

  std::uint64_t plan_version() const { return plan_version_; }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t num_frontends() const { return num_frontends_; }

 private:
  std::size_t num_classes_ = 0;
  std::size_t num_frontends_ = 0;
  std::uint64_t plan_version_ = 0;
  /// fraction_[k * S + s]: probability mass of the id-hash space this
  /// stream admits.
  std::vector<double> fraction_;
};

/// Follows a PlanHandle the way the Dispatcher does — compile on version
/// change, hot-swap an immutable table under a pointer lock, both via
/// DerivedTable (serve/derived_table.hpp) — but for admission decisions.
/// Sits *in front of* routing on the fast path:
///
///   if (!admission.admit(k, s, id)) return shed;
///   return dispatcher.route(k, s, id);
///
/// The offered mix is part of admission sizing, so set_offered()
/// invalidates the compiled table and recompiles it even when the plan
/// version has not moved (the chaos harness re-points it every slot as
/// demand-surge faults reshape the offered load).
class AdmissionController {
 public:
  struct Stats {
    std::uint64_t rebuilds = 0;       ///< tables compiled and swapped in
    std::uint64_t refresh_skips = 0;  ///< try_refresh found a peer compiling
  };

  /// `plans` is not owned and must outlive the controller. `offered` is
  /// copied.
  AdmissionController(Topology topology, const PlanHandle& plans,
                      SlotInput offered, double burst_margin = 0.05);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// Replaces the offered mix and recompiles against it at once (when a
  /// plan exists): admit() polls only for *plan-version* staleness, so
  /// an offered-mix change must not wait for the next publish.
  void set_offered(const SlotInput& offered)
      PALB_EXCLUDES(table_.compile_mutex());

  /// Current immutable table snapshot (null before the first compile);
  /// hold it across a request batch, exactly like Dispatcher::tables().
  std::shared_ptr<const AdmissionTable> table() const {
    return table_.current();
  }

  /// Recompiles and swaps iff the plan handle has advanced past the
  /// compiled version; true iff a new table was swapped in.
  bool refresh() const PALB_EXCLUDES(table_.compile_mutex());

  /// refresh() that declines to wait behind a peer's compile.
  bool try_refresh() const PALB_EXCLUDES(table_.compile_mutex());

  /// One-shot coherent admit: refreshes opportunistically when stale,
  /// then decides. Admits everything before the first plan compiles
  /// (routing reports kNoRoute then anyway).
  bool admit(std::size_t klass, std::size_t frontend,
             std::uint64_t request_id) const
      PALB_EXCLUDES(table_.compile_mutex());

  /// Plan version of the current table (0 = none compiled yet).
  std::uint64_t table_version() const { return table_.version(); }

  Stats stats() const {
    return Stats{table_.rebuilds(), table_.refresh_skips()};
  }

 private:
  /// The compile step table_ runs under its compile mutex.
  auto compiler() const;

  Topology topology_;
  const PlanHandle& plans_;
  double burst_margin_;
  mutable DerivedTable<AdmissionTable> table_;
  SlotInput offered_ PALB_GUARDED_BY(table_.compile_mutex());
};

}  // namespace palb::serve
