#pragma once

// In-memory span recorder for the benchmark's traced runs. A span is
// opened and closed by the benchmark around one call into a module's
// public API; nothing inside the program under test is instrumented.
// Each thread owns its own SpanLog, so recording takes no lock; logs are
// merged after the threads that filled them have been joined.

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// The layer boundaries the benchmark times, in pipeline order. kSlot
/// and kDecide are the benchmark's own parent spans; every other layer
/// is one public call into a module.
enum class Layer : std::uint8_t {
  kSlot,          ///< one planning cycle: slot_input .. publish
  kSlotInput,     ///< Scenario::slot_input (workload/market)
  kPlanSlot,      ///< Policy::plan_slot (core)
  kCheck,         ///< PlanChecker::check (check)
  kEvaluate,      ///< evaluate_plan (cloud)
  kPublish,       ///< PlanHandle::publish (core)
  kRouteCompile,  ///< RoutingTable::compile (serve)
  kAdmitCompile,  ///< AdmissionTable::compile (serve)
  kAnchorLp,      ///< SimplexSolver / DecomposedSolver::solve (solver)
  kDecide,        ///< one sampled request decision
  kAdmit,         ///< AdmissionController::admit (serve)
  kRoute,         ///< Dispatcher::route (serve)
  kCount
};

inline const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kSlot: return "slot";
    case Layer::kSlotInput: return "workload.slot_input";
    case Layer::kPlanSlot: return "core.plan_slot";
    case Layer::kCheck: return "check.check";
    case Layer::kEvaluate: return "cloud.evaluate_plan";
    case Layer::kPublish: return "core.publish";
    case Layer::kRouteCompile: return "serve.route_compile";
    case Layer::kAdmitCompile: return "serve.admit_compile";
    case Layer::kAnchorLp: return "solver.anchor_lp";
    case Layer::kDecide: return "decide";
    case Layer::kAdmit: return "serve.admit";
    case Layer::kRoute: return "serve.route";
    case Layer::kCount: break;
  }
  return "?";
}

struct Span {
  Layer layer = Layer::kSlot;
  std::int32_t parent = -1;  ///< index into the same log, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's spans. When disabled, open() returns -1 and close() is a
/// no-op, so untraced runs pay one predictable branch per boundary.
class SpanLog {
 public:
  explicit SpanLog(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  std::int32_t open(Layer layer, std::int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{layer, parent, now_ns(), 0});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class Scoped {
 public:
  Scoped(SpanLog& log, Layer layer, std::int32_t parent = -1)
      : log_(log), index_(log.open(layer, parent)) {}
  ~Scoped() { log_.close(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

  std::int32_t index() const { return index_; }

 private:
  SpanLog& log_;
  std::int32_t index_;
};

/// Self time of every span in `log`: its duration minus the time its
/// direct children cover (children never overlap: each log is one
/// thread's). Returned per layer, in nanoseconds.
inline std::vector<std::vector<double>> self_times_ns(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::vector<std::vector<double>> out(static_cast<std::size_t>(Layer::kCount));
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double self =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) - child_ns[i];
    out[static_cast<std::size_t>(spans[i].layer)].push_back(
        std::max(0.0, self));
  }
  return out;
}

}  // namespace perfbench
