// palb_perf: the measuring program behind perfbench/run.py.
//
// It drives one workload through the public planner and serving APIs —
// Scenario::slot_input, Policy::plan_slot, PlanChecker::check,
// evaluate_plan, PlanHandle::publish, the serve tables and
// AdmissionController::admit + Dispatcher::route — and prints one JSON
// report on stdout. Every time is taken by this file around those calls;
// the program under test is not instrumented. See perfbench/README.md.
//
//   palb_perf --workload plan_paper|plan_fleet|serve_steady
//             --seed N --seconds S [--trace 0|1] [--fleet-seed N]
//             [--request-seed N] [--size full|tiny]
//             [--inject-plan FILE] [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "check/plan_checker.hpp"
#include "cloud/accounting.hpp"
#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_handle.hpp"
#include "core/plan_json.hpp"
#include "serve/admission.hpp"
#include "serve/dispatcher.hpp"
#include "serve/load_driver.hpp"
#include "serve/routing_table.hpp"
#include "solver/decomposed.hpp"
#include "solver/simplex.hpp"
#include "spans.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using palb::DispatchPlan;
using palb::Json;
using palb::PolicyStats;
using palb::Scenario;
using palb::SlotInput;
using palb::Topology;
using Request = palb::serve::RequestStream::Request;
using palb::serve::Route;
using palb::serve::RouteStatus;

// ---------------------------------------------------------------- options

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::uint64_t fleet_seed = 9090;
  std::uint64_t request_seed = 0;
  bool request_seed_set = false;
  bool tiny = false;
  std::string inject_plan;  ///< a `palb run --plans` document for basic-low
  std::string trace_out;
};

/// Shape constants. `tiny` shrinks everything so the benchmark's own
/// tests run each workload in about a second.
struct Shape {
  std::size_t paper_horizon;    ///< worldcup slots per planned horizon
  std::size_t fleet_classes, fleet_frontends, fleet_dcs;
  std::size_t requests_per_driver;  ///< pre-generated closed-loop requests
  int setup_reps;               ///< least set-ups per run; setup_s is their median
  double setup_budget_s;        ///< more set-ups while their total stays below
};

constexpr Shape kFull{168, 2, 6, 16, 1u << 19, 10, 3.0};
constexpr Shape kTiny{24, 2, 3, 4, 1u << 14, 2, 0.0};

constexpr std::uint64_t kSampleEvery = 64;     ///< latency sampling gate
constexpr std::size_t kIdentitySlice = 65536;  ///< requests in the identity check
constexpr std::size_t kProbeRequests = 64;     ///< per slot, for publish probes
constexpr std::size_t kServeSlot = 20;         ///< worldcup slot whose plan is served
constexpr double kBurstMargin = 0.05;          ///< AdmissionController default
constexpr double kRoundS = 2.5;                ///< one planning + serving round
constexpr int kMaxSetups = 200;

/// Share of each round given to planning. plan_fleet's one solve takes
/// about 2 s, so its rounds keep the serving phase short.
double plan_share(const std::string& workload) {
  if (workload == "plan_paper") return 0.6;
  if (workload == "plan_fleet") return 0.8;
  return 0.5;
}

// ------------------------------------------------------------ small stats

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// How a run's windows (or repeats) become one figure. Outside load on a
// shared machine switches it between a fast and a slow state for seconds
// at a time: within one 25 s run of plan_paper on a 4-core VM, horizon
// rates sat near 2100 slots/s in some stretches and near 1350 in others.
// A median over a run then reports how much of the run fell in slow
// stretches, which varied by 1.5x between runs of the same code. Work
// that outside load can only slow down therefore reports its best window:
// the lowest time, the highest rate. A slower program is slower in every
// window, so it still shows. Several driver threads contending on the
// serving API are the exception: when outside load deschedules one of
// them the others decide faster, so their best window is not the
// workload's state, and they report the median window.
enum class Across { kBest, kMedian };

double time_across(const std::vector<double>& v, Across a) {
  return a == Across::kBest ? quantile(v, 0.0) : median(v);
}
double rate_across(const std::vector<double>& v, Across a) {
  return a == Across::kBest ? quantile(v, 1.0) : median(v);
}

/// A time-ordered sample stream reduced online to the p50 and p99 of each
/// window of 1000 consecutive samples, so memory stays flat however long
/// a run is. The figures are taken across windows (see Across). A stream
/// shorter than one window is one window; a window's p99 is capped so
/// that at least ten samples lie beyond it (but never below its median).
class Windowed {
 public:
  static constexpr std::size_t kWindow = 1000;

  void add(double v) {
    ++samples_;
    open_.push_back(v);
    if (open_.size() == kWindow) flush();
  }

  /// Ends the stream: a partial last window counts only when no full one
  /// exists.
  void close() {
    if (p50s_.empty() && !open_.empty()) flush();
    open_.clear();
  }

  /// Appends the windows of a closed stream.
  void merge(const Windowed& other) {
    p50s_.insert(p50s_.end(), other.p50s_.begin(), other.p50s_.end());
    p99s_.insert(p99s_.end(), other.p99s_.begin(), other.p99s_.end());
    samples_ += other.samples_;
  }

  double p50(Across a) const { return time_across(p50s_, a); }
  double p99(Across a) const { return time_across(p99s_, a); }
  std::uint64_t samples() const { return samples_; }

 private:
  void flush() {
    const double n = static_cast<double>(open_.size());
    p50s_.push_back(quantile(open_, 0.5));
    p99s_.push_back(quantile(open_, std::max(0.5, std::min(0.99, 1.0 - 10.0 / n))));
    open_.clear();
  }

  std::vector<double> open_;
  std::vector<double> p50s_, p99s_;
  std::uint64_t samples_ = 0;
};

/// Samples kept by horizon position, the slot's place in the planned
/// horizon. A slot's figure is its best time over the repeats of the
/// horizon in a run (see Across), and percentiles are taken over the
/// slots' figures: the tail is that of the horizon's hard slots, not of
/// outside load on the machine. A one-slot horizon reports its slot's
/// figure as every percentile.
class BySlot {
 public:
  void add(std::size_t pos, double v) {
    if (at_.size() <= pos) at_.resize(pos + 1);
    at_[pos].push_back(v);
    ++samples_;
  }

  /// Slots per second when every slot plans in its best time.
  double best_rate() const {
    double ms = 0.0;
    for (const auto& v : at_) ms += time_across(v, Across::kBest);
    return static_cast<double>(at_.size()) * 1e3 / ms;
  }

  double over_slots(double q) const {
    std::vector<double> figures;
    for (const auto& v : at_) {
      if (!v.empty()) figures.push_back(time_across(v, Across::kBest));
    }
    return quantile(figures, q);
  }
  std::uint64_t samples() const { return samples_; }

 private:
  std::vector<std::vector<double>> at_;
  std::uint64_t samples_ = 0;
};

double ms_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Mean of the fastest tenth of 4096 back-to-back clock-read pairs: the
/// cost every timed latency sample pays on top of the decision itself.
double calibrate_clock_ns() {
  std::vector<double> pairs;
  for (int i = 0; i < 4096; ++i) {
    const std::int64_t a = now_ns();
    const std::int64_t b = now_ns();
    pairs.push_back(static_cast<double>(b - a));
  }
  std::sort(pairs.begin(), pairs.end());
  const std::size_t fastest = pairs.size() / 10;
  double sum = 0.0;
  for (std::size_t i = 0; i < fastest; ++i) sum += pairs[i];
  return sum / static_cast<double>(fastest);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ------------------------------------------------------------ the system

/// The policy's options on a workload: the defaults, as every `palb`
/// command builds the policy, except that the worldcup workloads run the
/// enumeration sweep on the planning thread. With the default fork-join
/// over every hardware thread per slot, on a 4-core machine shared with
/// other load, plan_paper planned no faster (plan_ms_p50 0.38 ms against
/// 0.36 ms serial) and its figures spread about twice as wide from run
/// to run. plan_fleet's local search is serial whatever `parallel` says.
palb::OptimizedPolicy::Options policy_options(const std::string& workload) {
  palb::OptimizedPolicy::Options opt;
  if (workload != "plan_fleet") opt.parallel = false;
  return opt;
}

/// One planner feeding one serving tier over one scenario: what a set-up
/// builds. Not movable — the serving objects hold the handle's address.
struct Stack {
  Stack(Scenario sc, const SlotInput& offered,
        const palb::OptimizedPolicy::Options& options)
      : scenario(std::move(sc)),
        policy(options),
        dispatcher(scenario.topology, handle),
        admission(scenario.topology, handle, offered, kBurstMargin) {}
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  Scenario scenario;
  palb::OptimizedPolicy policy;
  palb::PlanChecker checker;
  palb::PlanHandle handle;
  palb::serve::Dispatcher dispatcher;
  palb::serve::AdmissionController admission;
};

/// Every per-request decision the benchmark makes goes through this one
/// function: admission first, then routing, both on the public API. A
/// non-null `log` records the decision and its two calls as spans.
Route decide(const Stack& st, const Request& r, SpanLog* log = nullptr) {
  const std::int32_t d = log ? log->open(Layer::kDecide) : -1;
  const std::int32_t a = log ? log->open(Layer::kAdmit, d) : -1;
  const bool admitted = st.admission.admit(r.klass, r.frontend, r.id);
  if (log) log->close(a);
  Route route{RouteStatus::kShed, 0, 0};
  if (admitted) {
    const std::int32_t s = log ? log->open(Layer::kRoute, d) : -1;
    route = st.dispatcher.route(r.klass, r.frontend, r.id);
    if (log) log->close(s);
  }
  if (log) log->close(d);
  return route;
}

/// Decision word: plan version and destination, 0xFFFF for shed, 0 for
/// no route — what the identity check compares.
std::uint64_t decision_word(const Route& route) {
  switch (route.status) {
    case RouteStatus::kRouted:
      return route.plan_version << 16 |
             (static_cast<std::uint64_t>(route.dc) + 1);
    case RouteStatus::kShed:
      return 0xFFFFull;
    case RouteStatus::kNoRoute:
      break;
  }
  return 0;
}

std::vector<Request> make_requests(const Topology& topo, const SlotInput& mix,
                                   std::uint64_t seed, std::size_t n,
                                   double* gen_ns_total) {
  const auto stream = palb::serve::RequestStream::compile(topo, mix, seed);
  std::vector<Request> out;
  out.reserve(n);
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) out.push_back(stream.at(i));
  if (gen_ns_total) *gen_ns_total += static_cast<double>(now_ns() - t0);
  return out;
}

std::uint64_t slot_seed(std::uint64_t base, std::size_t slot) {
  return base + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(slot) + 1);
}

// ------------------------------------------------------------- the tally

/// What one phase of a run (set-up, or one timed pass) measured, merged
/// over its threads.
struct Tally {
  // planning
  BySlot plan_ms;  ///< one planning cycle each
  std::uint64_t slots = 0;
  PolicyStats policy;
  // serving
  std::uint64_t decisions = 0;
  std::vector<double> decide_rates;  ///< decisions/s per 250 ms window
  Windowed decide_ns;
  BySlot p2s_us;
  std::uint64_t shed = 0;
  std::uint64_t no_route = 0;
  std::uint64_t publishes = 0;
  std::uint64_t rebuilds = 0;
  std::uint64_t refresh_skips = 0;
  std::uint64_t admit_rebuilds = 0;
  std::uint64_t stalled_routes = 0;
  double request_gen_ns = 0.0;
  std::uint64_t requests_generated = 0;
  // output checks
  std::uint64_t checks = 0;
  std::uint64_t failed_checks = 0;
  std::uint64_t violations = 0;

  void check(bool ok, const std::string& what) {
    ++checks;
    if (ok) return;
    ++failed_checks;
    std::fprintf(stderr, "output check failed: %s\n", what.c_str());
  }
};

/// What every repeat of a horizon must reproduce exactly: plan bytes by
/// horizon position, and the horizon's net profit.
struct Reference {
  std::vector<std::uint64_t> plan_hashes;
  double profit = 0.0;
  bool set = false;
};

void check_plan(const palb::PlanCheckReport& report, const std::string& what,
                Tally& tally) {
  tally.violations += report.violations.size();
  tally.check(report.ok(), what + " violates the constraint system:\n" +
                               report.summary());
}

// ------------------------------------------------------------- planning

struct Planned {
  DispatchPlan plan;
  SlotInput input;
  double profit = 0.0;
  std::uint64_t version = 0;
  std::int64_t publish_ns = 0;  ///< when publish() was called
  double cycle_ms = 0.0;        ///< slot_input through publish
};

/// One planning cycle of slot `t`: slot_input -> plan_slot -> check ->
/// evaluate -> publish, each call a child span of one kSlot span.
Planned plan_cycle(Stack& st, std::size_t t, Tally& tally, SpanLog& log) {
  Planned out;
  palb::PlanCheckReport report;
  const std::int64_t start = now_ns();
  {
    const Scoped slot(log, Layer::kSlot);
    {
      const Scoped s(log, Layer::kSlotInput, slot.index());
      out.input = st.scenario.slot_input(t);
    }
    const PolicyStats before = st.policy.stats();
    {
      const Scoped s(log, Layer::kPlanSlot, slot.index());
      out.plan = st.policy.plan_slot(st.scenario.topology, out.input);
    }
    tally.policy += st.policy.stats() - before;
    {
      const Scoped s(log, Layer::kCheck, slot.index());
      report = st.checker.check(st.scenario.topology, out.input, out.plan);
    }
    {
      const Scoped s(log, Layer::kEvaluate, slot.index());
      out.profit =
          palb::evaluate_plan(st.scenario.topology, out.input, out.plan)
              .net_profit();
    }
    DispatchPlan copy = out.plan;
    out.publish_ns = now_ns();
    {
      const Scoped s(log, Layer::kPublish, slot.index());
      out.version = st.handle.publish(std::move(copy));
    }
  }
  out.cycle_ms = ms_between(start, now_ns());
  ++tally.slots;
  ++tally.publishes;
  check_plan(report, "slot " + std::to_string(t), tally);
  return out;
}

/// Points admission at the slot's offered mix, then decides until one
/// decision carries the new plan version, which compiles both tables.
/// Returns publish-to-serve in µs.
double first_decision_us(Stack& st, const Planned& p,
                         const std::vector<Request>& reqs, Tally& tally) {
  st.admission.set_offered(p.input);
  for (std::size_t i = 0; i < 4 * reqs.size(); ++i) {
    const Route route = decide(st, reqs[i % reqs.size()]);
    if (route.routed() && route.plan_version >= p.version) {
      return static_cast<double>(now_ns() - p.publish_ns) / 1e3;
    }
  }
  tally.check(false, "no decision carried plan version " +
                         std::to_string(p.version));
  return 0.0;
}

/// One closed-loop client. Decides requests from its own pre-generated
/// array in order, wrapping, and times every kSampleEvery-th decision.
class Driver {
 public:
  Driver(const Stack& st, const std::vector<Request>& reqs, Windowed& latency,
         double clock_ns, SpanLog* log)
      : st_(st), reqs_(reqs), latency_(latency), clock_ns_(clock_ns), log_(log) {}

  /// Decides until `stop` reads true.
  void run(const std::atomic<bool>& stop) {
    for (std::uint64_t done = 0;; ++done) {
      if ((done & 255) == 0) {
        progress.store(done, std::memory_order_relaxed);
        if (stop.load(std::memory_order_relaxed)) break;
      }
      const Request& r = reqs_[next_];
      if (++next_ == reqs_.size()) next_ = 0;
      Route route;
      if (--countdown_ == 0) {
        countdown_ = kSampleEvery;
        const std::int64_t a = now_ns();
        route = decide(st_, r, log_);
        const std::int64_t b = now_ns();
        latency_.add(std::max(0.0, static_cast<double>(b - a) - clock_ns_));
      } else {
        route = decide(st_, r);
      }
      ++decisions;
      if (route.status == RouteStatus::kShed) {
        ++shed;
      } else if (route.status == RouteStatus::kNoRoute) {
        ++no_route;
      }
    }
  }

  void merge_into(Tally& tally) const {
    tally.decisions += decisions;
    tally.shed += shed;
    tally.no_route += no_route;
  }

  std::atomic<std::uint64_t> progress{0};  ///< decisions so far, for windows

 private:
  const Stack& st_;
  const std::vector<Request>& reqs_;
  Windowed& latency_;  ///< this thread's sample stream
  double clock_ns_;
  SpanLog* log_;
  std::size_t next_ = 0;
  std::uint64_t countdown_ = kSampleEvery;
  std::uint64_t decisions = 0;
  std::uint64_t shed = 0;
  std::uint64_t no_route = 0;
};

struct ServeCounters {
  palb::serve::Dispatcher::Stats dispatcher;
  palb::serve::AdmissionController::Stats admission;
};

ServeCounters read_counters(const Stack& st) {
  return {st.dispatcher.stats(), st.admission.stats()};
}

void add_counter_delta(const ServeCounters& before, const ServeCounters& after,
                       Tally& tally) {
  tally.rebuilds += after.dispatcher.rebuilds - before.dispatcher.rebuilds;
  tally.refresh_skips +=
      after.dispatcher.refresh_skips - before.dispatcher.refresh_skips;
  tally.stalled_routes +=
      after.dispatcher.stalled_routes - before.dispatcher.stalled_routes;
  tally.admit_rebuilds +=
      after.admission.rebuilds - before.admission.rebuilds;
}

/// Recorded decisions of a fixed request slice on a quiescent plan must
/// be identical from 1 driver thread and from `threads` driver threads.
void check_decision_identity(const Stack& st, const std::vector<Request>& reqs,
                             std::size_t threads, Tally& tally) {
  st.dispatcher.refresh();
  st.admission.refresh();
  const std::size_t n = std::min(kIdentitySlice, reqs.size());
  std::vector<std::uint64_t> serial(n), parallel(n);
  for (std::size_t i = 0; i < n; ++i) serial[i] = decision_word(decide(st, reqs[i]));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += threads) {
        parallel[i] = decision_word(decide(st, reqs[i]));
      }
    });
  }
  for (auto& th : pool) th.join();
  tally.check(serial == parallel,
              "decisions differ between 1 and " + std::to_string(threads) +
                  " driver threads on a quiescent plan");
}

// ------------------------------------------------------------ workloads

struct Env {
  Options opt;
  Shape shape;
  std::size_t threads = 1;  ///< serving threads
  double clock_ns = 0.0;
};

Scenario fleet_scenario(const Env& env) {
  palb::Rng rng(env.opt.fleet_seed);
  const Shape& sh = env.shape;
  Scenario sc;
  sc.topology = palb::bench::scale_topology(sh.fleet_classes,
                                            sh.fleet_frontends, sh.fleet_dcs,
                                            rng);
  const SlotInput input = palb::bench::scale_input(
      sh.fleet_classes, sh.fleet_frontends, sh.fleet_dcs, rng);
  sc.slot_seconds = input.slot_seconds;
  sc.arrivals.resize(sh.fleet_classes);
  for (std::size_t k = 0; k < sh.fleet_classes; ++k) {
    for (std::size_t s = 0; s < sh.fleet_frontends; ++s) {
      sc.arrivals[k].emplace_back(
          "k" + std::to_string(k) + "s" + std::to_string(s),
          std::vector<double>{input.arrival_rate[k][s]});
    }
  }
  for (std::size_t l = 0; l < sh.fleet_dcs; ++l) {
    sc.prices.emplace_back("dc" + std::to_string(l),
                           std::vector<double>{input.price[l]});
  }
  sc.validate();
  return sc;
}

/// The inputs one run works on.
struct Setup {
  std::unique_ptr<Stack> stack;
  std::vector<std::size_t> horizon;              ///< slots planned, in order
  std::vector<std::vector<Request>> probe_reqs;  ///< by horizon position
  std::vector<std::vector<Request>> driver_reqs;  ///< one per serving thread
};

/// Plans the horizon once through the full cycle, probing each publish,
/// and checks plan bytes and profit against the first horizon the run
/// planned. The last slot's plan is left live and compiled.
void plan_horizon(Setup& s, Reference& ref, Tally& tally, SpanLog& log,
                  std::vector<Planned>* keep) {
  double profit = 0.0;
  Stack& st = *s.stack;
  for (std::size_t i = 0; i < s.horizon.size(); ++i) {
    Planned p = plan_cycle(st, s.horizon[i], tally, log);
    tally.p2s_us.add(i, first_decision_us(st, p, s.probe_reqs[i], tally));
    tally.plan_ms.add(i, p.cycle_ms);
    profit += p.profit;
    const std::uint64_t hash = fnv1a(palb::plan_json::to_json(p.plan).dump());
    if (ref.plan_hashes.size() <= i) {
      ref.plan_hashes.push_back(hash);
    } else {
      tally.check(ref.plan_hashes[i] == hash,
                  "plan bytes of slot " + std::to_string(s.horizon[i]) +
                      " differ between repeats");
    }
    if (keep) keep->push_back(std::move(p));
  }
  if (!ref.set) {
    ref.profit = profit;
    ref.set = true;
  } else {
    tally.check(ref.profit == profit,
                "net profit differs between repeats of the horizon");
  }
}

/// Generates the scenario and every request, and builds the stack. The
/// worldcup week ends on kServeSlot, so the serving phases always decide
/// on its plan.
Setup make_setup(const Env& env, Tally& tally) {
  const Options& o = env.opt;
  const Shape& sh = env.shape;
  Setup s;
  Scenario sc;
  if (o.workload == "plan_fleet") {
    sc = fleet_scenario(env);
    s.horizon = {0};
  } else {
    sc = palb::paper::worldcup_study();
    for (std::size_t i = 1; i <= sh.paper_horizon; ++i) {
      s.horizon.push_back((kServeSlot + i) % sh.paper_horizon);
    }
  }
  auto generate = [&](std::size_t t, std::uint64_t seed, std::size_t n) {
    tally.requests_generated += n;
    return make_requests(sc.topology, sc.slot_input(t), seed, n,
                         &tally.request_gen_ns);
  };
  for (const std::size_t t : s.horizon) {
    s.probe_reqs.push_back(
        generate(t, slot_seed(o.request_seed, t), kProbeRequests));
  }
  for (std::size_t d = 0; d < env.threads; ++d) {
    s.driver_reqs.push_back(generate(s.horizon.back(),
                                     slot_seed(o.request_seed, 1000 + d),
                                     sh.requests_per_driver));
  }
  const SlotInput offered = sc.slot_input(s.horizon.front());
  s.stack = std::make_unique<Stack>(std::move(sc), offered,
                                    policy_options(o.workload));
  return s;
}

/// Planning phase: whole horizons until `seconds` have passed, at least
/// one of them.
void measure_planning(Setup& s, Reference& ref, double seconds, Tally& tally,
                      SpanLog& log) {
  Stack& st = *s.stack;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  const ServeCounters before = read_counters(st);
  do {
    plan_horizon(s, ref, tally, log, nullptr);
  } while (now_ns() < deadline);
  add_counter_delta(before, read_counters(st), tally);
}

/// Serving phase: `env.threads` closed-loop drivers for `seconds` on the
/// plan the planning phase left live, with no publishes.
void measure_serving(Setup& s, const Env& env, double seconds, Tally& tally,
                     std::vector<SpanLog>& logs) {
  Stack& st = *s.stack;
  std::vector<std::unique_ptr<Driver>> drivers;
  std::vector<Windowed> latency(env.threads);
  for (std::size_t t = 0; t < env.threads; ++t) {
    drivers.push_back(std::make_unique<Driver>(
        st, s.driver_reqs[t], latency[t], env.clock_ns,
        logs[t].enabled() ? &logs[t] : nullptr));
  }
  std::atomic<bool> go{false}, stop{false};
  std::atomic<std::size_t> ready{0};

  const ServeCounters before = read_counters(st);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < env.threads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      drivers[t]->run(stop);
    });
  }
  while (ready.load() < env.threads) std::this_thread::yield();
  const std::int64_t start = now_ns();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  go.store(true, std::memory_order_release);
  // Throughput is sampled in windows (see Across).
  const std::int64_t window_ns = std::min<std::int64_t>(250'000'000, end - start);
  std::uint64_t prev_count = 0;
  std::int64_t prev_at = start;
  for (std::int64_t at = start + window_ns; at <= end; at += window_ns) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(at - now_ns()));
    std::uint64_t count = 0;
    for (const auto& d : drivers) {
      count += d->progress.load(std::memory_order_relaxed);
    }
    const std::int64_t now = now_ns();
    tally.decide_rates.push_back(static_cast<double>(count - prev_count) *
                                 1e9 / static_cast<double>(now - prev_at));
    prev_count = count;
    prev_at = now;
  }
  std::this_thread::sleep_for(std::chrono::nanoseconds(end - now_ns()));
  stop.store(true);
  for (auto& th : threads) th.join();
  add_counter_delta(before, read_counters(st), tally);

  for (const auto& d : drivers) d->merge_into(tally);
  for (Windowed& w : latency) {
    w.close();
    tally.decide_ns.merge(w);
  }
}

// ------------------------------------------------------ per-layer passes

/// Table compiles, called directly on the plans this run produced.
void compile_pass(const Setup& s, const std::vector<Planned>& plans,
                  SpanLog& log) {
  const Stack& st = *s.stack;
  const std::int64_t deadline = now_ns() + 200'000'000;
  std::uint64_t sink = 0;
  do {
    for (const Planned& p : plans) {
      {
        const Scoped span(log, Layer::kRouteCompile);
        sink += palb::serve::RoutingTable::compile(st.scenario.topology, p.plan,
                                                   p.version)
                    .plan_version();
      }
      {
        const Scoped span(log, Layer::kAdmitCompile);
        sink += palb::serve::AdmissionTable::compile(
                    st.scenario.topology, p.plan, p.version, p.input,
                    kBurstMargin)
                    .plan_version();
      }
    }
  } while (now_ns() < deadline);
  if (sink == 0) std::fprintf(stderr, "compile pass produced no tables\n");
}

/// The anchor dispatch LP of each planned slot, solved directly.
void anchor_pass(const Setup& s, const std::vector<Planned>& plans,
                 SpanLog& log, Tally& tally) {
  const Topology& topo = s.stack->scenario.topology;
  for (const Planned& p : plans) {
    const palb::LinearProgram lp = palb::bench::anchor_dispatch_lp(topo, p.input);
    palb::LpSolution sol;
    {
      const Scoped span(log, Layer::kAnchorLp);
      if (lp.num_variables() >=
          palb::OptimizedPolicy::Options{}.decomposed_min_variables) {
        sol = palb::DecomposedSolver().solve(lp);
      } else {
        sol = palb::SimplexSolver(palb::SimplexSolver::Options{}).solve(lp);
      }
    }
    tally.check(sol.status == palb::LpStatus::kOptimal,
                "anchor LP did not solve to optimality");
  }
}

struct ReadSide {
  double table_route_ns = 0.0;
  double table_admit_ns = 0.0;
  double api_ns = 0.0;
};

/// Held immutable tables vs the full API decide, one thread, same slice.
ReadSide read_side_pass(const Stack& st, const std::vector<Request>& reqs) {
  st.dispatcher.refresh();
  st.admission.refresh();
  const auto route_table = st.dispatcher.tables();
  const auto admit_table = st.admission.table();
  const std::size_t n = std::min<std::size_t>(reqs.size(), 1u << 16);
  constexpr int kReps = 8;
  std::uint64_t sink = 0;
  auto per_request = [&](const std::function<void()>& body) {
    std::vector<double> reps;
    for (int r = 0; r < kReps; ++r) {
      const std::int64_t a = now_ns();
      body();
      reps.push_back(static_cast<double>(now_ns() - a) / static_cast<double>(n));
    }
    return median(reps);
  };
  ReadSide out;
  out.table_route_ns = per_request([&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += route_table->route(reqs[i].klass, reqs[i].frontend, reqs[i].id).dc;
    }
  });
  out.table_admit_ns = per_request([&] {
    for (std::size_t i = 0; i < n; ++i) {
      sink += admit_table->admit(reqs[i].klass, reqs[i].frontend, reqs[i].id);
    }
  });
  out.api_ns = per_request([&] {
    for (std::size_t i = 0; i < n; ++i) sink += decide(st, reqs[i]).dc;
  });
  if (sink == 0) std::fprintf(stderr, "read-side pass routed nothing\n");
  return out;
}

/// The fixture check: every plan in a `palb run --plans` document for the
/// basic-low scenario (the one tools/fixtures/ is written for) goes through
/// the same output check as the workload's own plans.
void inject_fixture(const Options& o, Tally& tally) {
  const Scenario sc = palb::paper::basic_synthetic(palb::paper::ArrivalSet::kLow);
  std::ifstream is(o.inject_plan);
  if (!is) throw std::runtime_error("cannot open " + o.inject_plan);
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const Json doc = Json::parse(buffer.str());
  const palb::PlanChecker checker;
  for (const auto& [name, run] : doc.as_object()) {
    const Json& slots = run.at("slots");
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const std::size_t t = slots[i].at("slot").as_index();
      const SlotInput input = sc.slot_input(t);
      const DispatchPlan plan =
          palb::plan_json::from_json(slots[i].at("plan"), sc.topology);
      check_plan(checker.check(sc.topology, input, plan),
                 "injected plan " + name + " slot " + std::to_string(t),
                 tally);
    }
  }
}

// ------------------------------------------------------------ the report

Json number(double v) { return Json(v); }
Json count(std::uint64_t v) { return Json(static_cast<double>(v)); }

double per(double total, std::uint64_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

/// Median self time of `layer` over every span log, scaled by `unit_ns`.
double layer_self(const std::vector<std::vector<std::vector<double>>>& selves,
                  Layer layer, double unit_ns) {
  std::vector<double> all;
  for (const auto& log : selves) {
    const auto& v = log[static_cast<std::size_t>(layer)];
    all.insert(all.end(), v.begin(), v.end());
  }
  return median(all) / unit_ns;
}

void write_trace(const std::string& path, const std::vector<SpanLog>& logs) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t].spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      os << "{\"thread\":" << t << ",\"id\":" << i
         << ",\"parent\":" << spans[i].parent << ",\"name\":\""
         << layer_name(spans[i].layer) << "\",\"start_ns\":"
         << spans[i].start_ns << ",\"end_ns\":" << spans[i].end_ns << "}\n";
    }
  }
}

std::size_t default_threads() {
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  return std::clamp<std::size_t>(hw - 1, 1, 3);
}

Options parse(int argc, char** argv) {
  Options o;
  auto need = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::runtime_error(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--workload") o.workload = need(i);
    else if (a == "--seed") o.seed = std::stoull(need(i));
    else if (a == "--seconds") o.seconds = std::stod(need(i));
    else if (a == "--trace") o.trace = need(i) == "1";
    else if (a == "--fleet-seed") o.fleet_seed = std::stoull(need(i));
    else if (a == "--request-seed") {
      o.request_seed = std::stoull(need(i));
      o.request_seed_set = true;
    } else if (a == "--size") o.tiny = need(i) == "tiny";
    else if (a == "--inject-plan") o.inject_plan = need(i);
    else if (a == "--trace-out") o.trace_out = need(i);
    else throw std::runtime_error("unknown argument " + a);
  }
  if (o.workload != "plan_paper" && o.workload != "plan_fleet" &&
      o.workload != "serve_steady") {
    throw std::runtime_error(
        "--workload must be plan_paper, plan_fleet or serve_steady");
  }
  if (!(o.seconds > 0.0)) throw std::runtime_error("--seconds must be > 0");
  if (!o.request_seed_set) o.request_seed = o.seed;
  return o;
}

int run(int argc, char** argv) {
  Env env;
  env.opt = parse(argc, argv);
  const Options& o = env.opt;
  env.shape = o.tiny ? kTiny : kFull;
  // Serving threads stay below the core count; the planning workloads
  // serve from one driver.
  env.threads = o.workload == "serve_steady" ? default_threads() : 1;
  env.clock_ns = calibrate_clock_ns();
  const bool planning = o.workload != "serve_steady";

  // Set up several times, until both setup_reps set-ups and setup_budget_s
  // of set-up time are done; setup_s is their median, the last set-up is
  // kept.
  Tally setup;
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  Setup s;
  for (int r = 0; r < (o.trace ? 1 : kMaxSetups); ++r) {
    if (r >= env.shape.setup_reps && setup_total_s >= env.shape.setup_budget_s) {
      break;
    }
    s = Setup{};
    const std::int64_t a = now_ns();
    s = make_setup(env, setup);
    setup_s.push_back(static_cast<double>(now_ns() - a) / 1e9);
    setup_total_s += setup_s.back();
  }

  // The untraced pass (the whole run, or the first half of a traced run)
  // gives the end-to-end figures; a traced pass of the same length gives
  // the per-layer ones, and the two rates give the tracing overhead. A
  // pass is rounds of about kRoundS: a planning phase of plan_share() of
  // the round (the planning figures and the publish-to-serve probes; at
  // least one horizon, so one plan_fleet solve), then a serving phase on
  // the plan it left live.
  const double pass_s = o.trace ? o.seconds / 2.0 : o.seconds;
  const double share = plan_share(o.workload);
  Reference ref;
  Tally timed[2], planned[2];
  double rate[2] = {0.0, 0.0};
  std::vector<SpanLog> logs;
  for (int pass = 0; pass < (o.trace ? 2 : 1); ++pass) {
    const bool traced = pass == 1;
    const std::size_t plan_log = logs.size();
    logs.emplace_back(traced);
    Tally& plan_tally = planning ? timed[pass] : planned[pass];
    std::vector<SpanLog> pass_logs(env.threads, SpanLog(traced));
    const std::int64_t end = now_ns() + static_cast<std::int64_t>(pass_s * 1e9);
    do {
      measure_planning(s, ref, share * kRoundS, plan_tally, logs[plan_log]);
      measure_serving(s, env, (1.0 - share) * kRoundS, timed[pass], pass_logs);
    } while (now_ns() < end);
    rate[pass] = planning ? plan_tally.plan_ms.best_rate()
                          : rate_across(timed[pass].decide_rates, Across::kMedian);
    for (SpanLog& l : pass_logs) logs.push_back(std::move(l));
  }
  const int layer_pass = o.trace ? 1 : 0;
  const Tally& run_t = timed[0];
  const Tally& layer_t = timed[layer_pass];
  const Tally& plan_t = planning ? run_t : planned[0];
  const Tally& layer_plan_t = planning ? layer_t : planned[layer_pass];
  for (Tally& t : timed) t.decide_ns.close();

  Tally closing;
  Stack& st = *s.stack;
  const std::vector<Request>& slice = s.driver_reqs.front();
  check_decision_identity(st, slice, std::max<std::size_t>(2, default_threads()),
                          closing);
  closing.check(st.dispatcher.stats().stalled_routes == 0,
              "a route stalled on a table swap");
  if (!o.inject_plan.empty()) inject_fixture(o, closing);

  Json layers = Json::object();
  if (o.trace) {
    // Per-layer passes, traced, on the plans of one more horizon.
    std::vector<Planned> plans;
    SpanLog off(false);
    plan_horizon(s, ref, closing, off, &plans);
    SpanLog pass_log(true);
    compile_pass(s, plans, pass_log);
    anchor_pass(s, plans, pass_log, closing);
    const ReadSide rs = read_side_pass(st, slice);

    std::vector<SpanLog> all = logs;
    all.push_back(pass_log);
    std::vector<std::vector<std::vector<double>>> selves;
    for (const SpanLog& l : all) selves.push_back(self_times_ns(l));
    auto self = [&](Layer layer, double unit_ns) {
      return number(layer_self(selves, layer, unit_ns));
    };

    const PolicyStats& ps = layer_plan_t.policy;
    const double slots =
        static_cast<double>(std::max<std::uint64_t>(1, layer_plan_t.slots));
    auto per_slot = [&](std::uint64_t v) {
      return number(static_cast<double>(v) / slots);
    };
    // profiles_examined counts LP-solved profiles; pruned ones come on top.
    const std::uint64_t lp_solves = ps.profiles_examined;
    const std::uint64_t visited = ps.profiles_examined + ps.profiles_pruned;
    std::uint64_t violations = 0, failed = 0;
    for (const Tally* t : {&setup, &timed[0], &timed[1], &planned[0],
                           &planned[1], &closing}) {
      violations += t->violations;
      failed += t->failed_checks;
    }
    layers.set("workload.slot_input_us", self(Layer::kSlotInput, 1e3));
    layers.set("core.plan_slot_ms", self(Layer::kPlanSlot, 1e6));
    layers.set("core.profiles_visited", per_slot(visited));
    layers.set("core.profiles_pruned", per_slot(ps.profiles_pruned));
    layers.set("core.prune_ratio",
               number(per(static_cast<double>(ps.profiles_pruned), visited)));
    layers.set("core.lp_solves", per_slot(lp_solves));
    layers.set("core.warm_start_hit_rate", number(ps.cache_hit_rate()));
    layers.set("core.publish_us", self(Layer::kPublish, 1e3));
    layers.set("solver.pivots", per_slot(ps.lp_iterations));
    layers.set("solver.pivots_per_lp",
               number(per(static_cast<double>(ps.lp_iterations), lp_solves)));
    layers.set("solver.phase1_skips", per_slot(ps.phase1_skips));
    layers.set("solver.basis_warm_hits", per_slot(ps.basis_warm_hits));
    layers.set("solver.sparse_price_skips", per_slot(ps.sparse_price_skips));
    layers.set("solver.dw_master_rounds", per_slot(ps.master_iterations));
    layers.set("solver.dw_subproblem_solves", per_slot(ps.subproblem_solves));
    layers.set("solver.anchor_lp_ms", self(Layer::kAnchorLp, 1e6));
    layers.set("check.check_us", self(Layer::kCheck, 1e3));
    layers.set("check.violations", count(violations));
    layers.set("cloud.evaluate_us", self(Layer::kEvaluate, 1e3));
    layers.set("serve.route_compile_us", self(Layer::kRouteCompile, 1e3));
    layers.set("serve.admit_compile_us", self(Layer::kAdmitCompile, 1e3));
    layers.set("serve.rebuilds", count(layer_t.rebuilds));
    layers.set("serve.admit_rebuilds", count(layer_t.admit_rebuilds));
    layers.set("serve.refresh_skips", count(layer_t.refresh_skips));
    layers.set("serve.publishes", count(layer_t.publishes));
    layers.set("serve.table_route_ns", number(rs.table_route_ns));
    layers.set("serve.table_admit_ns", number(rs.table_admit_ns));
    layers.set("serve.api_overhead_ns",
               number(rs.api_ns - rs.table_route_ns - rs.table_admit_ns));
    layers.set("serve.admit_self_ns", self(Layer::kAdmit, 1.0));
    layers.set("serve.route_self_ns", self(Layer::kRoute, 1.0));
    layers.set("serve.stalled_routes", count(st.dispatcher.stats().stalled_routes));
    layers.set("serve.request_gen_ns",
               number(per(setup.request_gen_ns, setup.requests_generated)));
    layers.set("serve.fail_fraction",
               number(per(static_cast<double>(layer_t.shed + layer_t.no_route + failed),
                          layer_t.decisions + layer_t.slots)));
    layers.set("trace.slot_self_us", self(Layer::kSlot, 1e3));
    layers.set("trace.decide_self_ns", self(Layer::kDecide, 1.0));
    layers.set("trace.overhead_pct", number(100.0 * (rate[0] / rate[1] - 1.0)));
    std::size_t spans = 0;
    for (const SpanLog& l : all) spans += l.spans().size();
    layers.set("trace.spans", count(spans));
    if (!o.trace_out.empty()) write_trace(o.trace_out, all);
  }

  Json e2e = Json::object();
  e2e.set("setup_s", number(median(setup_s)));
  e2e.set("peak_rss_mb", number(peak_rss_mb()));
  const Across serving = env.threads > 1 ? Across::kMedian : Across::kBest;
  e2e.set("plan_slots_per_s", number(plan_t.plan_ms.best_rate()));
  e2e.set("plan_ms_p50", number(plan_t.plan_ms.over_slots(0.5)));
  e2e.set("plan_ms_p99", number(plan_t.plan_ms.over_slots(0.99)));
  e2e.set("net_profit_usd", number(ref.profit));
  e2e.set("decide_per_s", number(rate_across(run_t.decide_rates, serving)));
  e2e.set("decide_ns_p50", number(run_t.decide_ns.p50(serving)));
  e2e.set("decide_ns_p99", number(run_t.decide_ns.p99(serving)));
  e2e.set("publish_to_serve_us_p50", number(plan_t.p2s_us.over_slots(0.5)));
  e2e.set("publish_to_serve_us_p99", number(plan_t.p2s_us.over_slots(0.99)));

  Json samples = Json::object();
  samples.set("setup_s", count(setup_s.size()));
  samples.set("plan_ms", count(plan_t.plan_ms.samples()));
  samples.set("decide_rate_windows", count(run_t.decide_rates.size()));
  samples.set("decide_ns", count(run_t.decide_ns.samples()));
  samples.set("publish_to_serve_us", count(plan_t.p2s_us.samples()));

  std::uint64_t attempted = 0, failed = 0, shed = 0, no_route = 0;
  for (const Tally* t :
       {&setup, &timed[0], &timed[1], &planned[0], &planned[1], &closing}) {
    attempted += t->slots + t->decisions + t->checks;
    failed += t->failed_checks;
    shed += t->shed;
    no_route += t->no_route;
  }
  Json counts = Json::object();
  counts.set("shed", count(shed));
  counts.set("no_route", count(no_route));

  Json envj = Json::object();
  envj.set("compiler", Json(std::string(PERFBENCH_COMPILER)));
  envj.set("build_type", Json(std::string(PERFBENCH_BUILD_TYPE)));
  envj.set("cxx_flags", Json(std::string(PERFBENCH_CXX_FLAGS)));
  envj.set("hardware_concurrency", count(std::thread::hardware_concurrency()));
  envj.set("driver_threads", count(env.threads));
  envj.set("policy_sweep_threads", count(1));
  envj.set("seed", count(o.seed));
  envj.set("fleet_seed", count(o.fleet_seed));
  envj.set("request_seed", count(o.request_seed));
  envj.set("size", Json(std::string(o.tiny ? "tiny" : "full")));
  envj.set("clock_overhead_ns", number(env.clock_ns));
  envj.set("sample_every", count(kSampleEvery));

  Json report = Json::object();
  report.set("workload", Json(o.workload));
  report.set("correct", Json(failed == 0));
  report.set("attempted", count(attempted));
  report.set("failed", count(failed));
  report.set("end_to_end", std::move(e2e));
  report.set("per_layer", std::move(layers));
  report.set("samples", std::move(samples));
  report.set("counts", std::move(counts));
  report.set("environment", std::move(envj));
  std::printf("%s\n", report.dump().c_str());
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "palb_perf: %s\n", e.what());
    return 2;
  }
}
