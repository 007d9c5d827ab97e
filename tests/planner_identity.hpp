#pragma once

// Fixed OptimizedPolicy workloads whose plans and solver counters are
// pinned to recorded constants (tests/test_optimized_policy.cpp for the
// serial sweep, tests/test_parallel_determinism.cpp for the fanned-out
// one). Any change to the enumerated profile sweep must reproduce these
// exactly: same plans byte for byte, same LPs with the same warm bases,
// same pruned/examined split.

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/optimized_policy.hpp"
#include "core/paper_scenarios.hpp"
#include "core/plan_json.hpp"
#include "core/scenario_gen.hpp"

namespace palb::planner_identity {

struct Case {
  std::string name;
  Scenario scenario;
  std::size_t slots;
  OptimizedPolicy::Options options;
};

/// What a run must reproduce: summed PolicyStats counters plus a 64-bit
/// FNV-1a hash of the run's plan/ledger JSON.
struct Fingerprint {
  std::uint64_t profiles_examined = 0;
  std::uint64_t profiles_pruned = 0;
  std::uint64_t lp_iterations = 0;
  std::uint64_t basis_warm_hits = 0;
  std::uint64_t phase1_skips = 0;
  std::uint64_t plan_hash = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  /// gtest's failure printer.
  friend void PrintTo(const Fingerprint& f, std::ostream* os) {
    *os << "{examined " << f.profiles_examined << ", pruned "
        << f.profiles_pruned << ", pivots " << f.lp_iterations
        << ", warm hits " << f.basis_warm_hits << ", phase-1 skips "
        << f.phase1_skips << ", plan hash 0x" << std::hex << f.plan_hash
        << std::dec << "}";
  }
};

inline std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

inline Fingerprint fingerprint(const RunResult& run) {
  Fingerprint f;
  f.profiles_examined = run.stats.profiles_examined;
  f.profiles_pruned = run.stats.profiles_pruned;
  f.lp_iterations = run.stats.lp_iterations;
  f.basis_warm_hits = run.stats.basis_warm_hits;
  f.phase1_skips = run.stats.phase1_skips;
  f.plan_hash = fnv1a64(plan_json::run_to_json(run).dump());
  return f;
}

/// The pinned workloads, all on the exhaustive-enumeration path.
/// `parallel` selects the sweep's thread-pool fan-out.
inline std::vector<Case> cases(bool parallel) {
  OptimizedPolicy::Options base;
  base.parallel = parallel;

  std::vector<Case> out;
  out.push_back({"basic-low",
                 paper::basic_synthetic(paper::ArrivalSet::kLow), 24, base});
  out.push_back({"worldcup-24", paper::worldcup_study(), 24, base});
  out.push_back({"worldcup-168", paper::worldcup_study(), 168, base});
  out.push_back({"google", paper::google_study(), 6, base});

  // Static server power: the coefficient's idle term depends on the
  // column's share overhead.
  Scenario idle = paper::worldcup_study();
  const double idle_kw[] = {0.08, 0.12, 0.05};
  for (std::size_t l = 0; l < idle.topology.datacenters.size(); ++l) {
    idle.topology.datacenters[l].idle_power_kw = idle_kw[l % 3];
  }
  out.push_back({"worldcup-idle", std::move(idle), 24, base});

  OptimizedPolicy::Options tail = base;
  tail.delay_metric = OptimizedPolicy::DelayMetric::kTailPercentile;
  out.push_back({"worldcup-tail", paper::worldcup_study(), 24, tail});

  // Wire propagation tightens per-(k, l) deadlines. At 2.5e-5 s/mile
  // the sweep still prunes; at 4e-5 some bands become unreachable, so
  // whole DC columns (the anchor's included) go infeasible.
  for (const double s_per_mile : {2.5e-5, 4e-5}) {
    Scenario wired = paper::worldcup_study();
    wired.topology.network_latency_s_per_mile = s_per_mile;
    out.push_back({"worldcup-propagation-" + std::to_string(s_per_mile),
                   std::move(wired), 24, base});
  }

  // Generated 2-class, 3-DC worlds with up to 3 TUF levels. Seeds 3 and
  // 23 (the latter with wire propagation) have DC columns that are
  // infeasible while the prune threshold is positive, so cut subtrees
  // mix feasible and infeasible leaves.
  scenario_gen::Options gen;
  gen.max_classes = 2;
  gen.min_classes = 2;
  gen.max_frontends = 3;
  gen.min_datacenters = 3;
  gen.max_datacenters = 3;
  gen.max_tuf_levels = 3;
  gen.slots = 12;
  for (const std::uint64_t seed : {3, 17}) {
    out.push_back({"generated-multilevel-" + std::to_string(seed),
                   scenario_gen::generate(seed, gen), 12, base});
  }
  Scenario generated_wired = scenario_gen::generate(23, gen);
  generated_wired.topology.network_latency_s_per_mile = 2e-5;
  out.push_back({"generated-propagation-23", std::move(generated_wired), 12,
                 base});
  return out;
}

/// Recorded at commit 09f500d (the flat per-index profile sweep, before
/// the per-slot coefficient tables and the depth-first sweep), serial and
/// parallel sweeps alike, at 1 and at 4 controller workers:
/// {examined, pruned, lp_iterations, basis_warm_hits, phase1_skips,
///  FNV-1a of plan_json::run_to_json(run).dump()}.
inline Fingerprint expected(const std::string& name) {
  static const std::map<std::string, Fingerprint> kRecorded = {
      {"basic-low",
       {1536, 10752, 5184, 1512, 1536, 0xbfcbb6931c81be35ull}},
      {"worldcup-24", {195, 12093, 1804, 133, 195, 0xe5cd3b28ed6f6fedull}},
      {"worldcup-168",
       {1365, 84651, 12628, 931, 1365, 0x866b1c8bb5484094ull}},
      {"google", {392, 94, 626, 270, 392, 0x3aba2e24dc28d7aaull}},
      {"worldcup-idle",
       {202, 12086, 1804, 140, 202, 0x29e2f2f3576dc974ull}},
      {"worldcup-tail",
       {3476, 8812, 64960, 349, 3476, 0x83d815bbb897947aull}},
      {"worldcup-propagation-0.000025",
       {299, 11989, 4813, 133, 299, 0xca2793ce88a860d9ull}},
      {"worldcup-propagation-0.000040",
       {12288, 0, 92848, 0, 6120, 0x05ddfb958b94c3c0ull}},
      {"generated-multilevel-3",
       {5448, 696, 4854, 3861, 3912, 0x034060aa223ef0daull}},
      {"generated-multilevel-17",
       {1900, 692, 12376, 967, 1900, 0x097b017311d56f6dull}},
      {"generated-propagation-23",
       {2108, 484, 1965, 170, 284, 0xa5f6eb3a324bf3e8ull}},
  };
  return kRecorded.at(name);
}

/// Number of band profiles one slot's sweep covers.
inline std::uint64_t profile_space(const Topology& topo) {
  std::uint64_t total = 1;
  for (std::size_t l = 0; l < topo.num_datacenters(); ++l) {
    for (const auto& cls : topo.classes) total *= cls.tuf.levels() + 1;
  }
  return total;
}

/// An OptimizedPolicy that records, after every slot it plans,
/// profiles_examined + profiles_pruned - profile space. The anchor and
/// the warm incumbent are solved before the sweep and counted as
/// examined, so every gap is zero when each profile is accounted for
/// exactly once. It has no clone(), so a controller runs it serially.
class AccountingPolicy final : public Policy {
 public:
  explicit AccountingPolicy(const Case& c)
      : inner_(c.options), space_(profile_space(c.scenario.topology)) {}

  const std::string& name() const override { return inner_.name(); }
  DispatchPlan plan_slot(const Topology& topology,
                         const SlotInput& input) override {
    DispatchPlan plan = inner_.plan_slot(topology, input);
    gaps_.push_back(static_cast<std::int64_t>(inner_.profiles_examined() +
                                              inner_.profiles_pruned()) -
                    static_cast<std::int64_t>(space_));
    return plan;
  }
  PolicyStats stats() const override { return inner_.stats(); }

  const std::vector<std::int64_t>& gaps() const { return gaps_; }

 private:
  OptimizedPolicy inner_;
  std::uint64_t space_;
  std::vector<std::int64_t> gaps_;
};

}  // namespace palb::planner_identity
