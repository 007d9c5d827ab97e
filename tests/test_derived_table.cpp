// DerivedTable (serve/derived_table.hpp), the compile-and-swap primitive
// behind Dispatcher and AdmissionController. The zero-stall skip path is
// pinned deterministically: while a compile blocks holding the compile
// mutex, a concurrent try_refresh() must decline at once, count one
// refresh skip and leave readers on the incumbent table; once the
// compile is released the new version swaps in.

#include "serve/derived_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <future>

#include "cloud/plan.hpp"
#include "core/plan_handle.hpp"
#include "scenario_fixtures.hpp"
#include "util/mutex.hpp"

namespace palb {
namespace {

using serve::DerivedTable;
using testing_fixtures::small_topology;

/// The smallest Table: just the plan version it was compiled from.
struct VersionTable {
  std::uint64_t version = 0;
  std::uint64_t plan_version() const { return version; }
};

VersionTable compile_version(const PlanHandle::Snapshot& snap) {
  return VersionTable{snap.version};
}

TEST(DerivedTable, TryRefreshSkipsWhileAPeerCompiles) {
  const Topology topo = small_topology();
  PlanHandle live;
  DerivedTable<VersionTable> cell;
  live.publish(DispatchPlan::zero(topo));
  ASSERT_TRUE(cell.refresh(live, compile_version));
  live.publish(DispatchPlan::zero(topo));

  std::promise<void> entered;
  std::promise<void> release;
  std::future<void> compiling = entered.get_future();
  const std::shared_future<void> released = release.get_future().share();
  const auto blocked_compile = [&](const PlanHandle::Snapshot& snap) {
    entered.set_value();
    released.wait();
    return compile_version(snap);
  };
  std::future<bool> writer = std::async(std::launch::async, [&] {
    return cell.refresh(live, blocked_compile);
  });
  compiling.wait();

  // The writer holds the compile mutex: the poll declines, and a
  // one-shot stale read serves the incumbent instead of waiting.
  EXPECT_FALSE(cell.try_refresh(live, compile_version));
  EXPECT_EQ(cell.refresh_skips(), 1u);
  EXPECT_EQ(cell.version(), 1u);
  EXPECT_EQ(cell.fresh(live, compile_version)->plan_version(), 1u);
  EXPECT_EQ(cell.refresh_skips(), 2u);
  EXPECT_EQ(cell.rebuilds(), 1u);

  release.set_value();
  EXPECT_TRUE(writer.get());
  EXPECT_EQ(cell.version(), 2u);
  EXPECT_EQ(cell.current()->plan_version(), 2u);
  EXPECT_EQ(cell.rebuilds(), 2u);
  EXPECT_EQ(cell.refresh_skips(), 2u);
}

TEST(DerivedTable, InvalidateRecompilesAtUnchangedPlanVersion) {
  const Topology topo = small_topology();
  PlanHandle live;
  DerivedTable<VersionTable> cell;
  {
    // Invalidating before any publish stays pending until a plan lands.
    MutexLock lock(cell.compile_mutex());
    cell.invalidate();
    EXPECT_FALSE(cell.refresh_locked(live, compile_version));
  }
  live.publish(DispatchPlan::zero(topo));
  EXPECT_TRUE(cell.refresh(live, compile_version));
  EXPECT_FALSE(cell.refresh(live, compile_version));
  {
    MutexLock lock(cell.compile_mutex());
    cell.invalidate();
  }
  EXPECT_TRUE(cell.try_refresh(live, compile_version));
  EXPECT_EQ(cell.version(), 1u);
  EXPECT_EQ(cell.rebuilds(), 2u);
  EXPECT_EQ(cell.refresh_skips(), 0u);
}

}  // namespace
}  // namespace palb
