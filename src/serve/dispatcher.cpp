#include "serve/dispatcher.hpp"

#include <memory>
#include <utility>

#include "core/plan_handle.hpp"
#include "serve/routing_table.hpp"

namespace palb::serve {

Dispatcher::Dispatcher(Topology topology, const PlanHandle& plans)
    : topology_(std::move(topology)), plans_(plans) {
  topology_.validate();
}

auto Dispatcher::compiler() const {
  return [this](const PlanHandle::Snapshot& snap) {
    return RoutingTable::compile(topology_, *snap.plan, snap.version);
  };
}

bool Dispatcher::refresh() const {
  return tables_.refresh(plans_, compiler());
}

bool Dispatcher::try_refresh() const {
  return tables_.try_refresh(plans_, compiler());
}

Route Dispatcher::route(std::size_t klass, std::size_t frontend,
                        std::uint64_t request_id) const {
  const std::shared_ptr<const RoutingTable> table =
      tables_.fresh(plans_, compiler());
  if (!table) return Route{RouteStatus::kNoRoute, 0, 0};
  return table->route(klass, frontend, request_id);
}

}  // namespace palb::serve
