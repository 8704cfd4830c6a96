#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/daemon.hpp"
#include "util/contract.hpp"

namespace soda::core {

std::string_view placement_policy_name(PlacementPolicy policy) noexcept {
  switch (policy) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kBestFit: return "best-fit";
    case PlacementPolicy::kWorstFit: return "worst-fit";
    case PlacementPolicy::kCacheAffinity: return "cache-affinity";
  }
  return "unknown";
}

int units_that_fit(const host::ResourceVector& avail,
                   const host::ResourceVector& unit) noexcept {
  double k = std::floor(avail.cpu_mhz / unit.cpu_mhz + 1e-9);
  if (unit.memory_mb > 0) {
    k = std::min(k, std::floor(static_cast<double>(avail.memory_mb) /
                               static_cast<double>(unit.memory_mb)));
  }
  if (unit.disk_mb > 0) {
    k = std::min(k, std::floor(static_cast<double>(avail.disk_mb) /
                               static_cast<double>(unit.disk_mb)));
  }
  if (unit.bandwidth_mbps > 0) {
    k = std::min(k, std::floor(avail.bandwidth_mbps / unit.bandwidth_mbps + 1e-9));
  }
  return std::max(0, static_cast<int>(k));
}

PlacementPlanner::PlacementPlanner(const std::vector<SodaDaemon*>& daemons,
                                   const HostSet& down_hosts)
    : daemons_(daemons), down_hosts_(down_hosts) {}

PlacementPlanner::~PlacementPlanner() {
  for (std::size_t i = 0; i < where_.size(); ++i) {
    daemons_[i]->host().set_change_hook(nullptr);
  }
}

void PlacementPlanner::configure(PlacementPolicy policy,
                                 double slowdown_factor,
                                 int max_nodes_per_service) {
  SODA_EXPECTS(slowdown_factor >= 1.0);
  SODA_EXPECTS(max_nodes_per_service >= 1);
  policy_ = policy;
  slowdown_factor_ = slowdown_factor;
  max_nodes_per_service_ = max_nodes_per_service;
  rebuild();
}

double PlacementPlanner::rank_of(HostId id) const {
  // available() is an O(1) cached aggregate; the key is exactly the double
  // the planner compares.
  const double spare = daemons_[id.index()]->available().cpu_mhz;
  switch (policy_) {
    case PlacementPolicy::kFirstFit: return 0.0;
    case PlacementPolicy::kBestFit: return spare;
    case PlacementPolicy::kWorstFit:
    case PlacementPolicy::kCacheAffinity: return -spare;
  }
  return 0.0;
}

void PlacementPlanner::add_host(SodaDaemon& daemon) {
  const HostId id = daemon.host_id();
  SODA_EXPECTS(id.index() == where_.size() &&
               id.index() < daemons_.size() && daemons_[id.index()] == &daemon);
  where_.push_back(index_.end());
  daemon.host().set_change_hook([this, id] { sync_host(id); });
  sync_host(id);
}

void PlacementPlanner::sync_host(HostId id) {
  Index::iterator& where = where_[id.index()];
  // Hosts the failure detector has declared dead receive no placements
  // until their heartbeats resume: they leave the index.
  if (down_hosts_.test(id)) {
    if (where != index_.end()) {
      index_.erase(where);
      where = index_.end();
    }
    return;
  }
  const Key key{rank_of(id), id.value};
  if (where == index_.end()) {
    where = index_.insert(key).first;
  } else if (where->rank != key.rank) {
    // Re-key in place: the extracted node is reused, so a move allocates
    // nothing.
    auto node = index_.extract(where);
    node.value() = key;
    where = index_.insert(std::move(node)).position;
  }
}

void PlacementPlanner::rebuild() {
  index_.clear();
  where_.assign(where_.size(), index_.end());
  for (std::size_t i = 0; i < where_.size(); ++i) {
    sync_host(HostId{static_cast<std::uint32_t>(i)});
  }
}

host::ResourceVector PlacementPlanner::inflated_unit(
    const host::MachineConfig& m) const {
  host::ResourceVector unit = m.to_vector();
  // Only processing and transmission slow down under the guest OS; memory
  // and disk footprints are unchanged (paper §3.5).
  unit.cpu_mhz *= slowdown_factor_;
  unit.bandwidth_mbps *= slowdown_factor_;
  return unit;
}

bool PlacementPlanner::rank(const PlacementQuery& query) const {
  if (policy_ != PlacementPolicy::kCacheAffinity || query.manifest == nullptr) {
    return false;
  }
  // Prefers hosts that already hold the image's chunks in their
  // distribution cache (the Nth creation of a popular image lands where
  // priming is nearly free). The index walks worst-fit order, so a stable
  // counting sort on the chunk count alone yields (chunks descending,
  // spare CPU descending, HostId).
  const auto& chunks = query.manifest->chunks;
  held_.clear();
  slots_.assign(chunks.size() + 1, 0);
  for (const Key& key : index_) {
    const auto& cache = daemons_[key.host]->distributor().cache();
    std::uint32_t held = 0;
    for (const auto& chunk : chunks) {
      if (cache.contains(chunk.id)) ++held;
    }
    held_.push_back(held);
    ++slots_[held];
  }
  std::size_t offset = 0;
  for (std::size_t count = slots_.size(); count-- > 0;) {
    const std::size_t hosts = slots_[count];
    slots_[count] = offset;
    offset += hosts;
  }
  by_chunks_.resize(held_.size());
  std::size_t i = 0;
  for (const Key& key : index_) {
    by_chunks_[slots_[held_[i++]]++] = daemons_[key.host];
  }
  return true;
}

ApiResult<int> PlacementPlanner::plan_allocation_into(
    std::string_view service_name, const host::ResourceRequirement& req,
    const PlacementQuery& query, std::vector<Placement>& out) const {
  out.clear();
  if (req.n < 1) {
    return ApiError{ApiErrorCode::kInvalidRequest, "requirement n must be >= 1"};
  }
  const host::ResourceVector unit = inflated_unit(req.m);
  int remaining = req.n;
  int planned = 0;
  for_each_preferred(query, [&](SodaDaemon& daemon) {
    // One node per host per service: replicas on the same host would share
    // the same failure domain and buy nothing.
    if (!daemon.serves_service(service_name)) {
      const int k =
          std::min(units_that_fit(daemon.available(), unit), remaining);
      if (k >= 1) {
        out.push_back(Placement{&daemon, "", k, ""});
        ++planned;
        remaining -= k;
      }
    }
    return planned < max_nodes_per_service_ && remaining > 0;
  });
  if (remaining > 0) {
    return ApiError{ApiErrorCode::kInsufficientResources,
                    "HUP cannot satisfy " + req.to_string() + " (short by " +
                        std::to_string(remaining) + " instance(s) of M)"};
  }
  return planned;
}

ApiResult<std::vector<Placement>> PlacementPlanner::plan_allocation(
    const std::string& service_name, const host::ResourceRequirement& req,
    const PlacementQuery& query) const {
  std::vector<Placement> plan;
  if (auto planned = plan_allocation_into(service_name, req, query, plan);
      !planned.ok()) {
    return planned.error();
  }
  return plan;
}

ApiResult<std::vector<Placement>> PlacementPlanner::plan_components(
    const host::MachineConfig& m,
    const std::vector<image::ServiceComponent>& components,
    const PlacementQuery& query) const {
  SODA_EXPECTS(!components.empty());
  // available() is constant while planning (nothing is reserved), so one
  // ranking serves every component; hypothetical usage accumulates per
  // chosen host.
  const bool ranked = rank(query);
  std::vector<std::pair<const SodaDaemon*, host::ResourceVector>> planned;
  std::vector<Placement> plan;
  for (const auto& component : components) {
    const host::ResourceVector need = inflated_unit(m).scaled(component.units);
    bool placed = false;
    auto first_fit = [&](SodaDaemon& daemon) {
      auto usage = std::find_if(
          planned.begin(), planned.end(),
          [&](const auto& entry) { return entry.first == &daemon; });
      const host::ResourceVector avail =
          daemon.available() -
          (usage == planned.end() ? host::ResourceVector{} : usage->second);
      if (!avail.fits(need)) return true;
      plan.push_back(Placement{&daemon, "", component.units, component.name});
      if (usage == planned.end()) {
        usage = planned.insert(planned.end(), {&daemon, {}});
      }
      usage->second += need;
      placed = true;
      return false;
    };
    walk(ranked, first_fit);
    if (!placed) {
      return ApiError{ApiErrorCode::kInsufficientResources,
                      "no host fits component '" + component.name + "' (" +
                          need.to_string() + ")"};
    }
  }
  return plan;
}

}  // namespace soda::core
