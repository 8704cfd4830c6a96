// Placement planning (paper §3.2's mapping of <n, M> onto n' <= n virtual
// service nodes), extracted from the Master into a policy-driven planner.
// Every policy is a strict total order over the live hosts whose ties
// (equal spare CPU, equal cache affinity) break on HostId — daemon
// registration order — so two equal hosts place identically across
// repeated runs and under the parallel experiment runner.
//
// Fleet-scale layout (DESIGN.md §11): the planner keeps the live hosts in
// an ordered index keyed by the policy's order — HostId for first-fit,
// (spare CPU ascending, HostId) for best-fit, (spare CPU descending,
// HostId) for worst-fit and cache-affinity. Each host's change hook and
// the recovery manager's down/up transitions move one key in O(log hosts);
// no decision rebuilds an order. Every planning path reads the index
// through one lazy walk (for_each_preferred) that stops once its plan is
// complete, so a steady-state admission over 10k hosts visits a handful of
// hosts and makes zero heap allocations (see bench/fig_fleet). Only
// cache-affinity's key depends on the query: with a manifest, its walk
// counts cached chunks along the worst-fit order and stable-counting-sorts
// the hosts on that count.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "core/api.hpp"
#include "core/ids.hpp"
#include "host/resources.hpp"
#include "image/chunk.hpp"
#include "image/image.hpp"
#include "util/result.hpp"

namespace soda::core {

class SodaDaemon;

/// How the Master orders hosts when placing slices.
enum class PlacementPolicy {
  kFirstFit,       // registration order
  kBestFit,        // least spare CPU first (pack tightly)
  kWorstFit,       // most spare CPU first (spread load)
  kCacheAffinity,  // most image chunks already cached first (cheap priming)
};

std::string_view placement_policy_name(PlacementPolicy policy) noexcept;

/// One planned (or live) node placement.
struct Placement {
  SodaDaemon* daemon = nullptr;
  std::string node_name;
  int units = 1;
  std::string component;  // partitioned services only
};

template <typename T>
using ApiResult = Result<T, ApiError>;

/// How many machine instances of `unit` fit into `avail`.
[[nodiscard]] int units_that_fit(const host::ResourceVector& avail,
                                 const host::ResourceVector& unit) noexcept;

/// Context a policy may consult when ordering hosts. All fields optional:
/// a query without a manifest degrades cache-affinity to worst-fit.
struct PlacementQuery {
  const image::ImageManifest* manifest = nullptr;
};

/// The planner: pure planning over the registered daemons (nothing is
/// reserved), shared by creation, resizing, and recovery. It reads the
/// Master's daemon list and down-host bitset by reference and keeps its
/// preference index in step with them through add_host / sync_host /
/// rebuild, so it always plans against the live HUP view.
class PlacementPlanner {
 public:
  PlacementPlanner(const std::vector<SodaDaemon*>& daemons,
                   const HostSet& down_hosts);
  /// Unhooks every indexed host (the hosts outlive the Master).
  ~PlacementPlanner();
  PlacementPlanner(const PlacementPlanner&) = delete;
  PlacementPlanner& operator=(const PlacementPlanner&) = delete;

  /// Applies the Master's tuning (policy, slow-down inflation, node cap);
  /// a policy change re-keys the index.
  void configure(PlacementPolicy policy, double slowdown_factor,
                 int max_nodes_per_service);

  [[nodiscard]] PlacementPolicy policy() const noexcept { return policy_; }

  /// Indexes a daemon just appended to the daemon list (its HostId is its
  /// position there) and hooks its host's reservation changes.
  void add_host(SodaDaemon& daemon);
  /// Re-reads one host's spare CPU and down-host bit into the index.
  void sync_host(HostId id);
  /// Re-keys every host (after the down-host set was restored wholesale).
  void rebuild();

  /// The inflated per-unit reservation for `m` (paper footnote 2: CPU and
  /// bandwidth only; memory and disk footprints are unchanged).
  [[nodiscard]] host::ResourceVector inflated_unit(
      const host::MachineConfig& m) const;

  /// Calls `visit(SodaDaemon&)` on the live hosts (dead hosts excluded) in
  /// the policy's preference order until it returns false. Planning only:
  /// the visitor must not change any reservation. Lazy — the cost grows
  /// with the hosts visited — except for cache-affinity with a manifest,
  /// which ranks every live host first.
  template <typename Visit>
  void for_each_preferred(const PlacementQuery& query, Visit&& visit) const {
    walk(rank(query), visit);
  }

  /// How would <n, M> land on the current HUP? Error when it cannot.
  [[nodiscard]] ApiResult<std::vector<Placement>> plan_allocation(
      const std::string& service_name, const host::ResourceRequirement& req,
      const PlacementQuery& query = {}) const;

  /// Allocation-free variant for the admission hot path: appends the plan
  /// to `out` (cleared first; its capacity is reused) and returns the node
  /// count. With `out` warm, a successful call performs zero heap
  /// allocations.
  [[nodiscard]] ApiResult<int> plan_allocation_into(
      std::string_view service_name, const host::ResourceRequirement& req,
      const PlacementQuery& query, std::vector<Placement>& out) const;

  /// Planning for a partitioned image: one node per component, each sized
  /// component.units x M; a host may carry several components.
  [[nodiscard]] ApiResult<std::vector<Placement>> plan_components(
      const host::MachineConfig& m,
      const std::vector<image::ServiceComponent>& components,
      const PlacementQuery& query = {}) const;

 private:
  /// One index entry: the policy's primary key (0 for first-fit, spare CPU
  /// for best-fit, its negation for worst-fit and cache-affinity), then the
  /// HostId tie-break.
  struct Key {
    double rank = 0;
    std::uint32_t host = 0;
    friend bool operator<(const Key& a, const Key& b) noexcept {
      if (a.rank != b.rank) return a.rank < b.rank;
      return a.host < b.host;
    }
  };
  using Index = std::set<Key>;

  [[nodiscard]] double rank_of(HostId id) const;
  /// Cache-affinity with a manifest: fills by_chunks_ with the live hosts
  /// in (cached chunks descending, spare CPU descending, HostId) order and
  /// returns true. Every other query returns false: the index is the order.
  [[nodiscard]] bool rank(const PlacementQuery& query) const;
  template <typename Visit>
  void walk(bool ranked, Visit& visit) const {
    if (ranked) {
      for (SodaDaemon* daemon : by_chunks_) {
        if (!visit(*daemon)) return;
      }
      return;
    }
    for (const Key& key : index_) {
      if (!visit(*daemons_[key.host])) return;
    }
  }

  const std::vector<SodaDaemon*>& daemons_;
  const HostSet& down_hosts_;
  PlacementPolicy policy_ = PlacementPolicy::kWorstFit;
  double slowdown_factor_ = 1.5;
  int max_nodes_per_service_ = 16;
  Index index_;
  /// HostId -> its index entry, or index_.end() while the host is down.
  std::vector<Index::iterator> where_;
  /// Scratch reused across planning calls (capacity-stable; the planner is
  /// confined to the simulation thread like the rest of the control plane).
  mutable std::vector<std::uint32_t> held_;       // cached chunks, walk order
  mutable std::vector<std::size_t> slots_;        // counting-sort offsets
  mutable std::vector<SodaDaemon*> by_chunks_;    // cache-affinity order
};

}  // namespace soda::core
