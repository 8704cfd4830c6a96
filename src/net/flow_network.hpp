// Flow-level network simulation. Transfers (HTTP downloads, request/response
// payloads) are modeled as fluid flows over a topology of directed links;
// link bandwidth is shared max-min fairly among competing flows, with
// optional per-flow rate caps (used by the traffic shaper). This captures
// exactly what the paper's experiments depend on — transfer times under a
// shared 100 Mbps LAN and per-IP outbound shaping — without packet-level cost.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/time.hpp"
#include "snapshot/format.hpp"
#include "util/result.hpp"

namespace soda::net {

struct NodeId {
  std::size_t value = SIZE_MAX;
  [[nodiscard]] bool valid() const noexcept { return value != SIZE_MAX; }
  friend constexpr auto operator<=>(NodeId, NodeId) noexcept = default;
};

struct LinkId {
  std::size_t value = SIZE_MAX;
  [[nodiscard]] bool valid() const noexcept { return value != SIZE_MAX; }
  friend constexpr auto operator<=>(LinkId, LinkId) noexcept = default;
};

struct FlowId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend constexpr auto operator<=>(FlowId, FlowId) noexcept = default;
};

/// Unlimited per-flow rate.
inline constexpr double kUncapped = std::numeric_limits<double>::infinity();

/// Event-driven fluid-flow network on a directed-link topology.
/// Single-threaded; driven by one sim::Engine.
class FlowNetwork {
 public:
  using CompletionCallback = std::function<void(sim::SimTime completed_at)>;

  explicit FlowNetwork(sim::Engine& engine) : engine_(engine) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  /// Adds a named endpoint (machine / switch).
  NodeId add_node(std::string name);

  /// Adds one directed link a->b. Capacity in Mbps, propagation latency.
  LinkId add_link(NodeId from, NodeId to, double capacity_mbps,
                  sim::SimTime latency);

  /// Adds a full-duplex link (two directed links with identical parameters).
  /// Returns {a->b, b->a}.
  std::pair<LinkId, LinkId> add_duplex_link(NodeId a, NodeId b,
                                            double capacity_mbps,
                                            sim::SimTime latency);

  /// Adds a link not attached to the topology graph; it only constrains flows
  /// that explicitly include it in `extra_links` (the traffic shaper's per-IP
  /// bottleneck).
  LinkId add_virtual_link(double capacity_mbps);

  /// Changes a link's capacity and re-shares bandwidth (service resizing /
  /// shaper reconfiguration). Capacity must be > 0.
  void set_link_capacity(LinkId link, double capacity_mbps);

  [[nodiscard]] double link_capacity_mbps(LinkId link) const;
  [[nodiscard]] const std::string& node_name(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Starts a transfer of `bytes` from `src` to `dst`; `on_complete` fires
  /// when the last byte arrives. `rate_cap_mbps` bounds this flow alone;
  /// `extra_links` (e.g. a shaper's virtual link) are appended to the routed
  /// path. Fails when no route exists.
  Result<FlowId> start_flow(NodeId src, NodeId dst, std::int64_t bytes,
                            CompletionCallback on_complete,
                            double rate_cap_mbps = kUncapped,
                            std::span<const LinkId> extra_links = {});

  /// Aborts an in-progress flow (its callback never fires). Returns false if
  /// the flow already completed or was already cancelled.
  bool cancel_flow(FlowId flow);

  /// The flow's currently allocated rate in Mbps; 0 for unknown flows.
  [[nodiscard]] double flow_rate_mbps(FlowId flow) const;

  /// Number of in-progress flows.
  [[nodiscard]] std::size_t active_flows() const noexcept { return order_.size(); }

  /// Total bytes delivered by completed flows since construction.
  [[nodiscard]] std::int64_t bytes_delivered() const noexcept { return bytes_delivered_; }

  /// Checkpoints the full topology (nodes, links — including virtual links
  /// and capacities changed since construction) and counters. The world must
  /// be quiesced: in-flight flows hold completion closures that cannot be
  /// externalized, so save_state requires active_flows() == 0. LinkId and
  /// NodeId values are preserved exactly — the BFS fallback breaks hop-count
  /// ties by link id, so isomorphic-but-renumbered topologies could pick
  /// other paths. The routing forest is not saved: load_state rebuilds it by
  /// replaying the links in their saved order.
  void save_state(snapshot::Writer& writer) const;
  void load_state(snapshot::Reader& reader);

 private:
  // Flows live in reusable slots, stored as parallel arrays. Progressive
  // filling reads only the hot arrays and the per-link member lists; the
  // paths are read when a flow starts, ends or is cancelled, never per round.
  using Slot = std::uint32_t;

  struct Link {
    NodeId from;  // invalid for virtual links
    NodeId to;
    double capacity_bps = 0;  // bytes per second
    sim::SimTime latency;
  };
  /// The live slots crossing one link, in start order, one entry per path
  /// occurrence. The residual subtracts frozen rates in this order, which is
  /// what keeps every rate bit-identical to a pass over flows in start order.
  struct Members {
    std::uint32_t link = 0;
    std::vector<Slot> slots;
  };
  /// One link in a progressive-filling round.
  struct RoundLink {
    std::uint32_t members;  // index into members_
    std::uint32_t demand;   // filling members
    double residual;        // capacity minus frozen members' rates
  };

  /// Shortest-hop route using topology links only; nullopt when
  /// unreachable. The span is valid until the next call. While the topology
  /// is a forest (see add_to_forest) the route climbs both ends to their
  /// common ancestor in O(path depth); otherwise bfs_route serves it. In a
  /// forest at most one simple directed path joins two nodes, and BFS
  /// returns a simple path, so both give the same links.
  std::optional<std::span<const std::uint32_t>> route(NodeId src, NodeId dst);
  /// route() by breadth-first search over the whole topology; src != dst.
  std::optional<std::span<const std::uint32_t>> bfs_route(NodeId src,
                                                          NodeId dst);
  /// Classifies topology link `link` into the forest: a link to or from a
  /// node with no links yet hangs that node off the other end; the reverse
  /// direction of such an edge fills its missing half. Anything else (a
  /// self-loop, a repeated direction, a cycle, two trees joined) clears
  /// forest_ for good.
  void add_to_forest(std::uint32_t link);
  /// The live slot of `flow` in order_, or order_.end().
  std::vector<Slot>::const_iterator find_live(FlowId flow) const;
  Slot allocate_slot();
  void release_slot(Slot slot);
  /// Drops dead slots from `link`'s member list and retires the list when
  /// it empties.
  void prune_link(std::uint32_t link);

  /// Applies progress since last recompute to all flows' remaining bytes.
  void settle_progress();
  /// Max-min fair re-allocation of all flow rates, then reschedules the next
  /// completion event.
  void reallocate_and_schedule();
  /// Fires completions due now, removes finished flows.
  void on_completion_event();

  sim::Engine& engine_;
  std::vector<std::string> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<std::uint32_t>> out_links_;  // per node, topology only
  // Member lists of the links that carry flows, in any order: entries
  // [0, active_count_) are in use, the rest keep their capacity for reuse.
  std::vector<Members> members_;
  std::size_t active_count_ = 0;
  std::vector<std::uint32_t> members_of_;  // per link: index or kNoMembers

  // Per-slot hot state.
  std::vector<double> remaining_;  // bytes; 0 for zero-hop flows
  std::vector<double> rate_;       // bytes per second
  std::vector<double> cap_;        // bytes per second
  std::vector<sim::SimTime> ready_at_;  // pinned when drained
  std::vector<sim::SimTime> latency_;   // summed path latency
  std::vector<std::uint8_t> state_;     // kFilling / kFrozen / kDead
  // Per-slot cold state.
  struct FlowRecord {
    FlowId id;
    std::int64_t total_bytes = 0;
    CompletionCallback on_complete;
    std::vector<std::uint32_t> path;  // link indices, extra links included
  };
  std::vector<FlowRecord> records_;
  std::vector<Slot> free_slots_;
  std::vector<Slot> order_;  // live slots in start order (ascending FlowId)

  // Scratch reused across calls.
  std::vector<std::uint32_t> route_hops_;  // the span route() returns
  std::vector<std::uint32_t> route_down_;  // dst's side of a forest route
  std::vector<RoundLink> round_;
  std::vector<Slot> done_;
  std::vector<std::uint32_t> touched_;
  std::vector<std::uint32_t> bfs_via_;
  std::vector<std::uint32_t> bfs_queue_;

  std::uint64_t next_flow_id_ = 1;
  sim::SimTime last_settle_;
  sim::EventId pending_event_{};
  bool event_scheduled_ = false;
  std::int64_t bytes_delivered_ = 0;

  // Each node's place in the topology forest; read only by route(). Roots
  // and nodes with no links have no parent, and up / down stay unset until
  // a link in that direction arrives.
  struct TreeNode {
    std::uint32_t parent;  // node index, kTreeRoot or kDetached
    std::uint32_t depth;   // 0 at a root
    std::uint32_t up;      // link node -> parent
    std::uint32_t down;    // link parent -> node
  };
  std::vector<TreeNode> tree_;  // per node
  bool forest_ = true;          // every topology link so far fits the forest
};

/// Convenience: bits-per-second from Mbps.
constexpr double mbps_to_bytes_per_sec(double mbps) noexcept {
  return mbps * 1e6 / 8.0;
}
constexpr double bytes_per_sec_to_mbps(double bps) noexcept {
  return bps * 8.0 / 1e6;
}

}  // namespace soda::net
