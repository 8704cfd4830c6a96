#include "net/flow_network.hpp"

#include <algorithm>
#include <cmath>

#include "util/contract.hpp"

namespace soda::net {

namespace {
// Flows with less than this many bytes left are considered drained; sub-byte
// remainders are floating-point residue after rate changes, not payload.
constexpr double kEpsilonBytes = 0.5;

constexpr double kInfinity = std::numeric_limits<double>::infinity();

// Slot states. A flow is kFilling while progressive filling may still raise
// its rate and kFrozen once its rate is fixed for this reallocation; kDead
// marks a finished or cancelled slot until its member entries are pruned.
constexpr std::uint8_t kFilling = 0;
constexpr std::uint8_t kFrozen = 1;
constexpr std::uint8_t kDead = 2;

constexpr std::uint32_t kNoMembers = UINT32_MAX;  // the link carries no flow

// bfs_via_ markers: a node not reached yet, and the search root.
constexpr std::uint32_t kUnseen = UINT32_MAX;
constexpr std::uint32_t kRoot = UINT32_MAX - 1;

// TreeNode::parent markers: a node with no links yet, and a tree's root.
constexpr std::uint32_t kDetached = UINT32_MAX;
constexpr std::uint32_t kTreeRoot = UINT32_MAX - 1;
constexpr std::uint32_t kNoLink = UINT32_MAX;  // TreeNode::up / down unset
}  // namespace

NodeId FlowNetwork::add_node(std::string name) {
  nodes_.push_back(std::move(name));
  out_links_.emplace_back();
  tree_.push_back({kDetached, 0, kNoLink, kNoLink});
  return NodeId{nodes_.size() - 1};
}

LinkId FlowNetwork::add_link(NodeId from, NodeId to, double capacity_mbps,
                             sim::SimTime latency) {
  SODA_EXPECTS(from.value < nodes_.size() && to.value < nodes_.size());
  SODA_EXPECTS(capacity_mbps > 0);
  links_.push_back(Link{from, to, mbps_to_bytes_per_sec(capacity_mbps), latency});
  members_of_.push_back(kNoMembers);
  out_links_[from.value].push_back(static_cast<std::uint32_t>(links_.size() - 1));
  add_to_forest(static_cast<std::uint32_t>(links_.size() - 1));
  return LinkId{links_.size() - 1};
}

void FlowNetwork::add_to_forest(std::uint32_t link) {
  if (!forest_) return;
  const auto from = static_cast<std::uint32_t>(links_[link].from.value);
  const auto to = static_cast<std::uint32_t>(links_[link].to.value);
  if (from == to) {
    forest_ = false;
    return;
  }
  TreeNode& tail = tree_[from];
  TreeNode& head = tree_[to];
  if (head.parent == kDetached) {
    // The link hangs `to` off `from`.
    if (tail.parent == kDetached) tail.parent = kTreeRoot;
    head = {from, tail.depth + 1, kNoLink, link};
  } else if (tail.parent == kDetached) {
    // The link hangs `from` off `to`.
    tail = {to, head.depth + 1, link, kNoLink};
  } else if (tail.parent == to && tail.up == kNoLink) {
    tail.up = link;  // the missing direction of an existing edge
  } else if (head.parent == from && head.down == kNoLink) {
    head.down = link;
  } else {
    forest_ = false;  // a repeated direction, a cycle or two trees joined
  }
}

std::pair<LinkId, LinkId> FlowNetwork::add_duplex_link(NodeId a, NodeId b,
                                                       double capacity_mbps,
                                                       sim::SimTime latency) {
  return {add_link(a, b, capacity_mbps, latency),
          add_link(b, a, capacity_mbps, latency)};
}

LinkId FlowNetwork::add_virtual_link(double capacity_mbps) {
  SODA_EXPECTS(capacity_mbps > 0);
  links_.push_back(Link{NodeId{}, NodeId{}, mbps_to_bytes_per_sec(capacity_mbps),
                        sim::SimTime::zero()});
  members_of_.push_back(kNoMembers);
  return LinkId{links_.size() - 1};
}

void FlowNetwork::set_link_capacity(LinkId link, double capacity_mbps) {
  SODA_EXPECTS(link.value < links_.size());
  SODA_EXPECTS(capacity_mbps > 0);
  settle_progress();
  links_[link.value].capacity_bps = mbps_to_bytes_per_sec(capacity_mbps);
  reallocate_and_schedule();
}

double FlowNetwork::link_capacity_mbps(LinkId link) const {
  SODA_EXPECTS(link.value < links_.size());
  return bytes_per_sec_to_mbps(links_[link.value].capacity_bps);
}

const std::string& FlowNetwork::node_name(NodeId node) const {
  SODA_EXPECTS(node.value < nodes_.size());
  return nodes_[node.value];
}

std::optional<std::span<const std::uint32_t>> FlowNetwork::route(NodeId src,
                                                                NodeId dst) {
  route_hops_.clear();
  if (src == dst) return std::span<const std::uint32_t>(route_hops_);
  if (!forest_) return bfs_route(src, dst);
  // Climb from both ends to the common ancestor: src's side leaves by
  // up-links, dst's side arrives by down-links. The deeper side (src on a
  // tie) steps, so a stepping node is never the other's ancestor and its
  // link lies on the only path; a missing link or a root (different trees)
  // means no path.
  route_down_.clear();
  auto a = static_cast<std::uint32_t>(src.value);
  auto b = static_cast<std::uint32_t>(dst.value);
  while (a != b) {
    if (tree_[a].depth >= tree_[b].depth) {
      if (tree_[a].up == kNoLink) return std::nullopt;
      route_hops_.push_back(tree_[a].up);
      a = tree_[a].parent;
    } else {
      if (tree_[b].down == kNoLink) return std::nullopt;
      route_down_.push_back(tree_[b].down);
      b = tree_[b].parent;
    }
  }
  route_hops_.insert(route_hops_.end(), route_down_.rbegin(), route_down_.rend());
  return std::span<const std::uint32_t>(route_hops_);
}

std::optional<std::span<const std::uint32_t>> FlowNetwork::bfs_route(NodeId src,
                                                                    NodeId dst) {
  // BFS by hop count over topology links; bfs_via_ holds the link that first
  // reached each node.
  bfs_via_.assign(nodes_.size(), kUnseen);
  bfs_via_[src.value] = kRoot;
  bfs_queue_.assign(1, static_cast<std::uint32_t>(src.value));
  bool found = false;
  for (std::size_t head = 0; head < bfs_queue_.size() && !found; ++head) {
    for (std::uint32_t link_idx : out_links_[bfs_queue_[head]]) {
      const std::size_t next = links_[link_idx].to.value;
      if (bfs_via_[next] != kUnseen) continue;
      bfs_via_[next] = link_idx;
      if (next == dst.value) {
        found = true;
        break;
      }
      bfs_queue_.push_back(static_cast<std::uint32_t>(next));
    }
  }
  if (!found) return std::nullopt;
  for (std::size_t at = dst.value; at != src.value;
       at = links_[bfs_via_[at]].from.value) {
    route_hops_.push_back(bfs_via_[at]);
  }
  std::reverse(route_hops_.begin(), route_hops_.end());
  return std::span<const std::uint32_t>(route_hops_);
}

FlowNetwork::Slot FlowNetwork::allocate_slot() {
  if (!free_slots_.empty()) {
    const Slot slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  if (records_.size() == records_.capacity()) {
    // Grow every per-slot array in one step rather than each on its own.
    const std::size_t capacity = std::max<std::size_t>(16, 2 * records_.size());
    remaining_.reserve(capacity);
    rate_.reserve(capacity);
    cap_.reserve(capacity);
    ready_at_.reserve(capacity);
    latency_.reserve(capacity);
    state_.reserve(capacity);
    records_.reserve(capacity);
  }
  // start_flow fills in every field.
  const std::size_t size = records_.size() + 1;
  remaining_.resize(size);
  rate_.resize(size);
  cap_.resize(size);
  ready_at_.resize(size);
  latency_.resize(size);
  state_.resize(size);
  records_.resize(size);
  return static_cast<Slot>(size - 1);
}

void FlowNetwork::release_slot(Slot slot) {
  state_[slot] = kDead;
  records_[slot].on_complete = nullptr;
  free_slots_.push_back(slot);
}

void FlowNetwork::prune_link(std::uint32_t link) {
  const std::uint32_t at = members_of_[link];
  if (at == kNoMembers) return;  // a repeated link already retired
  std::vector<Slot>& slots = members_[at].slots;
  std::erase_if(slots, [&](Slot slot) { return state_[slot] == kDead; });
  if (!slots.empty()) return;
  const std::size_t last = --active_count_;
  if (at != last) {
    std::swap(members_[at], members_[last]);
    members_of_[members_[at].link] = at;
  }
  members_of_[link] = kNoMembers;
}

Result<FlowId> FlowNetwork::start_flow(NodeId src, NodeId dst,
                                       std::int64_t bytes,
                                       CompletionCallback on_complete,
                                       double rate_cap_mbps,
                                       std::span<const LinkId> extra_links) {
  SODA_EXPECTS(src.value < nodes_.size() && dst.value < nodes_.size());
  SODA_EXPECTS(bytes >= 0);
  SODA_EXPECTS(on_complete != nullptr);
  SODA_EXPECTS(rate_cap_mbps > 0);

  const auto hops = route(src, dst);
  if (!hops) {
    return Error{"no route from " + nodes_[src.value] + " to " + nodes_[dst.value]};
  }
  sim::SimTime latency = sim::SimTime::zero();
  for (std::uint32_t link_idx : *hops) latency += links_[link_idx].latency;
  for (LinkId extra : extra_links) SODA_EXPECTS(extra.value < links_.size());

  settle_progress();
  const Slot slot = allocate_slot();
  FlowRecord& record = records_[slot];
  record.id = FlowId{next_flow_id_++};
  record.total_bytes = bytes;
  record.on_complete = std::move(on_complete);
  record.path.assign(hops->begin(), hops->end());
  for (LinkId extra : extra_links) {
    record.path.push_back(static_cast<std::uint32_t>(extra.value));
  }
  for (std::uint32_t link_idx : record.path) {
    std::uint32_t& at = members_of_[link_idx];
    if (at == kNoMembers) {
      at = static_cast<std::uint32_t>(active_count_++);
      if (at == members_.size()) {
        members_.emplace_back();
        members_.back().slots.reserve(8);  // skips the 1, 2, 4 growth steps
      }
      members_[at].link = link_idx;
    }
    members_[at].slots.push_back(slot);
  }
  // A zero-hop flow crosses no link: it is drained from the start and only
  // waits out its (zero) latency.
  remaining_[slot] = record.path.empty() ? 0.0 : static_cast<double>(bytes);
  rate_[slot] = 0;
  cap_[slot] = mbps_to_bytes_per_sec(rate_cap_mbps);  // kUncapped stays infinite
  ready_at_[slot] = sim::SimTime::max();
  latency_[slot] = latency;
  state_[slot] = kFilling;
  order_.push_back(slot);
  const FlowId id = record.id;
  reallocate_and_schedule();
  return id;
}

std::vector<FlowNetwork::Slot>::const_iterator FlowNetwork::find_live(
    FlowId flow) const {
  // order_ is in start order, and ids grow with start order.
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), flow,
      [&](Slot slot, FlowId id) { return records_[slot].id < id; });
  return it != order_.end() && records_[*it].id == flow ? it : order_.end();
}

bool FlowNetwork::cancel_flow(FlowId flow) {
  const auto it = find_live(flow);
  if (it == order_.end()) return false;
  settle_progress();
  const Slot slot = *it;
  order_.erase(it);
  release_slot(slot);
  for (std::uint32_t link_idx : records_[slot].path) prune_link(link_idx);
  reallocate_and_schedule();
  return true;
}

double FlowNetwork::flow_rate_mbps(FlowId flow) const {
  const auto it = find_live(flow);
  return it == order_.end() ? 0.0 : bytes_per_sec_to_mbps(rate_[*it]);
}

void FlowNetwork::settle_progress() {
  const sim::SimTime now = engine_.now();
  const double dt = (now - last_settle_).to_seconds();
  if (dt > 0) {
    for (Slot slot : order_) {
      remaining_[slot] = std::max(0.0, remaining_[slot] - rate_[slot] * dt);
    }
  }
  last_settle_ = now;
}

void FlowNetwork::reallocate_and_schedule() {
  const sim::SimTime now = engine_.now();
  std::size_t filling = 0;  // flows whose rate is not fixed yet
  std::size_t capped = 0;   // ... of which have a finite cap

  // Drained flows (zero-hop flows among them) no longer compete for
  // bandwidth; they only wait out their path latency. ready_at is pinned the
  // first time a flow drains and never moves again.
  for (Slot slot : order_) {
    rate_[slot] = 0;
    if (remaining_[slot] <= kEpsilonBytes) {
      state_[slot] = kFrozen;
      if (ready_at_[slot] == sim::SimTime::max()) {
        ready_at_[slot] = now + latency_[slot];
      }
    } else {
      state_[slot] = kFilling;
      ++filling;
      if (std::isfinite(cap_[slot])) ++capped;
    }
  }

  // --- Max-min fair allocation with per-flow caps (progressive filling). ---
  // Every round recomputes each link's residual from capacity, subtracting
  // frozen members' rates in start order, so the floats do not depend on the
  // order in which earlier rounds froze flows. A link left with no filling
  // member drops out of round_ for the rest of this call.
  round_.clear();
  for (std::size_t i = 0; i < active_count_; ++i) {
    round_.push_back({static_cast<std::uint32_t>(i), 0, 0});
  }
  while (filling > 0) {
    double bottleneck_share = kInfinity;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < round_.size(); ++i) {
      const Members& members = members_[round_[i].members];
      double residual = links_[members.link].capacity_bps;
      std::uint32_t demand = 0;
      for (Slot slot : members.slots) {
        if (state_[slot] == kFrozen) {
          residual -= rate_[slot];
        } else {
          ++demand;
        }
      }
      if (demand == 0) continue;
      round_[kept++] = {round_[i].members, demand, residual};
      // Fair share offered by the tightest link crossed by a filling flow.
      bottleneck_share =
          std::min(bottleneck_share,
                   std::max(0.0, residual) / static_cast<double>(demand));
    }
    round_.resize(kept);
    SODA_ENSURES(std::isfinite(bottleneck_share));  // every filling flow has links

    // Smallest filling cap competes with the link bottleneck.
    double min_cap = kInfinity;
    if (capped > 0) {
      for (Slot slot : order_) {
        if (state_[slot] == kFilling) min_cap = std::min(min_cap, cap_[slot]);
      }
    }

    const std::size_t filling_before = filling;
    if (min_cap <= bottleneck_share) {
      // Cap-limited flows take their cap and stop competing.
      for (Slot slot : order_) {
        if (state_[slot] == kFilling && cap_[slot] <= bottleneck_share) {
          rate_[slot] = cap_[slot];
          state_[slot] = kFrozen;
          --filling;
          --capped;
        }
      }
    } else {
      // Freeze every filling flow crossing a link at the bottleneck share.
      for (const RoundLink& round_link : round_) {
        const double share = std::max(0.0, round_link.residual) /
                             static_cast<double>(round_link.demand);
        if (share > bottleneck_share * (1 + 1e-12)) continue;
        for (Slot slot : members_[round_link.members].slots) {
          if (state_[slot] != kFilling) continue;
          rate_[slot] = bottleneck_share;
          state_[slot] = kFrozen;
          --filling;
          if (std::isfinite(cap_[slot])) --capped;
        }
      }
    }
    SODA_ENSURES(filling < filling_before);  // each round must make progress
  }

  // Project completion times for still-transmitting flows and find the
  // earliest. The projected transfer time is floored at 1 ns: SimTime
  // truncates to integer nanoseconds, and a zero-length step would fire the
  // completion event at the same timestamp without draining any bytes —
  // forever.
  sim::SimTime earliest = sim::SimTime::max();
  for (Slot slot : order_) {
    if (remaining_[slot] > kEpsilonBytes) {
      if (rate_[slot] > 0) {
        const sim::SimTime transfer = std::max(
            sim::SimTime::nanoseconds(1),
            sim::SimTime::seconds(remaining_[slot] / rate_[slot]));
        ready_at_[slot] = now + transfer + latency_[slot];
      } else {
        ready_at_[slot] = sim::SimTime::max();
      }
    }
    earliest = std::min(earliest, ready_at_[slot]);
  }

  // --- Schedule the earliest completion. ---
  if (event_scheduled_) {
    engine_.cancel(pending_event_);
    event_scheduled_ = false;
  }
  if (earliest < sim::SimTime::max()) {
    pending_event_ = engine_.schedule_at(std::max(earliest, now),
                                         [this] { on_completion_event(); });
    event_scheduled_ = true;
  }
}

void FlowNetwork::on_completion_event() {
  event_scheduled_ = false;
  settle_progress();
  const sim::SimTime now = engine_.now();
  // Collect finished flows first: completion callbacks may start new flows.
  // A flow is finished when its bytes have drained AND its pinned latency
  // deadline has passed. Flows that drained exactly now still owe their
  // latency; reallocate pins their ready_at below.
  done_.clear();
  std::size_t kept = 0;
  for (Slot slot : order_) {
    if (remaining_[slot] <= kEpsilonBytes && ready_at_[slot] <= now) {
      done_.push_back(slot);
      state_[slot] = kDead;
    } else {
      order_[kept++] = slot;
    }
  }
  order_.resize(kept);
  // Prune each link the finished flows crossed, once per link.
  touched_.clear();
  for (Slot slot : done_) {
    const std::vector<std::uint32_t>& path = records_[slot].path;
    touched_.insert(touched_.end(), path.begin(), path.end());
  }
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()), touched_.end());
  for (std::uint32_t link_idx : touched_) prune_link(link_idx);

  reallocate_and_schedule();
  // Callbacks fire in start order. Each slot is released before its
  // callback runs, so flows started from a callback may reuse it.
  for (Slot slot : done_) {
    FlowRecord& record = records_[slot];
    bytes_delivered_ += record.total_bytes;
    CompletionCallback on_complete = std::move(record.on_complete);
    release_slot(slot);
    on_complete(now);
  }
}

void FlowNetwork::save_state(snapshot::Writer& writer) const {
  SODA_EXPECTS(order_.empty());  // quiesce before checkpointing
  writer.begin_section("flow_network");
  writer.u64(nodes_.size());
  for (const std::string& name : nodes_) writer.str(name);
  writer.u64(links_.size());
  for (const Link& link : links_) {
    writer.boolean(link.from.valid());
    if (link.from.valid()) {
      writer.u64(link.from.value);
      writer.u64(link.to.value);
    }
    writer.f64(link.capacity_bps);
    writer.time(link.latency);
  }
  writer.u64(next_flow_id_);
  writer.time(last_settle_);
  writer.i64(bytes_delivered_);
  writer.end_section();
}

void FlowNetwork::load_state(snapshot::Reader& reader) {
  SODA_EXPECTS(order_.empty());
  reader.begin_section("flow_network");
  nodes_.clear();
  links_.clear();
  out_links_.clear();
  members_of_.clear();
  tree_.clear();
  forest_ = true;
  const std::uint64_t node_count = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < node_count; ++i) {
    nodes_.push_back(reader.str());
    out_links_.emplace_back();
    tree_.push_back({kDetached, 0, kNoLink, kNoLink});
  }
  const std::uint64_t link_count = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < link_count; ++i) {
    Link link;
    if (reader.boolean()) {
      link.from = NodeId{static_cast<std::size_t>(reader.u64())};
      link.to = NodeId{static_cast<std::size_t>(reader.u64())};
      if (link.from.value >= nodes_.size() || link.to.value >= nodes_.size()) {
        reader.fail("link endpoint out of range");
        return;
      }
      out_links_[link.from.value].push_back(
          static_cast<std::uint32_t>(links_.size()));
    }
    link.capacity_bps = reader.f64();
    link.latency = reader.time();
    links_.push_back(link);
    members_of_.push_back(kNoMembers);
    // Replaying the links in their saved order rebuilds the same forest.
    if (link.from.valid()) {
      add_to_forest(static_cast<std::uint32_t>(links_.size() - 1));
    }
  }
  next_flow_id_ = reader.u64();
  last_settle_ = reader.time();
  bytes_delivered_ = reader.i64();
  event_scheduled_ = false;
  pending_event_ = {};
  reader.end_section();
}

}  // namespace soda::net
