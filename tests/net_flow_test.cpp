// Unit tests for the flow-level network: transfer timing, max-min sharing,
// per-flow caps (traffic shaping), routing, and dynamic capacity changes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>

#include "net/flow_network.hpp"
#include "sim/engine.hpp"
#include "sim/random.hpp"

namespace soda::net {
namespace {

constexpr double kMbps100Bps = 100e6 / 8;  // bytes/sec on a 100 Mbps link

struct Lan {
  sim::Engine engine;
  FlowNetwork network{engine};
  NodeId sw, a, b, c;

  Lan() {
    sw = network.add_node("switch");
    a = network.add_node("a");
    b = network.add_node("b");
    c = network.add_node("c");
    network.add_duplex_link(a, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(b, sw, 100, sim::SimTime::zero());
    network.add_duplex_link(c, sw, 100, sim::SimTime::zero());
  }
};

TEST(FlowNetwork, SingleFlowTakesBytesOverCapacity) {
  Lan lan;
  const std::int64_t bytes = 25'000'000;  // 25 MB over 12.5 MB/s = 2 s
  double completed_at = -1;
  must(lan.network.start_flow(lan.a, lan.b, bytes, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  lan.engine.run();
  EXPECT_NEAR(completed_at, bytes / kMbps100Bps, 1e-6);
}

TEST(FlowNetwork, LatencyAddsToCompletion) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(5));
  double completed_at = -1;
  must(network.start_flow(a, b, 12'500'000, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  engine.run();
  EXPECT_NEAR(completed_at, 1.0 + 0.005, 1e-9);
}

TEST(FlowNetwork, ZeroByteFlowCompletesAfterLatencyOnly) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, b, 100, sim::SimTime::milliseconds(3));
  double completed_at = -1;
  must(network.start_flow(a, b, 0, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  engine.run();
  EXPECT_NEAR(completed_at, 0.003, 1e-9);
}

TEST(FlowNetwork, TwoFlowsShareBottleneckFairly) {
  Lan lan;
  // Both flows converge on the same destination access link (sw -> c).
  const std::int64_t bytes = 12'500'000;  // alone: 1 s; sharing: 1.5 s total
  std::vector<double> completions;
  for (NodeId src : {lan.a, lan.b}) {
    must(lan.network.start_flow(src, lan.c, bytes, [&](sim::SimTime t) {
      completions.push_back(t.to_seconds());
    }));
  }
  lan.engine.run();
  ASSERT_EQ(completions.size(), 2u);
  // Shared at 50 Mbps each; both finish together at 2 s.
  EXPECT_NEAR(completions[0], 2.0, 1e-6);
  EXPECT_NEAR(completions[1], 2.0, 1e-6);
}

TEST(FlowNetwork, ShorterFlowFinishesThenLongerSpeedsUp) {
  Lan lan;
  double short_done = -1, long_done = -1;
  must(lan.network.start_flow(lan.a, lan.c, 6'250'000, [&](sim::SimTime t) {
    short_done = t.to_seconds();
  }));
  must(lan.network.start_flow(lan.b, lan.c, 12'500'000, [&](sim::SimTime t) {
    long_done = t.to_seconds();
  }));
  lan.engine.run();
  // Share 50/50 until the short one drains at t=1 (6.25 MB at 6.25 MB/s);
  // the long one then has 6.25 MB left at full speed: done at 1.5 s.
  EXPECT_NEAR(short_done, 1.0, 1e-6);
  EXPECT_NEAR(long_done, 1.5, 1e-6);
}

TEST(FlowNetwork, RateCapLimitsFlow) {
  Lan lan;
  double completed_at = -1;
  must(lan.network.start_flow(
      lan.a, lan.b, 12'500'000,
      [&](sim::SimTime t) { completed_at = t.to_seconds(); },
      /*rate_cap_mbps=*/10));
  lan.engine.run();
  EXPECT_NEAR(completed_at, 10.0, 1e-6);  // 12.5 MB at 1.25 MB/s
}

TEST(FlowNetwork, CapLeftoverGoesToOtherFlows) {
  Lan lan;
  double capped_done = -1, open_done = -1;
  must(lan.network.start_flow(
      lan.a, lan.c, 2'500'000,
      [&](sim::SimTime t) { capped_done = t.to_seconds(); },
      /*rate_cap_mbps=*/20));  // 2.5 MB at 2.5 MB/s = 1 s
  must(lan.network.start_flow(
      lan.b, lan.c, 10'000'000,
      [&](sim::SimTime t) { open_done = t.to_seconds(); }));
  lan.engine.run();
  EXPECT_NEAR(capped_done, 1.0, 1e-6);
  // Open flow gets 80 Mbps while sharing, 100 after: 10 MB = 1 s at
  // 10 MB/s... while capped runs it gets 10 MB/s? 100-20=80 Mbps = 10 MB/s:
  // at t=1 it moved 10 MB -> done at exactly 1 s too.
  EXPECT_NEAR(open_done, 1.0, 1e-6);
}

TEST(FlowNetwork, VirtualLinkActsAsSharedShaper) {
  Lan lan;
  const LinkId shaper = lan.network.add_virtual_link(10);  // 10 Mbps per-IP cap
  std::vector<double> done;
  for (int i = 0; i < 2; ++i) {
    must(lan.network.start_flow(
        lan.a, lan.b, 1'250'000,
        [&](sim::SimTime t) { done.push_back(t.to_seconds()); },
        kUncapped, {&shaper, 1}));
  }
  lan.engine.run();
  // Both flows cross the same 10 Mbps virtual link: 2.5 MB total at
  // 1.25 MB/s -> both complete at 2 s.
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-6);
  EXPECT_NEAR(done[1], 2.0, 1e-6);
}

TEST(FlowNetwork, SetLinkCapacityMidFlight) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const auto [ab, ba] = network.add_duplex_link(a, b, 100, sim::SimTime::zero());
  (void)ba;
  double completed_at = -1;
  must(network.start_flow(a, b, 25'000'000, [&](sim::SimTime t) {
    completed_at = t.to_seconds();
  }));
  engine.schedule_after(sim::SimTime::seconds(1),
                        [&] { network.set_link_capacity(ab, 50); });
  engine.run();
  // 12.5 MB in the first second, the remaining 12.5 MB at 6.25 MB/s = 2 s.
  EXPECT_NEAR(completed_at, 3.0, 1e-6);
}

TEST(FlowNetwork, CancelPreventsCompletion) {
  Lan lan;
  bool fired = false;
  const FlowId id = must(lan.network.start_flow(
      lan.a, lan.b, 12'500'000, [&](sim::SimTime) { fired = true; }));
  EXPECT_GT(lan.network.flow_rate_mbps(id), 0.0);
  EXPECT_TRUE(lan.network.cancel_flow(id));
  EXPECT_FALSE(lan.network.cancel_flow(id));
  lan.engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(lan.network.active_flows(), 0u);
}

TEST(FlowNetwork, NoRouteIsError) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("island");
  auto result = network.start_flow(a, b, 100, [](sim::SimTime) {});
  EXPECT_FALSE(result.ok());
}

TEST(FlowNetwork, OneWayLinkIsDirectional) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  network.add_link(a, b, 100, sim::SimTime::zero());
  EXPECT_TRUE(network.start_flow(a, b, 10, [](sim::SimTime) {}).ok());
  EXPECT_FALSE(network.start_flow(b, a, 10, [](sim::SimTime) {}).ok());
}

TEST(FlowNetwork, MultiHopRouteUsesBothLinks) {
  Lan lan;
  // a -> sw -> b: bottleneck is still 100 Mbps.
  double done = -1;
  must(lan.network.start_flow(lan.a, lan.b, 12'500'000, [&](sim::SimTime t) {
    done = t.to_seconds();
  }));
  lan.engine.run();
  EXPECT_NEAR(done, 1.0, 1e-6);
}

TEST(FlowNetwork, BytesDeliveredAccumulates) {
  Lan lan;
  must(lan.network.start_flow(lan.a, lan.b, 1000, [](sim::SimTime) {}));
  must(lan.network.start_flow(lan.b, lan.c, 500, [](sim::SimTime) {}));
  lan.engine.run();
  EXPECT_EQ(lan.network.bytes_delivered(), 1500);
}

TEST(FlowNetwork, CompletionCallbackCanStartNewFlow) {
  Lan lan;
  double second_done = -1;
  must(lan.network.start_flow(lan.a, lan.b, 12'500'000, [&](sim::SimTime) {
    must(lan.network.start_flow(lan.b, lan.c, 12'500'000, [&](sim::SimTime t2) {
      second_done = t2.to_seconds();
    }));
  }));
  lan.engine.run();
  EXPECT_NEAR(second_done, 2.0, 1e-6);
}

TEST(FlowNetwork, ManyFlowsAllComplete) {
  Lan lan;
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    must(lan.network.start_flow(lan.a, lan.c, 100'000 + i * 1000,
                                [&](sim::SimTime) { ++completed; }));
  }
  lan.engine.run();
  EXPECT_EQ(completed, 40);
  EXPECT_EQ(lan.network.active_flows(), 0u);
}

TEST(FlowNetwork, FractionalRatesStillTerminate) {
  // Regression: three flows sharing a link get 33.33 Mbps each; residuals
  // smaller than one nanosecond of transfer used to reschedule the
  // completion event at the same timestamp forever. The run must terminate
  // with every flow delivered.
  Lan lan;
  int completed = 0;
  for (int i = 0; i < 3; ++i) {
    must(lan.network.start_flow(lan.a, lan.c, 999'999 + i,
                                [&](sim::SimTime) { ++completed; }));
  }
  const auto fired = lan.engine.run();
  EXPECT_EQ(completed, 3);
  EXPECT_LT(fired, 1000u);  // and without event-storming its way there
}

TEST(FlowNetwork, RateChangeNearCompletionTerminates) {
  // Same pathology via a mid-flight capacity change just before the end.
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const auto a = network.add_node("a");
  const auto b = network.add_node("b");
  const auto [ab, ba] = network.add_duplex_link(a, b, 100, sim::SimTime::zero());
  (void)ba;
  bool done = false;
  must(network.start_flow(a, b, 1'250'000, [&](sim::SimTime) { done = true; }));
  // 1.25 MB at 12.5 MB/s completes at t=100ms; perturb at 99.9999 ms.
  engine.schedule_at(sim::SimTime::nanoseconds(99'999'900),
                     [&] { network.set_link_capacity(ab, 37); });
  engine.run();
  EXPECT_TRUE(done);
}

TEST(FlowNetwork, NodeNamesAndCounts) {
  Lan lan;
  EXPECT_EQ(lan.network.node_count(), 4u);
  EXPECT_EQ(lan.network.node_name(lan.a), "a");
}

TEST(FlowNetwork, LinkCapacityQuery) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId b = network.add_node("b");
  const auto [ab, ba] = network.add_duplex_link(a, b, 37.5, sim::SimTime::zero());
  EXPECT_NEAR(network.link_capacity_mbps(ab), 37.5, 1e-9);
  EXPECT_NEAR(network.link_capacity_mbps(ba), 37.5, 1e-9);
}

TEST(FlowNetwork, NewShorterLinkTakesOverTheRoute) {
  sim::Engine engine;
  FlowNetwork network(engine);
  const NodeId a = network.add_node("a");
  const NodeId m = network.add_node("m");
  const NodeId b = network.add_node("b");
  network.add_duplex_link(a, m, 100, sim::SimTime::milliseconds(10));
  network.add_duplex_link(m, b, 100, sim::SimTime::milliseconds(10));
  double first = -1, second = -1;
  must(network.start_flow(a, b, 0, [&](sim::SimTime t) { first = t.to_seconds(); }));
  engine.run();
  EXPECT_NEAR(first, 0.020, 1e-9);  // two hops of 10 ms
  // A direct link closes a cycle and is one hop: routing must switch to it.
  network.add_link(a, b, 100, sim::SimTime::milliseconds(1));
  const double start = engine.now().to_seconds();
  must(network.start_flow(a, b, 0, [&](sim::SimTime t) { second = t.to_seconds(); }));
  engine.run();
  EXPECT_NEAR(second - start, 0.001, 1e-9);
}

// Bit-for-bit pin of the fluid model: random operation sequences over a
// two-switch topology with a virtual shaper link. Every allocated rate after
// every operation, every completion time and the order callbacks fire in are
// folded into one FNV-1a hash. Any change to the progressive-filling
// arithmetic or to the order of its floating-point operations moves it.
struct FlowFuzz {
  sim::Engine engine;
  FlowNetwork network{engine};
  sim::Rng rng;
  std::vector<NodeId> nodes;
  std::vector<LinkId> links;  // topology links first, then virtual ones
  std::vector<FlowId> started;
  std::vector<FlowId> live;
  std::uint64_t hash = 0xcbf29ce484222325ULL;

  explicit FlowFuzz(std::uint64_t seed) : rng(seed) {
    const NodeId s1 = network.add_node("s1");
    const NodeId s2 = network.add_node("s2");
    nodes = {s1, s2};
    const auto trunk = network.add_duplex_link(s1, s2, 100, sim::SimTime::microseconds(50));
    links = {trunk.first, trunk.second};
    for (int i = 0; i < 6; ++i) {
      const NodeId host = network.add_node("h" + std::to_string(i));
      nodes.push_back(host);
      const auto access = network.add_duplex_link(
          host, i < 3 ? s1 : s2, i % 2 == 0 ? 100 : 10,
          sim::SimTime::microseconds(20 * (i + 1)));
      links.push_back(access.first);
      links.push_back(access.second);
    }
    links.push_back(network.add_virtual_link(5));
    links.push_back(network.add_virtual_link(40));
  }

  void fold(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  void fold_double(double value) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    fold(bits);
  }
  void fold_rates() {
    for (FlowId id : started) fold_double(network.flow_rate_mbps(id));
    fold(network.active_flows());
  }

  void start_random() {
    const NodeId src = nodes[rng.uniform_int(0, nodes.size() - 1)];
    const NodeId dst = rng.bernoulli(0.1) ? src : nodes[rng.uniform_int(0, nodes.size() - 1)];
    const std::int64_t bytes = rng.bernoulli(0.1) ? 0 : rng.uniform_int(1, 400'000);
    const double cap = rng.bernoulli(0.25) ? rng.uniform(0.5, 60) : kUncapped;
    std::vector<LinkId> extra;
    switch (rng.uniform_int(0, 3)) {
      case 0: break;
      case 1: extra = {links[links.size() - 2]}; break;
      case 2: extra = {links.back(), links[links.size() - 2]}; break;
      default:  // a topology link, possibly already on the routed path
        extra = {links[rng.uniform_int(0, links.size() - 3)], links.back()};
    }
    auto flow = network.start_flow(
        src, dst, bytes,
        [this, id = started.size() + 1](sim::SimTime at) { on_done(id, at); },
        cap, extra);
    ASSERT_TRUE(flow.ok());
    started.push_back(flow.value());
    live.push_back(flow.value());
  }

  void on_done(std::uint64_t index, sim::SimTime at) {
    fold(index);
    fold(static_cast<std::uint64_t>(at.ns()));
    std::erase(live, started[index - 1]);
    if (!live.empty() && rng.bernoulli(0.2)) {
      cancel(live[rng.uniform_int(0, live.size() - 1)]);
    }
    if (started.size() < 200 && rng.bernoulli(0.3)) start_random();
  }

  void cancel(FlowId id) {
    const bool cancelled = network.cancel_flow(id);
    fold(cancelled ? 1 : 2);
    if (cancelled) std::erase(live, id);
  }

  void step() {
    switch (rng.uniform_int(0, 9)) {
      case 0: case 1: case 2: case 3:
        start_random();
        break;
      case 4:
        if (!started.empty()) cancel(started[rng.uniform_int(0, started.size() - 1)]);
        break;
      case 5:
        network.set_link_capacity(links[rng.uniform_int(0, links.size() - 1)],
                                  rng.uniform(1, 120));
        break;
      default:
        engine.run_until(engine.now() +
                         sim::SimTime::microseconds(rng.uniform_int(0, 40'000)));
    }
    fold(static_cast<std::uint64_t>(engine.now().ns()));
    fold_rates();
  }
};

TEST(FlowNetwork, RandomOperationSequencesArePinnedBitForBit) {
  std::uint64_t combined = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    FlowFuzz fuzz(0xF10F + seed);
    for (int op = 0; op < 60; ++op) fuzz.step();
    fuzz.engine.run();
    fuzz.fold_rates();
    fuzz.fold(static_cast<std::uint64_t>(fuzz.network.bytes_delivered()));
    EXPECT_EQ(fuzz.network.active_flows(), 0u);
    combined = combined * 31 + fuzz.hash;
  }
  EXPECT_EQ(combined, 0x946e161f3d9eb8c8ULL) << std::hex << combined;
}

// Route property test: seeded random topologies grown link by link, checked
// after every operation against a reference BFS over all ordered node pairs.
// Link i has latency 2^i ns, so a zero-byte flow completes after exactly the
// sum of its route's link bits: the completion time is the route's link set.
// Trees grow by pendant attachments (duplex in either order, or one way, with
// the missing direction sometimes added later); rarer operations add a
// duplicate link, a shortcut (possibly a self-loop, a cycle or a merge of two
// trees), a 3-switch mesh, or round-trip the network through a snapshot into
// a fresh one.
class RouteWorld {
 public:
  explicit RouteWorld(std::uint64_t seed) : rng_(seed) { add_node(); }

  [[nodiscard]] bool full() const { return links_.size() + 8 > kMaxLinks; }

  void step() {
    const std::int64_t kind = rng_.uniform_int(0, 99);
    if (kind < 30) {
      const std::size_t parent = pick();
      const std::size_t child = add_node();
      if (rng_.bernoulli(0.5)) {
        add_link(parent, child);
        add_link(child, parent);
      } else {
        add_link(child, parent);
        add_link(parent, child);
      }
    } else if (kind < 42) {
      const std::size_t parent = pick();
      const std::size_t child = add_node();
      if (rng_.bernoulli(0.5)) {
        add_link(parent, child);
      } else {
        add_link(child, parent);
      }
    } else if (kind < 54) {
      std::vector<std::size_t> one_way;
      for (std::size_t id = 0; id < links_.size(); ++id) {
        if (!has_link(links_[id].to, links_[id].from)) one_way.push_back(id);
      }
      if (!one_way.empty()) {
        const Link link = links_[one_way[pick_below(one_way.size())]];
        add_link(link.to, link.from);
      }
    } else if (kind < 64) {
      add_node();
    } else if (kind < 76) {
      round_trip();
    } else if (kind < 78) {
      const Link link = links_.empty() ? Link{pick(), pick()}
                                       : links_[pick_below(links_.size())];
      add_link(link.from, link.to);
    } else if (kind < 81) {
      add_link(pick(), pick());
    } else if (kind < 82) {
      const std::size_t anchor = pick();
      const std::size_t s1 = add_node();
      const std::size_t s2 = add_node();
      const std::size_t s3 = add_node();
      for (const auto& [a, b] : {std::pair{anchor, s1}, std::pair{s1, s2},
                                 std::pair{s2, s3}, std::pair{s3, s1}}) {
        add_link(a, b);
        add_link(b, a);
      }
    }
  }

  /// Every ordered pair routes exactly like the reference BFS.
  void check_all_pairs(const std::string& where) {
    for (std::size_t src = 0; src < nodes_; ++src) {
      for (std::size_t dst = 0; dst < nodes_; ++dst) {
        ASSERT_EQ(routed(src, dst), reference(src, dst))
            << where << ": route " << src << " -> " << dst;
      }
    }
  }

 private:
  static constexpr std::size_t kMaxLinks = 40;  // keeps 2^i ns sums far from overflow

  struct Link {
    std::size_t from, to;
  };

  std::size_t add_node() {
    network_->add_node("n" + std::to_string(nodes_));
    return nodes_++;
  }
  std::size_t pick_below(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  std::size_t pick() { return pick_below(nodes_); }
  [[nodiscard]] bool has_link(std::size_t from, std::size_t to) const {
    return std::any_of(links_.begin(), links_.end(), [&](const Link& link) {
      return link.from == from && link.to == to;
    });
  }
  void add_link(std::size_t from, std::size_t to) {
    const LinkId id = network_->add_link(
        NodeId{from}, NodeId{to}, 100,
        sim::SimTime::nanoseconds(std::int64_t{1} << links_.size()));
    EXPECT_EQ(id.value, links_.size());
    links_.push_back({from, to});
  }

  /// The link bits of a first-found shortest-hop path, scanning each node's
  /// out-links in id order; nullopt when dst is unreachable.
  [[nodiscard]] std::optional<std::uint64_t> reference(std::size_t src,
                                                       std::size_t dst) const {
    constexpr std::size_t kUnseen = SIZE_MAX;
    std::vector<std::size_t> via(nodes_, kUnseen);
    std::vector<std::size_t> queue{src};
    via[src] = links_.size();
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (std::size_t id = 0; id < links_.size(); ++id) {
        if (links_[id].from != queue[head] || via[links_[id].to] != kUnseen) continue;
        via[links_[id].to] = id;
        queue.push_back(links_[id].to);
      }
    }
    if (via[dst] == kUnseen) return std::nullopt;
    std::uint64_t bits = 0;
    for (std::size_t at = dst; at != src; at = links_[via[at]].from) {
      bits |= std::uint64_t{1} << via[at];
    }
    return bits;
  }

  /// The link bits of the network's route, read off a zero-byte flow.
  std::optional<std::uint64_t> routed(std::size_t src, std::size_t dst) {
    const sim::SimTime start = engine_.now();
    std::optional<std::uint64_t> bits;
    auto flow = network_->start_flow(NodeId{src}, NodeId{dst}, 0, [&](sim::SimTime at) {
      bits = static_cast<std::uint64_t>((at - start).ns());
    });
    if (!flow.ok()) return std::nullopt;
    engine_.run();
    EXPECT_TRUE(bits.has_value());
    return bits;
  }

  void round_trip() {
    snapshot::Writer writer;
    network_->save_state(writer);
    const std::string bytes = writer.finish();
    snapshot::Reader reader(bytes);
    network_ = std::make_unique<FlowNetwork>(engine_);
    network_->load_state(reader);
    ASSERT_TRUE(reader.ok()) << reader.error();
  }

  sim::Engine engine_;
  std::unique_ptr<FlowNetwork> network_ = std::make_unique<FlowNetwork>(engine_);
  sim::Rng rng_;
  std::size_t nodes_ = 0;
  std::vector<Link> links_;  // by link id
};

TEST(FlowNetwork, RoutesMatchAReferenceBfsOverRandomTopologies) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    RouteWorld world(0x5017E + seed);
    world.check_all_pairs("seed " + std::to_string(seed) + " start");
    for (int op = 0; !world.full(); ++op) {
      world.step();
      world.check_all_pairs("seed " + std::to_string(seed) + " op " +
                            std::to_string(op));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace soda::net
