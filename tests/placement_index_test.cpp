// Equivalence test for the planner's incrementally maintained preference
// index. Seeded random sequences of host reservations, crashes, detection,
// recovery, snapshot round trips, late hosts, creations and resizes drive
// four HUPs in lockstep, one per placement policy. After every operation
// each HUP's index walk must equal a full sort of the live hosts under the
// comparator the planner used before it kept an index (defined here, in the
// test only), and plan_allocation, plan_components and resize growth must
// plan exactly what that sorted order plans.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/hup.hpp"
#include "image/chunk.hpp"
#include "image/image.hpp"
#include "util/log.hpp"

namespace soda::core {
namespace {

constexpr PlacementPolicy kPolicies[] = {
    PlacementPolicy::kFirstFit, PlacementPolicy::kBestFit,
    PlacementPolicy::kWorstFit, PlacementPolicy::kCacheAffinity};
constexpr int kMaxHosts = 64;
constexpr std::int64_t kChunkBytes = 256 * 1024;

// ---------------------------------------------------------------------------
// The reference: every live host, keys computed once, one full sort.

struct Candidate {
  SodaDaemon* daemon = nullptr;
  std::uint32_t index = 0;  // position among live hosts
  double spare_cpu = 0.0;
  std::uint32_t cached_chunks = 0;
};

bool ordered_before(PlacementPolicy policy, const Candidate& a,
                    const Candidate& b) {
  switch (policy) {
    case PlacementPolicy::kFirstFit:
      return a.index < b.index;
    case PlacementPolicy::kBestFit:
      if (a.spare_cpu != b.spare_cpu) return a.spare_cpu < b.spare_cpu;
      return a.index < b.index;
    case PlacementPolicy::kWorstFit:
      if (a.spare_cpu != b.spare_cpu) return a.spare_cpu > b.spare_cpu;
      return a.index < b.index;
    case PlacementPolicy::kCacheAffinity:
      if (a.cached_chunks != b.cached_chunks) {
        return a.cached_chunks > b.cached_chunks;
      }
      if (a.spare_cpu != b.spare_cpu) return a.spare_cpu > b.spare_cpu;
      return a.index < b.index;
  }
  return false;
}

std::vector<SodaDaemon*> reference_order(const SodaMaster& master,
                                         const image::ImageManifest* manifest) {
  const PlacementPolicy policy = master.config().placement;
  std::vector<Candidate> candidates;
  for (SodaDaemon* daemon : master.daemons()) {
    if (master.down_hosts().test(daemon->host_id())) continue;
    Candidate candidate;
    candidate.daemon = daemon;
    candidate.index = static_cast<std::uint32_t>(candidates.size());
    candidate.spare_cpu = daemon->available().cpu_mhz;
    if (policy == PlacementPolicy::kCacheAffinity && manifest != nullptr) {
      for (const auto& chunk : manifest->chunks) {
        if (daemon->distributor().cache().contains(chunk.id)) {
          ++candidate.cached_chunks;
        }
      }
    }
    candidates.push_back(candidate);
  }
  std::sort(candidates.begin(), candidates.end(),
            [policy](const Candidate& a, const Candidate& b) {
              return ordered_before(policy, a, b);
            });
  std::vector<SodaDaemon*> order;
  for (const Candidate& candidate : candidates) {
    order.push_back(candidate.daemon);
  }
  return order;
}

std::vector<SodaDaemon*> index_order(const SodaMaster& master,
                                     const PlacementQuery& query) {
  std::vector<SodaDaemon*> order;
  master.planner().for_each_preferred(query, [&](SodaDaemon& daemon) {
    order.push_back(&daemon);
    return true;
  });
  return order;
}

/// A plan reduced to what placement decides: host, units, component.
struct Planned {
  const SodaDaemon* daemon = nullptr;
  int units = 0;
  std::string component;
  friend bool operator==(const Planned&, const Planned&) = default;
};

using Plan = std::optional<std::vector<Planned>>;  // nullopt: cannot place

Plan reduce(const ApiResult<std::vector<Placement>>& result) {
  if (!result.ok()) return std::nullopt;
  std::vector<Planned> plan;
  for (const Placement& p : result.value()) {
    plan.push_back({p.daemon, p.units, p.component});
  }
  return plan;
}

Plan reference_allocation(const SodaMaster& master,
                          const std::vector<SodaDaemon*>& order,
                          const std::string& service,
                          const host::ResourceRequirement& req) {
  const host::ResourceVector unit = master.inflated_unit(req.m);
  std::vector<Planned> plan;
  int remaining = req.n;
  for (SodaDaemon* daemon : order) {
    if (static_cast<int>(plan.size()) >= master.config().max_nodes_per_service ||
        remaining == 0) {
      break;
    }
    if (daemon->serves_service(service)) continue;
    const int k = std::min(units_that_fit(daemon->available(), unit), remaining);
    if (k >= 1) {
      plan.push_back({daemon, k, ""});
      remaining -= k;
    }
  }
  if (remaining > 0) return std::nullopt;
  return plan;
}

Plan reference_components(const SodaMaster& master,
                          const std::vector<SodaDaemon*>& order,
                          const host::MachineConfig& m,
                          const std::vector<image::ServiceComponent>& parts) {
  std::vector<host::ResourceVector> planned(order.size());
  std::vector<Planned> plan;
  for (const auto& component : parts) {
    const host::ResourceVector need =
        master.inflated_unit(m).scaled(component.units);
    bool placed = false;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if ((order[i]->available() - planned[i]).fits(need)) {
        plan.push_back({order[i], component.units, component.name});
        planned[i] += need;
        placed = true;
        break;
      }
    }
    if (!placed) return std::nullopt;
  }
  return plan;
}

/// What resize growth to `n_new` should leave in the record's placements:
/// in-place extension first, then new nodes in preference order. nullopt
/// when the HUP cannot fit the growth.
Plan reference_growth(const SodaMaster& master, const ServiceRecord& record,
                      int n_new) {
  const host::ResourceVector unit = master.inflated_unit(record.requirement.m);
  int current = 0;
  for (const Placement& p : record.placements) current += p.units;
  int to_add = n_new - current;
  std::vector<Planned> plan;
  for (const Placement& p : record.placements) {
    const int extra =
        std::min(units_that_fit(p.daemon->available(), unit), to_add);
    plan.push_back({p.daemon, p.units + std::max(extra, 0), ""});
    if (extra >= 1) to_add -= extra;
  }
  for (SodaDaemon* daemon : reference_order(master, nullptr)) {
    if (to_add == 0) break;
    const bool used = std::any_of(
        record.placements.begin(), record.placements.end(),
        [&](const Placement& p) { return p.daemon == daemon; });
    if (used) continue;
    const int k = std::min(units_that_fit(daemon->available(), unit), to_add);
    if (k >= 1) {
      plan.push_back({daemon, k, ""});
      to_add -= k;
    }
  }
  if (to_add > 0) return std::nullopt;
  return plan;
}

// ---------------------------------------------------------------------------
// One HUP per policy, driven in lockstep.

host::MachineConfig service_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 300;
  m.memory_mb = 64;
  m.disk_mb = 256;
  m.bandwidth_mbps = 5;
  return m;
}

MasterConfig world_config(PlacementPolicy policy) {
  MasterConfig config;
  config.placement = policy;
  config.max_nodes_per_service = 4;
  config.distribution.enabled = true;
  config.distribution.chunk_bytes = kChunkBytes;
  return config;
}

struct SliceRef {
  std::string host;
  host::SliceId id;
};

struct World {
  MasterConfig config;
  std::unique_ptr<Hup> hup;
  image::ImageLocation location;
  image::ImageManifest manifest;
  std::vector<SliceRef> slices;
  std::vector<std::string> services;

  explicit World(PlacementPolicy policy)
      : config(world_config(policy)), hup(std::make_unique<Hup>(config)) {
    auto& repo = hup->add_repository("asp-repo");
    hup->agent().register_asp("asp", "key");
    location = must(repo.publish(image::web_content_image(1024 * 1024)));
    manifest = image::build_manifest(*must(repo.lookup(location.path)),
                                     kChunkBytes);
  }

  [[nodiscard]] SodaMaster& master() const { return hup->master(); }
  [[nodiscard]] SodaDaemon& daemon(std::size_t i) const {
    return *master().daemons()[i % master().daemons().size()];
  }
  [[nodiscard]] host::HupHost& host_of(const SliceRef& ref) const {
    return *hup->find_host(ref.host);
  }
};

host::HostSpec host_spec(int i, std::uint64_t draw) {
  host::HostSpec spec = host::HostSpec::tacoma();
  spec.name = "h" + std::to_string(i);
  constexpr double kGhz[] = {1.8, 2.0, 2.6};
  constexpr std::int64_t kRam[] = {768, 1024, 2048};
  spec.cpu_ghz = kGhz[draw % 3];
  spec.ram_mb = kRam[(draw / 3) % 3];
  return spec;
}

void add_host(World& world, int i, std::uint64_t draw) {
  world.hup->add_host(host_spec(i, draw),
                      net::Ipv4Address(10, static_cast<std::uint8_t>(i / 8),
                                       static_cast<std::uint8_t>(i % 8 * 32),
                                       0),
                      16);
}

/// splitmix64: a self-contained, portable draw sequence.
struct Draws {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

host::ResourceVector load_vector(std::uint64_t draw) {
  host::ResourceVector r;
  r.cpu_mhz = 150.0 * static_cast<double>(draw % 5);
  r.memory_mb = 32 * static_cast<std::int64_t>((draw / 5) % 3);
  r.disk_mb = 128 * static_cast<std::int64_t>((draw / 15) % 2);
  r.bandwidth_mbps = static_cast<double>((draw / 30) % 3);
  return r;
}

/// Every check against the reference, for one world.
void check_world(const World& world, const std::string& where) {
  const SodaMaster& master = world.master();
  SCOPED_TRACE(where + " policy=" +
               std::string(placement_policy_name(master.config().placement)));
  const std::vector<SodaDaemon*> plain = reference_order(master, nullptr);
  ASSERT_EQ(index_order(master, {}), plain);
  const std::vector<SodaDaemon*> affine =
      reference_order(master, &world.manifest);
  ASSERT_EQ(index_order(master, PlacementQuery{&world.manifest}), affine);

  const PlacementPlanner& planner = master.planner();
  std::vector<std::string> probes = {"probe"};
  if (!world.services.empty()) probes.push_back(world.services.front());
  for (const std::string& probe : probes) {
    for (const int n : {1, 3, 7}) {
      const host::ResourceRequirement req{n, service_unit()};
      EXPECT_EQ(reduce(planner.plan_allocation(probe, req)),
                reference_allocation(master, plain, probe, req))
          << probe << " n=" << n;
      EXPECT_EQ(
          reduce(planner.plan_allocation(probe, req,
                                         PlacementQuery{&world.manifest})),
          reference_allocation(master, affine, probe, req))
          << probe << " n=" << n << " with manifest";
    }
  }

  std::vector<image::ServiceComponent> parts(3);
  parts[0].name = "frontend";
  parts[0].units = 2;
  parts[1].name = "search";
  parts[1].units = 1;
  parts[2].name = "db";
  parts[2].units = 3;
  EXPECT_EQ(reduce(planner.plan_components(service_unit(), parts)),
            reference_components(master, plain, service_unit(), parts));
  EXPECT_EQ(reduce(planner.plan_components(service_unit(), parts,
                                           PlacementQuery{&world.manifest})),
            reference_components(master, affine, service_unit(), parts));
}

/// True when a host carrying `record` crashed (and maybe rebooted) without
/// the detector noticing: the placement outlives its node, and the master
/// refuses to resize the service.
bool outlives_its_node(const ServiceRecord& record) {
  return std::any_of(record.placements.begin(), record.placements.end(),
                     [](const Placement& p) {
                       const SodaDaemon& daemon = *p.daemon;
                       return daemon.find_node(p.node_name) == nullptr;
                     });
}

void run_sequence(std::uint64_t seed) {
  Draws draws{seed};
  std::vector<std::unique_ptr<World>> worlds;
  for (const PlacementPolicy policy : kPolicies) {
    worlds.push_back(std::make_unique<World>(policy));
  }
  int hosts = 1 + static_cast<int>(draws.below(48));
  for (int i = 0; i < hosts; ++i) {
    const std::uint64_t draw = draws.next();
    for (auto& world : worlds) add_host(*world, i, draw);
  }
  for (auto& world : worlds) check_world(*world, "setup");

  int services = 0;
  const int ops = 24 + static_cast<int>(draws.below(24));
  for (int op = 0; op < ops; ++op) {
    const std::uint64_t kind = draws.below(100);
    const std::uint64_t a = draws.next();
    const std::uint64_t b = draws.next();
    std::string label;
    if (kind < 20) {
      label = "reserve";
      for (auto& world : worlds) {
        SodaDaemon& daemon = world->daemon(a);
        auto slice = daemon.host().reserve("load", load_vector(b));
        if (slice.ok()) {
          world->slices.push_back({daemon.host_name(), slice.value()});
        }
      }
    } else if (kind < 30) {
      label = "release";
      for (auto& world : worlds) {
        if (world->slices.empty()) continue;
        const std::size_t k = a % world->slices.size();
        must(world->host_of(world->slices[k]).release(world->slices[k].id));
        world->slices.erase(world->slices.begin() +
                            static_cast<std::ptrdiff_t>(k));
      }
    } else if (kind < 40) {
      label = "resize-slice";
      for (auto& world : worlds) {
        if (world->slices.empty()) continue;
        const SliceRef& ref = world->slices[a % world->slices.size()];
        (void)world->host_of(ref).resize(ref.id, load_vector(b));
      }
    } else if (kind < 46) {
      label = "crash";
      for (auto& world : worlds) {
        world->hup->crash_host(world->daemon(a).host_name());
      }
    } else if (kind < 54) {
      label = "detect";
      for (auto& world : worlds) {
        world->master().poll_liveness_once();
        world->hup->engine().run();
      }
    } else if (kind < 60) {
      label = "recover";
      for (auto& world : worlds) {
        world->hup->recover_host(world->daemon(a).host_name());
      }
    } else if (kind < 64) {
      label = "snapshot";
      for (auto& world : worlds) {
        const std::string bytes = must(world->hup->save_snapshot());
        auto fresh = std::make_unique<Hup>(world->config);
        must(fresh->load_snapshot(bytes));
        world->hup = std::move(fresh);
      }
    } else if (kind < 70) {
      label = "add-host";
      if (hosts < kMaxHosts) {
        for (auto& world : worlds) add_host(*world, hosts, a);
        ++hosts;
      }
    } else if (kind < 85) {
      label = "create";
      const std::string name = "svc" + std::to_string(services++);
      const host::ResourceRequirement req{1 + static_cast<int>(b % 3),
                                          service_unit()};
      for (auto& world : worlds) {
        SodaMaster& master = world->master();
        const Plan expected = reference_allocation(
            master, reference_order(master, &world->manifest), name, req);
        ServiceCreationRequest request;
        request.credentials = {"asp", "key"};
        request.service_name = name;
        request.image_location = world->location;
        request.requirement = req;
        bool ok = false;
        master.create_service(
            request, [&](ApiResult<ServiceCreationReply> reply, sim::SimTime) {
              ok = reply.ok();
            });
        world->hup->engine().run();
        if (!expected) {
          EXPECT_FALSE(ok) << name;
        }
        if (!ok) continue;
        world->services.push_back(name);
        std::vector<Planned> placed;
        for (const Placement& p : master.find_service(name)->placements) {
          placed.push_back({p.daemon, p.units, p.component});
        }
        EXPECT_EQ(Plan{placed}, expected) << name;
      }
    } else {
      label = "resize-service";
      for (auto& world : worlds) {
        if (world->services.empty()) continue;
        SodaMaster& master = world->master();
        const std::string& name =
            world->services[a % world->services.size()];
        const ServiceRecord* record = master.find_service(name);
        if (record == nullptr ||
            record->lifecycle.state() != ServiceState::kRunning) {
          continue;
        }
        const bool orphaned = outlives_its_node(*record);
        const int n_new = 1 + static_cast<int>(b % 5);
        int current = 0;
        for (const Placement& p : record->placements) current += p.units;
        const Plan expected = n_new > current
                                  ? reference_growth(master, *record, n_new)
                                  : std::nullopt;
        std::optional<ApiErrorCode> error;
        master.resize_service(
            name, n_new,
            [&](ApiResult<ServiceResizingReply> reply, sim::SimTime) {
              if (!reply.ok()) error = reply.error().code;
            });
        world->hup->engine().run();
        if (orphaned) {
          // Refused before anything moves; the service keeps running.
          EXPECT_EQ(error, ApiErrorCode::kInvalidRequest) << name;
          EXPECT_EQ(record->lifecycle.state(), ServiceState::kRunning) << name;
          continue;
        }
        if (n_new <= current) continue;
        if (!expected) {
          EXPECT_EQ(error, ApiErrorCode::kInsufficientResources) << name;
          continue;
        }
        if (error) {
          // Growth onto a crashed, undetected host fails in priming.
          EXPECT_EQ(error, ApiErrorCode::kPrimingFailed) << name;
          continue;
        }
        std::vector<Planned> placed;
        for (const Placement& p : record->placements) {
          placed.push_back({p.daemon, p.units, p.component});
        }
        EXPECT_EQ(Plan{placed}, expected) << name << " n_new=" << n_new;
      }
    }
    for (auto& world : worlds) {
      check_world(*world, "seed " + std::to_string(seed) + " op " +
                              std::to_string(op) + " " + label);
    }
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(PlacementIndex, WalkAndPlansMatchAFullSortOverRandomSequences) {
  util::global_logger().set_level(util::LogLevel::kOff);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_sequence(seed);
    if (::testing::Test::HasFailure()) {
      FAIL() << "first divergence in sequence " << seed;
    }
  }
}

TEST(PlacementIndex, DownHostsLeaveAndRejoinTheWalk) {
  util::global_logger().set_level(util::LogLevel::kOff);
  World world(PlacementPolicy::kWorstFit);
  for (int i = 0; i < 3; ++i) add_host(world, i, 0);
  world.hup->crash_host("h1");
  // Crashed but undetected: still a placement candidate.
  EXPECT_EQ(index_order(world.master(), {}).size(), 3u);
  world.master().poll_liveness_once();
  EXPECT_EQ(index_order(world.master(), {}),
            (std::vector<SodaDaemon*>{&world.daemon(0), &world.daemon(2)}));
  world.hup->recover_host("h1");
  world.master().poll_liveness_once();
  EXPECT_EQ(index_order(world.master(), {}),
            (std::vector<SodaDaemon*>{&world.daemon(0), &world.daemon(1),
                                      &world.daemon(2)}));
}

}  // namespace
}  // namespace soda::core
