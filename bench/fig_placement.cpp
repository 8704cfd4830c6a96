// Placement-policy ablation (no counterpart figure in the paper, which
// fixes one mapping policy in §3.2): the same 6-host HUP primes a 3-replica
// service under each placement strategy after three of the hosts were warmed
// with the service's image chunks (admission-time prefetch, PR 3).
//
//   first-fit / best-fit / worst-fit   blind to caches: with six equal
//                                      hosts every one degenerates to the
//                                      registration-order tie-break and
//                                      places onto the three COLD hosts
//   cache-affinity                     consults each host's chunk cache
//                                      through the image manifest and lands
//                                      on the three WARM hosts — priming
//                                      downloads nothing
//
// Reported per policy: chosen hosts, the cold-prime makespan (slowest
// node's image transfer), creation wall-clock, and origin bytes. The sweep
// runs once serially and once under ParallelRunner; results must be
// bit-identical, and cache-affinity must beat worst-fit's cold-prime time.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/hup.hpp"
#include "harness.hpp"
#include "image/image.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace soda;

namespace {

constexpr std::int64_t kImageBytes = 24ll * 1024 * 1024;
constexpr int kHosts = 6;
constexpr int kReplicas = 3;

/// Sized so one inflated unit (x1.5 -> 1800 MHz) fills a seattle-class
/// host: an n=3 service spreads across exactly three hosts.
host::MachineConfig one_per_host_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 1200;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

struct PlacementResult {
  std::string hosts;            // chosen hosts, in node order
  double cold_download_s = -1;  // slowest node's image transfer
  double create_s = -1;         // creation start -> service running
  std::int64_t origin_bytes = 0;

  friend bool operator==(const PlacementResult&,
                         const PlacementResult&) = default;
};

PlacementResult run_replica(core::PlacementPolicy policy) {
  core::MasterConfig config;
  config.placement = policy;
  config.distribution.enabled = true;
  config.distribution.p2p = false;
  auto hup = std::make_unique<core::Hup>(config);
  for (int i = 0; i < kHosts; ++i) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = "host-" + std::to_string(i);
    hup->add_host(spec,
                  *net::Ipv4Address::parse("10.0." + std::to_string(i) + ".16"),
                  16);
  }
  auto& repo = hup->add_repository("asp-repo");
  hup->agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(kImageBytes)));

  // Admission-time prefetch onto the back half of the fleet.
  std::vector<std::string> warm_targets;
  for (int i = kHosts - kReplicas; i < kHosts; ++i) {
    warm_targets.push_back("host-" + std::to_string(i));
  }
  hup->master().warm_hosts(location, warm_targets,
                           [](Status status, sim::SimTime) {
                             must(std::move(status));
                           });
  hup->engine().run();
  const std::int64_t warm_origin_bytes = [&] {
    std::int64_t total = 0;
    for (int i = 0; i < kHosts; ++i) {
      total += hup->find_daemon("host-" + std::to_string(i))
                   ->distributor()
                   .bytes_from_origin();
    }
    return total;
  }();

  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = location;
  request.requirement = {kReplicas, one_per_host_unit()};
  const sim::SimTime started = hup->engine().now();
  hup->agent().service_creation(
      request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
  hup->engine().run();

  PlacementResult result;
  result.create_s = (hup->engine().now() - started).to_seconds();
  const auto* record = hup->master().find_service("web");
  SODA_ENSURES(record != nullptr);
  sim::SimTime slowest = sim::SimTime::zero();
  for (const auto& node : record->nodes) {
    if (!result.hosts.empty()) result.hosts += ",";
    result.hosts += node.host_name;
    const auto* report =
        hup->find_daemon(node.host_name)->priming_report(node.node_name);
    SODA_ENSURES(report != nullptr);
    if (report->download_time > slowest) slowest = report->download_time;
  }
  result.cold_download_s = slowest.to_seconds();
  for (int i = 0; i < kHosts; ++i) {
    result.origin_bytes += hup->find_daemon("host-" + std::to_string(i))
                               ->distributor()
                               .bytes_from_origin();
  }
  result.origin_bytes -= warm_origin_bytes;  // creation's own transfers only
  return result;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);
  std::printf("== Placement ablation: %d equal hosts, %d warmed, n=%d "
              "creation (%lld MiB image) ==\n\n",
              kHosts, kReplicas, kReplicas,
              static_cast<long long>(kImageBytes / (1024 * 1024)));

  const core::PlacementPolicy policies[] = {
      core::PlacementPolicy::kFirstFit, core::PlacementPolicy::kBestFit,
      core::PlacementPolicy::kWorstFit, core::PlacementPolicy::kCacheAffinity};

  const auto sweep =
      bench::serial_vs_parallel(std::size(policies), [&](std::size_t i) {
        return run_replica(policies[i]);
      });
  const auto& results = sweep.results;

  util::AsciiTable table(
      {"Policy", "Hosts", "Cold dl (s)", "Create (s)", "Origin MiB"});
  table.set_alignment({util::Align::kLeft, util::Align::kLeft,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
  double worstfit_cold = -1, affinity_cold = -1;
  for (std::size_t i = 0; i < std::size(policies); ++i) {
    const auto& r = results[i];
    char cold[16], create[16], origin_mb[16];
    std::snprintf(cold, sizeof cold, "%.3f", r.cold_download_s);
    std::snprintf(create, sizeof create, "%.3f", r.create_s);
    std::snprintf(origin_mb, sizeof origin_mb, "%.1f",
                  static_cast<double>(r.origin_bytes) / (1024 * 1024));
    table.add_row({std::string(core::placement_policy_name(policies[i])),
                   r.hosts, cold, create, origin_mb});
    if (policies[i] == core::PlacementPolicy::kWorstFit) {
      worstfit_cold = r.cold_download_s;
    }
    if (policies[i] == core::PlacementPolicy::kCacheAffinity) {
      affinity_cold = r.cold_download_s;
    }
  }
  std::printf("%s\n", table.render().c_str());

  std::printf(
      "shape: the cache-blind policies tie-break onto the cold front hosts "
      "and pull the full\nimage per node; cache-affinity reads the warmed "
      "caches through the manifest and primes\nwithout touching the "
      "origin.\n\n");
  std::printf("cold-prime makespan: cache-affinity %.3fs vs worst-fit %.3fs "
              "(affinity must win)\n",
              affinity_cold, worstfit_cold);
  std::printf("parallel sweep check: %s (serial %.2fs, parallel %.2fs on %zu "
              "worker(s))\n",
              sweep.identical ? "statistics identical to serial run"
                              : "MISMATCH vs serial run",
              sweep.serial_s, sweep.parallel_s, sweep.threads);

  soda::bench::BenchReport report("BENCH_placement.json", "soda-placement");
  for (std::size_t i = 0; i < std::size(policies); ++i) {
    const auto& r = results[i];
    report.record(
        std::string("placement_") +
            std::string(core::placement_policy_name(policies[i])),
        {{"cold_download_s", r.cold_download_s},
         {"create_s", r.create_s},
         {"origin_mib", static_cast<double>(r.origin_bytes) / (1024 * 1024)}});
  }
  const bool affinity_wins =
      affinity_cold >= 0 && worstfit_cold >= 0 && affinity_cold < worstfit_cold;
  report.record("placement_check",
                {{"affinity_cold_s", affinity_cold},
                 {"worstfit_cold_s", worstfit_cold},
                 {"wall_s_serial", sweep.serial_s},
                 {"wall_s_parallel", sweep.parallel_s},
                 {"identical_to_serial", sweep.identical ? 1.0 : 0.0}});
  report.write();
  return (sweep.identical && affinity_wins) ? 0 : 1;
}
