// Image-distribution benchmark (no counterpart figure in the paper, whose
// testbed downloads every service image from a single ASP repository —
// §4.3's stated scaling bottleneck): N hosts prime an N-replica service
// from one 48 MiB image under three distribution modes:
//
//   origin   the paper's baseline — every host pulls the whole image from
//            the repository; N simultaneous copies share its uplink
//   cache    per-host chunk cache, misses fetched from the origin as one
//            ranged transfer; the second creation wave is free
//   p2p      chunk-wise swarm — rotated dispatch order pulls distinct
//            chunks from the origin, the registry trades the rest over the
//            LAN peer-to-peer
//
// Reported per (mode, N): the cold download makespan (slowest host's image
// transfer in creation wave 1), the warm makespan (wave 2, after teardown),
// and where the bytes came from. The whole sweep runs once serially and
// once over ParallelRunner; the merged numbers must be bit-identical, and
// p2p must beat origin by >= 3x on the cold wave at N=8.
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

constexpr std::int64_t kImageBytes = 48ll * 1024 * 1024;

/// Sized so one inflated unit (x1.5 -> 1800 MHz) fills a seattle-class host:
/// worst-fit then spreads an n=N service across exactly N hosts.
host::MachineConfig one_per_host_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 1200;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

enum class Mode { kOrigin, kCache, kP2p };

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kOrigin: return "origin";
    case Mode::kCache: return "cache";
    case Mode::kP2p: return "p2p";
  }
  return "?";
}

image::DistributionConfig mode_config(Mode mode) {
  image::DistributionConfig config;
  config.enabled = mode != Mode::kOrigin;
  config.p2p = mode == Mode::kP2p;
  return config;
}

struct DistributionResult {
  double cold_download_s = -1;  // wave 1: slowest host's image transfer
  double cold_total_s = -1;     // wave 1: creation start -> service running
  double warm_download_s = -1;  // wave 2, after teardown
  std::int64_t origin_bytes = 0;
  std::int64_t peer_bytes = 0;
  std::int64_t cache_bytes = 0;
  std::uint64_t registry_reports = 0;

  friend bool operator==(const DistributionResult&,
                         const DistributionResult&) = default;
};

DistributionResult run_replica(Mode mode, int n) {
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  config.distribution = mode_config(mode);
  auto hup = std::make_unique<core::Hup>(config);
  for (int i = 0; i < n; ++i) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = "host-" + std::to_string(i);
    hup->add_host(spec,
                  *net::Ipv4Address::parse("10.0." + std::to_string(i) + ".16"),
                  16);
  }
  auto& repo = hup->add_repository("asp-repo");
  hup->agent().register_asp("asp", "key");
  const auto location = must(repo.publish(image::web_content_image(kImageBytes)));

  auto create_wave = [&](const std::string& name, double* download_s,
                         double* total_s) {
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = name;
    request.image_location = location;
    request.requirement = {n, one_per_host_unit()};
    const sim::SimTime started = hup->engine().now();
    hup->agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup->engine().run();
    if (total_s) *total_s = (hup->engine().now() - started).to_seconds();
    sim::SimTime slowest = sim::SimTime::zero();
    const auto* record = hup->master().find_service(name);
    SODA_ENSURES(record != nullptr);
    for (const auto& node : record->nodes) {
      const auto* report =
          hup->find_daemon(node.host_name)->priming_report(node.node_name);
      SODA_ENSURES(report != nullptr);
      if (report->download_time > slowest) slowest = report->download_time;
    }
    if (download_s) *download_s = slowest.to_seconds();
  };

  DistributionResult result;
  create_wave("web", &result.cold_download_s, &result.cold_total_s);
  must(hup->agent().service_teardown(
      core::ServiceTeardownRequest{{"asp", "key"}, "web"}));
  create_wave("web2", &result.warm_download_s, nullptr);

  for (int i = 0; i < n; ++i) {
    const auto& distributor =
        hup->find_daemon("host-" + std::to_string(i))->distributor();
    result.origin_bytes += distributor.bytes_from_origin();
    result.peer_bytes += distributor.bytes_from_peers();
    result.cache_bytes += distributor.bytes_from_cache();
  }
  // Origin mode bypasses the chunk layer entirely; count legacy downloads.
  if (mode == Mode::kOrigin) {
    for (int i = 0; i < n; ++i) {
      result.origin_bytes += hup->find_daemon("host-" + std::to_string(i))
                                 ->distributor()
                                 .downloader()
                                 .bytes_downloaded();
    }
  }
  result.registry_reports = hup->master().chunk_registry().reports();
  return result;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);
  std::printf("== Image distribution: origin vs chunk cache vs P2P swarm "
              "(N-replica priming, %lld MiB image) ==\n\n",
              static_cast<long long>(kImageBytes / (1024 * 1024)));

  const Mode modes[] = {Mode::kOrigin, Mode::kCache, Mode::kP2p};
  const int fleet[] = {2, 4, 8};
  struct Case {
    Mode mode;
    int n;
  };
  std::vector<Case> cases;
  for (const Mode mode : modes) {
    for (const int n : fleet) cases.push_back({mode, n});
  }

  const auto sweep =
      bench::serial_vs_parallel(cases.size(), [&](std::size_t i) {
        return run_replica(cases[i].mode, cases[i].n);
      });
  const auto& results = sweep.results;

  util::AsciiTable table({"Mode", "N", "Cold dl (s)", "Warm dl (s)",
                          "Create (s)", "Origin MiB", "Peer MiB"});
  table.set_alignment({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
  double origin_cold_n8 = 0, p2p_cold_n8 = 0, cache_warm_n8 = -1;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& r = results[i];
    char cold[16], warm[16], total[16], origin_mb[16], peer_mb[16];
    std::snprintf(cold, sizeof cold, "%.2f", r.cold_download_s);
    std::snprintf(warm, sizeof warm, "%.3f", r.warm_download_s);
    std::snprintf(total, sizeof total, "%.2f", r.cold_total_s);
    std::snprintf(origin_mb, sizeof origin_mb, "%.1f",
                  static_cast<double>(r.origin_bytes) / (1024 * 1024));
    std::snprintf(peer_mb, sizeof peer_mb, "%.1f",
                  static_cast<double>(r.peer_bytes) / (1024 * 1024));
    table.add_row({mode_name(cases[i].mode), std::to_string(cases[i].n), cold,
                   warm, total, origin_mb, peer_mb});
    if (cases[i].n == 8) {
      if (cases[i].mode == Mode::kOrigin) origin_cold_n8 = r.cold_download_s;
      if (cases[i].mode == Mode::kP2p) p2p_cold_n8 = r.cold_download_s;
      if (cases[i].mode == Mode::kCache) cache_warm_n8 = r.warm_download_s;
    }
  }
  std::printf("%s\n", table.render().c_str());

  const double speedup =
      p2p_cold_n8 > 0 ? origin_cold_n8 / p2p_cold_n8 : 0.0;
  std::printf(
      "shape: origin-mode makespan grows linearly with N (the repository "
      "uplink serves N full\ncopies); the swarm pulls ~one copy from the "
      "origin and trades chunks over the LAN, so its\nmakespan stays near "
      "flat. Warm waves hit the per-host cache and download nothing.\n");
  std::printf("\ncold-download speedup at N=8 (p2p vs origin): %.2fx "
              "(need >= 3x)\n", speedup);
  std::printf("warm re-creation download at N=8 (cache mode): %.3fs\n",
              cache_warm_n8);
  std::printf("parallel sweep check: %s (serial %.2fs, parallel %.2fs on %zu "
              "worker(s))\n",
              sweep.identical ? "statistics identical to serial run"
                              : "MISMATCH vs serial run",
              sweep.serial_s, sweep.parallel_s, sweep.threads);

  soda::bench::BenchReport report("BENCH_distribution.json",
                                  "soda-distribution");
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& r = results[i];
    const std::string key = std::string("distribution_") +
                            mode_name(cases[i].mode) + "_n" +
                            std::to_string(cases[i].n);
    report.record(key,
                  {{"cold_download_s", r.cold_download_s},
                   {"warm_download_s", r.warm_download_s},
                   {"cold_create_s", r.cold_total_s},
                   {"origin_mib",
                    static_cast<double>(r.origin_bytes) / (1024 * 1024)},
                   {"peer_mib",
                    static_cast<double>(r.peer_bytes) / (1024 * 1024)},
                   {"registry_reports",
                    static_cast<double>(r.registry_reports)}});
  }
  const bool fast_enough = speedup >= 3.0;
  const bool warm_free = cache_warm_n8 >= 0 && cache_warm_n8 < 0.001;
  report.record("distribution_check",
                {{"speedup_n8", speedup},
                 {"warm_download_s_n8", cache_warm_n8},
                 {"wall_s_serial", sweep.serial_s},
                 {"wall_s_parallel", sweep.parallel_s},
                 {"identical_to_serial", sweep.identical ? 1.0 : 0.0}});
  report.write();
  return (sweep.identical && fast_enough && warm_free) ? 0 : 1;
}
