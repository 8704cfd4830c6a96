// Decomposition of the admission-path allocation count: runs the fig_fleet
// ramp admission under ablations (node count, image size, rootfs
// customization) and prints allocs/admission for each, plus how often the
// world's shared guest-rootfs cache built a tree versus handed out one it
// already had, so future shaves target the dominant term instead of a
// guess. fig_fleet records the headline number; this tool explains it.
#include <cstdio>
#include <string>

#include "alloc_counter.hpp"
#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "host/host.hpp"
#include "image/image.hpp"
#include "util/log.hpp"

using namespace soda;

namespace {

host::MachineConfig fleet_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

void measure(const char* label, int units, std::int64_t image_bytes,
             bool customize) {
  util::global_logger().set_level(util::LogLevel::kOff);
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  config.customize_rootfs = customize;
  core::Hup hup(config);
  for (int i = 0; i < 150; ++i) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = "prof-" + std::to_string(i);
    hup.add_host(spec,
                 net::Ipv4Address(10, static_cast<std::uint8_t>(i / 100),
                                  static_cast<std::uint8_t>(i % 100), 16),
                 16);
  }
  auto& repo = hup.add_repository("asp-repo");
  hup.agent().register_asp("asp", "key");
  const auto location = must(repo.publish(image::web_content_image(image_bytes)));

  constexpr int kAdmissions = 40;
  // Warm 10 admissions so one-time table growth (and the one tree build per
  // image) stays out of the number.
  std::uint64_t before = 0;
  for (int s = 0; s < kAdmissions + 10; ++s) {
    if (s == 10) before = bench::allocation_count();
    core::ServiceCreationRequest request;
    request.credentials = {"asp", "key"};
    request.service_name = "svc-" + std::to_string(s);
    request.image_location = location;
    request.requirement = {units, fleet_unit()};
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();
  }
  const double allocs =
      static_cast<double>(bench::allocation_count() - before) / kAdmissions;
  const core::GuestRootFsCache& trees = hup.master().guest_rootfs();
  std::printf("%-42s %8.1f   %4llu build(s) %5llu hit(s)\n", label, allocs,
              static_cast<unsigned long long>(trees.builds()),
              static_cast<unsigned long long>(trees.hits()));
}

}  // namespace

int main() {
  std::printf("%-42s %8s   guest rootfs cache\n", "", "allocs/admission");
  measure("baseline  (2 nodes, 1MiB, customize):", 2, 1 << 20, true);
  measure("1 node    (1 node,  1MiB, customize):", 1, 1 << 20, true);
  measure("small img (2 nodes, 64KiB, customize):", 2, 64 << 10, true);
  measure("no rootfs (2 nodes, 1MiB, raw):", 2, 1 << 20, false);
  return 0;
}
