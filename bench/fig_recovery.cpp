// Failure-recovery benchmark (no counterpart figure in the paper, which
// assumes a reliable testbed): a four-host HUP runs a replicated web
// service, one host fail-stops mid-run, and the Master's heartbeat-timeout
// detector must notice, pull the dead backends from the switch, and re-prime
// the lost capacity on the surviving hosts; later the host reboots empty and
// its heartbeats resume. Reported per replica:
//
//   time-to-detect   crash -> host declared dead (bounded by the heartbeat
//                    timeout plus one detector period)
//   time-to-restore  crash -> service back at full admitted capacity
//   refused          client requests the switch refused during the outage
//
// Replicas differ only in when the crash lands. The whole sweep runs once
// serially and once over ParallelRunner, and the merged numbers must be
// bit-identical — fault injection is scheduled, not raced.
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_report.hpp"
#include "core/faults.hpp"
#include "core/hup.hpp"
#include "harness.hpp"
#include "image/image.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

using namespace soda;

namespace {

host::MachineConfig fig2_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

struct RecoveryResult {
  double detect_s = -1;       // crash -> kHostDown
  double restore_s = -1;      // crash -> kRecovered
  std::uint64_t routed = 0;
  std::uint64_t refused = 0;
  std::uint64_t placements_lost = 0;
  std::uint64_t recoveries = 0;
  bool host_back = false;

  friend bool operator==(const RecoveryResult&, const RecoveryResult&) = default;
};

/// One complete experiment: build, create, crash at `crash_at`, recover the
/// host 20 s later, drive a synthetic client at 100 req/s throughout.
RecoveryResult run_replica(double crash_at_s) {
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  auto hup = std::make_unique<core::Hup>(config);
  for (int i = 0; i < 4; ++i) {
    host::HostSpec spec = host::HostSpec::seattle();
    spec.name = "host-" + std::to_string(i);
    hup->add_host(spec, *net::Ipv4Address::parse("10.0." + std::to_string(i) +
                                                 ".16"),
                  16);
  }
  auto& repo = hup->add_repository("asp-repo");
  hup->agent().register_asp("asp", "key");
  const auto location =
      must(repo.publish(image::web_content_image(8 * 1024 * 1024)));

  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = location;
  request.requirement = {4, fig2_unit()};
  hup->agent().service_creation(
      request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
  hup->engine().run();
  core::ServiceSwitch* sw = hup->master().find_switch("web");
  SODA_ENSURES(sw != nullptr);

  // The crash takes out the switch's colocation host — the worst case: the
  // Master must also re-home the switch into a surviving node.
  const std::string victim = [&] {
    const auto* record = hup->master().find_service("web");
    for (const auto& node : record->nodes) {
      if (node.address == sw->listen_address()) return node.host_name;
    }
    return record->nodes.front().host_name;
  }();

  hup->enable_failure_detection();  // 250 ms heartbeats, 1 s timeout

  // Offset from the end of service creation (several sim-seconds of
  // download + boot) so every replica's crash actually lands in the future.
  const sim::SimTime crash_at =
      hup->engine().now() + sim::SimTime::seconds(crash_at_s);
  core::FaultPlan plan;
  plan.crash_host(crash_at, victim)
      .recover_host(crash_at + sim::SimTime::seconds(20), victim);
  core::FaultInjector injector(*hup);
  must(injector.arm(plan));

  // Synthetic closed-form client: one routing decision every 10 ms; a
  // successful route completes immediately (the data path is exercised by
  // the other benches — here only admission/refusal matters).
  RecoveryResult result;
  const sim::SimTime horizon = crash_at + sim::SimTime::seconds(30);
  std::function<void()> client_tick = [&] {
    if (hup->engine().now() >= horizon) return;
    auto routed = sw->route();
    ++result.routed;
    if (routed.ok()) {
      sw->on_request_complete(routed.value().address, routed.value().port);
    }
    hup->engine().schedule_after(sim::SimTime::milliseconds(10), client_tick);
  };
  hup->engine().schedule_after(sim::SimTime::milliseconds(10), client_tick);

  hup->engine().run_until(horizon);

  for (const auto& event : hup->trace().events()) {
    if (event.kind == core::TraceKind::kHostDown && result.detect_s < 0) {
      result.detect_s = (event.at - crash_at).to_seconds();
    }
    if (event.kind == core::TraceKind::kRecovered && result.restore_s < 0) {
      result.restore_s = (event.at - crash_at).to_seconds();
    }
  }
  result.refused = sw->requests_refused();
  result.placements_lost = hup->master().placements_lost();
  result.recoveries = hup->master().recoveries_completed();
  result.host_back = !hup->master().host_down(victim);
  return result;
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);
  std::printf("== Recovery: host fail-stop under the heartbeat detector "
              "(4-host HUP, n=4 web service) ==\n\n");

  const double crash_times[] = {3.0, 5.0, 7.0, 9.0};
  constexpr std::size_t kReplicas = 4;

  const auto sweep = bench::serial_vs_parallel(
      kReplicas, [&](std::size_t i) { return run_replica(crash_times[i]); });
  const auto& results = sweep.results;

  util::AsciiTable table({"Crash at", "Detect (s)", "Restore (s)", "Routed",
                          "Refused", "Lost", "Recoveries", "Host back"});
  table.set_alignment({util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight});
  bool all_recovered = true;
  double worst_detect = 0, worst_restore = 0;
  for (std::size_t i = 0; i < kReplicas; ++i) {
    const auto& r = results[i];
    char at[16], detect[16], restore[16];
    std::snprintf(at, sizeof at, "%.0fs", crash_times[i]);
    std::snprintf(detect, sizeof detect, "%.3f", r.detect_s);
    std::snprintf(restore, sizeof restore, "%.3f", r.restore_s);
    table.add_row({at, detect, restore, std::to_string(r.routed),
                   std::to_string(r.refused), std::to_string(r.placements_lost),
                   std::to_string(r.recoveries), r.host_back ? "yes" : "no"});
    all_recovered = all_recovered && r.recoveries >= 1 && r.detect_s >= 0 &&
                    r.restore_s >= 0 && r.host_back;
    if (r.detect_s > worst_detect) worst_detect = r.detect_s;
    if (r.restore_s > worst_restore) worst_restore = r.restore_s;
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "shape: detection lands within the 1 s heartbeat timeout plus one "
      "250 ms detector period;\nrestore adds one image download + guest boot "
      "on a surviving host. Refusals stay bounded\nbecause the switch drops "
      "the dead backends the moment the detector fires.\n");

  std::printf("\nparallel sweep check: %s (serial %.2fs, parallel %.2fs on "
              "%zu worker(s))\n",
              sweep.identical ? "statistics identical to serial run"
                              : "MISMATCH vs serial run",
              sweep.serial_s, sweep.parallel_s, sweep.threads);

  soda::bench::BenchReport report("BENCH_recovery.json", "soda-recovery");
  report.record("recovery_sweep",
                {{"replicas", static_cast<double>(kReplicas)},
                 {"worst_detect_s", worst_detect},
                 {"worst_restore_s", worst_restore},
                 {"all_recovered", all_recovered ? 1.0 : 0.0},
                 {"wall_s_serial", sweep.serial_s},
                 {"wall_s_parallel", sweep.parallel_s},
                 {"identical_to_serial", sweep.identical ? 1.0 : 0.0}});
  report.write();
  return (sweep.identical && all_recovered) ? 0 : 1;
}
