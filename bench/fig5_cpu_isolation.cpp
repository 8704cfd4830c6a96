// Reproduces Figure 5: CPU shares over time of three virtual service nodes
// on one host — `web` (overloaded httpd workers), `comp` (infinite
// arithmetic loop), `log` (continuous disk writes) — each entitled to an
// equal share but offering more load than its share.
//
//   (a) host OS = unmodified Linux (per-thread time sharing): comp grabs the
//       CPU, the others starve.
//   (b) host OS = Linux + SODA's CPU proportional-share scheduler: all three
//       hold ~1/3.
//
// Extra series (design ablation): stride and lottery scheduling at the
// service level.
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench_report.hpp"
#include "core/switch.hpp"
#include "harness.hpp"
#include "sched/cpu_sim.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "workload/apps.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

using namespace soda;

namespace {

const char* kServices[] = {"svc-web", "svc-comp", "svc-log"};

sched::CpuSimResult run_policy(std::unique_ptr<sched::CpuScheduler> policy,
                               sim::SimTime duration) {
  auto sim = workload::make_fig5_scenario(std::move(policy));
  return sim.run(duration, sim::SimTime::seconds(1));
}

void print_series(const char* title, const sched::CpuSimResult& result,
                  std::size_t seconds) {
  std::printf("--- %s ---\n", title);
  util::CsvWriter csv({"t(s)", "web", "comp", "log"});
  for (std::size_t i = 0; i < seconds; ++i) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const char* uid : kServices) {
      char cell[16];
      std::snprintf(cell, sizeof cell, "%.3f",
                    result.shares.at(uid).points()[i].value);
      row.push_back(cell);
    }
    csv.add_row(std::move(row));
  }
  std::printf("%s", csv.render().c_str());
  double total = 0;
  for (const char* uid : kServices) total += result.total_cpu_s.at(uid);
  std::printf("mean shares: web %.3f  comp %.3f  log %.3f   "
              "max |share-1/3|: %.3f\n\n",
              result.total_cpu_s.at("svc-web") / total,
              result.total_cpu_s.at("svc-comp") / total,
              result.total_cpu_s.at("svc-log") / total,
              std::max({result.shares.at("svc-web").max_abs_deviation(1.0 / 3),
                        result.shares.at("svc-comp").max_abs_deviation(1.0 / 3),
                        result.shares.at("svc-log").max_abs_deviation(1.0 / 3)}));
}

/// Open-loop consequence of a scheduler's web share: the quantum sim says
/// what fraction of the host CPU `svc-web` actually holds; this deployment
/// gives an httpd that fraction of an 860 MHz HUP node and drives it with a
/// constant-rate open-loop trace. Arrivals never slow down when the service
/// does, so the p99 is coordinated-omission free — the closed-loop share
/// series above stays as the comparison baseline.
constexpr double kHostGhz = 0.86;       // tacoma-class HUP node
constexpr double kOpenRate = 200;  // req/s, near saturation at 1/3 share
constexpr double kOpenSeconds = 20;
constexpr std::int64_t kResponseBytes = 512 * 1024;

struct OpenPoint {
  std::uint64_t scheduled = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  double p99_ms = 0;
  std::uint64_t digest = 0;
  bool operator==(const OpenPoint&) const = default;
};

OpenPoint run_open_loop(double web_share) {
  sim::Engine engine;
  net::FlowNetwork network(engine);
  const net::NodeId sw = network.add_node("switch");
  const net::NodeId client = network.add_node("client");
  const net::NodeId server_node = network.add_node("server");
  // Over-provisioned links keep the network out of the way: the
  // scheduler's CPU share is the bottleneck under test.
  network.add_duplex_link(client, sw, 2000, sim::SimTime::zero());
  network.add_duplex_link(server_node, sw, 2000, sim::SimTime::zero());
  // The node is a UML guest, so its httpd pays traced-syscall pricing —
  // same mode fig4 charges the switch with.
  workload::WebContentServer server(engine, network, server_node,
                                    vm::ExecMode::kUmlTraced,
                                    kHostGhz * web_share, 1);
  core::ServiceSwitch service_switch("web", net::Ipv4Address(10, 0, 0, 1),
                                     8080);
  must(service_switch.add_backend(
      core::BackEndEntry{net::Ipv4Address(10, 0, 0, 1), 8080, 1, {}}));
  workload::SiegeConfig cfg;
  cfg.record_samples = false;
  cfg.response_bytes = kResponseBytes;
  workload::SiegeClient siege(engine, network, client, &service_switch, sw,
                              cfg);
  siege.register_backend(net::Ipv4Address(10, 0, 0, 1), &server, server_node);
  workload::TrafficEngine traffic(engine);
  traffic.add_stream("web", siege,
                     workload::TrafficTrace().constant(kOpenRate, kOpenSeconds));
  traffic.start();
  engine.run();
  const sim::StreamingStats& stats = traffic.stats("web");
  return OpenPoint{traffic.scheduled("web"), stats.completed(), stats.errors(),
                   stats.p99() * 1e3, traffic.digest()};
}

}  // namespace

int main() {
  util::global_logger().set_level(util::LogLevel::kOff);
  const auto duration = sim::SimTime::seconds(30);
  std::printf("== Figure 5: CPU shares of web/comp/log (equal entitlements, "
              "all overloaded) ==\n\n");

  struct Row {
    const char* name;
    std::function<std::unique_ptr<sched::CpuScheduler>()> make;
  };
  const Row rows[] = {
      {"timeshare (vanilla)", [] { return sched::make_timeshare_scheduler(); }},
      {"proportional (SODA)", [] { return sched::make_proportional_scheduler(); }},
      {"stride", [] { return sched::make_stride_scheduler(); }},
      {"lottery", [] { return sched::make_lottery_scheduler(0xF16); }},
  };
  constexpr std::size_t kRows = 4;

  // The four scheduler runs are independent replicas; each builds its own
  // quantum simulator. Run the sweep serially and through ParallelRunner and
  // require identical statistics before printing anything.
  const auto sweep = bench::serial_vs_parallel(kRows, [&](std::size_t i) {
    return run_policy(rows[i].make(), duration);
  });
  const auto& results = sweep.results;

  print_series("(a) host OS: unmodified Linux (per-thread time sharing)",
               results[0], 30);
  print_series("(b) host OS: Linux + SODA CPU proportional-share scheduler",
               results[1], 30);

  std::printf("== Ablation: alternative service-level schedulers ==\n\n");
  util::AsciiTable summary({"Scheduler", "web share", "comp share", "log share",
                            "max |share-1/3| per window"});
  summary.set_alignment({util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto& row = rows[i];
    const auto& result = results[i];
    double total = 0;
    for (const char* uid : kServices) total += result.total_cpu_s.at(uid);
    double worst = 0;
    for (const char* uid : kServices) {
      worst = std::max(worst, result.shares.at(uid).max_abs_deviation(1.0 / 3));
    }
    char web[16], comp[16], log[16], dev[16];
    std::snprintf(web, sizeof web, "%.3f", result.total_cpu_s.at("svc-web") / total);
    std::snprintf(comp, sizeof comp, "%.3f",
                  result.total_cpu_s.at("svc-comp") / total);
    std::snprintf(log, sizeof log, "%.3f", result.total_cpu_s.at("svc-log") / total);
    std::snprintf(dev, sizeof dev, "%.3f", worst);
    summary.add_row({row.name, web, comp, log, dev});
  }
  std::printf("%s\n", summary.render().c_str());
  std::printf(
      "shape: under vanilla time sharing `comp` dominates. SFQ and stride pin "
      "all three nodes near 1/3.\nMemoryless lottery drifts toward whoever is "
      "runnable when the ticket is drawn — it cannot\ncompensate services "
      "that block briefly, which is why SODA's scheduler keeps history.\n");

  // Open loop: the same shares expressed as request latency. Each
  // scheduler's measured web share becomes the httpd's CPU fraction; the
  // offered load is a TrafficTrace, so arrivals do not back off when the
  // starved configurations fall behind.
  std::printf("== Open loop: web request latency at each scheduler's "
              "measured share ==\n\n");
  double web_shares[kRows];
  for (std::size_t i = 0; i < kRows; ++i) {
    double total = 0;
    for (const char* uid : kServices) total += results[i].total_cpu_s.at(uid);
    web_shares[i] = results[i].total_cpu_s.at("svc-web") / total;
  }
  const auto open_sweep = bench::serial_vs_parallel(
      kRows, [&](std::size_t i) { return run_open_loop(web_shares[i]); });

  util::AsciiTable open_table({"Scheduler", "web share", "offered req/s",
                               "completed", "p99 (ms)"});
  open_table.set_alignment({util::Align::kLeft, util::Align::kRight,
                            util::Align::kRight, util::Align::kRight,
                            util::Align::kRight});
  for (std::size_t i = 0; i < kRows; ++i) {
    const auto& point = open_sweep.results[i];
    char share[16], rate[16], p99[32];
    std::snprintf(share, sizeof share, "%.3f", web_shares[i]);
    std::snprintf(rate, sizeof rate, "%.0f", kOpenRate);
    std::snprintf(p99, sizeof p99, "%.1f", point.p99_ms);
    open_table.add_row({rows[i].name, share, rate,
                        std::to_string(point.completed), p99});
  }
  std::printf("%s\n", open_table.render().c_str());
  std::printf("the share column is the whole story: vanilla over-serves web "
              "(at log's expense, per the\nseries above), SODA holds it at "
              "its entitlement, and lottery's drift puts the same service\n"
              "past the knee — open-loop arrivals queue up instead of "
              "politely waiting, so a few points\nof share separate a "
              "comfortable p99 from a saturated one.\n");

  std::printf("\nparallel sweep check: %s (serial %.2fs, parallel %.2fs on "
              "%zu worker(s))\n",
              sweep.identical && open_sweep.identical
                  ? "statistics identical to serial run"
                  : "MISMATCH vs serial run",
              sweep.serial_s, sweep.parallel_s, sweep.threads);
  soda::bench::BenchReport report;
  report.record("fig5_sweep",
                {{"points", static_cast<double>(kRows)},
                 {"wall_s_serial", sweep.serial_s},
                 {"wall_s_parallel", sweep.parallel_s},
                 {"identical_to_serial", sweep.identical ? 1.0 : 0.0},
                 {"open_loop_identical", open_sweep.identical ? 1.0 : 0.0}});
  report.write();
  return sweep.identical && open_sweep.identical ? 0 : 1;
}
