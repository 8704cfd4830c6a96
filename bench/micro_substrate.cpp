// google-benchmark micro-benchmarks of the substrate itself: event queue
// throughput (new slab/4-ary-heap queue vs the seed design, schedule/pop and
// cancel-heavy), flow-network reallocation, switch routing, Master planning,
// rootfs assembly, and the syscall cost model. These guard against
// accidental slowdowns in the simulator that would make the paper-scale
// experiments unpleasant to run.
//
// After the google-benchmark pass, main() runs a hand-timed head-to-head of
// the two queue designs (with allocation counts from alloc_counter.cpp) and
// records the results in BENCH_sim_core.json via BenchReport.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <map>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "bench_report.hpp"
#include "core/hup.hpp"
#include "core/switch.hpp"
#include "image/image.hpp"
#include "net/flow_network.hpp"
#include "os/rootfs.hpp"
#include "seed_event_queue.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "util/log.hpp"
#include "vm/syscall.hpp"

using namespace soda;

namespace {

// Uniform-random schedule times, pre-generated so the RNG cost stays out of
// the measured loops — both queue designs get the identical sequence.
std::vector<std::int64_t> random_times(std::size_t n) {
  sim::Rng rng(1);
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = rng.uniform_int(0, 1'000'000);
  return times;
}

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto times = random_times(n);
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(sim::SimTime::nanoseconds(times[i]), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time.ns());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1 << 8)->Arg(1 << 12);

// The seed design, same workload: the ratio to the benchmark above is the
// headline number of the sim-core rebuild.
void BM_SeedEventQueueScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto times = random_times(n);
  for (auto _ : state) {
    bench::SeedEventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(sim::SimTime::nanoseconds(times[i]), [] {});
    }
    while (!queue.empty()) benchmark::DoNotOptimize(queue.pop().time.ns());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SeedEventQueueScheduleAndPop)->Arg(1 << 8)->Arg(1 << 12);

// Schedule/cancel churn: O(1) generation-tag cancel vs the seed's linear
// scan + unordered_set. Kept small because the seed design is quadratic.
void BM_EventQueueCancelChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::EventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = queue.schedule(
          sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
      benchmark::DoNotOptimize(queue.cancel(id));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(1 << 10);

void BM_SeedEventQueueCancelChurn(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    bench::SeedEventQueue queue;
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = queue.schedule(
          sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
      benchmark::DoNotOptimize(queue.cancel(id));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_SeedEventQueueCancelChurn)->Arg(1 << 10);

// Starts `flows` concurrent flows on an 8-host star. Every start_flow
// re-solves max-min fairness over all flows in flight, so the time per flow
// grows with the flow count. allocs_per_flow counts the heap allocations of
// the timed starts: route lookups, slot and member-list growth, closures.
void BM_FlowNetworkReallocate(benchmark::State& state) {
  const auto flows = static_cast<int>(state.range(0));
  std::uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Engine engine;
    net::FlowNetwork network(engine);
    const auto sw = network.add_node("sw");
    std::vector<net::NodeId> hosts;
    for (int i = 0; i < 8; ++i) {
      hosts.push_back(network.add_node("h"));
      network.add_duplex_link(hosts.back(), sw, 100, sim::SimTime::zero());
    }
    state.ResumeTiming();
    const std::uint64_t allocs_before = bench::allocation_count();
    for (int i = 0; i < flows; ++i) {
      benchmark::DoNotOptimize(network.start_flow(
          hosts[i % 8], hosts[(i + 3) % 8], 1'000'000, [](sim::SimTime) {}));
    }
    allocs += bench::allocation_count() - allocs_before;
  }
  const double started = static_cast<double>(flows) *
                         static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(started));
  state.counters["allocs_per_flow"] = static_cast<double>(allocs) / started;
}
BENCHMARK(BM_FlowNetworkReallocate)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMicrosecond);

void BM_SwitchRouteWrr(benchmark::State& state) {
  core::ServiceSwitch sw("svc", net::Ipv4Address(10, 0, 0, 1), 80);
  for (int i = 0; i < 8; ++i) {
    must(sw.add_backend(core::BackEndEntry{
        net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1)), 80,
        1 + i % 3, ""}));
  }
  for (auto _ : state) {
    auto backend = sw.route();
    benchmark::DoNotOptimize(backend);
    sw.on_request_complete(backend.value().address, backend.value().port);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwitchRouteWrr);

void BM_MasterPlanAllocation(benchmark::State& state) {
  util::global_logger().set_level(util::LogLevel::kOff);
  auto tb = core::Hup::paper_testbed();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tb.hup->master().plan_allocation("svc", {3, {}}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MasterPlanAllocation);

void BM_RootfsBuildAndCustomize(benchmark::State& state) {
  for (auto _ : state) {
    auto rootfs = os::build_rootfs(os::RootFsTemplate::kRh72Server);
    auto customized = os::customize_rootfs(rootfs, {"httpd", "syslog"});
    benchmark::DoNotOptimize(customized.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RootfsBuildAndCustomize);

void BM_SyscallCostModel(benchmark::State& state) {
  const vm::SyscallCostModel model;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        vm::static_request_cost(model, 256 * 1024).slowdown());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SyscallCostModel);

// Console reporter that additionally captures each benchmark's items/sec so
// the BM_* results land in BENCH_sim_core.json verbatim — the acceptance
// numbers come from google-benchmark's own measurement, not a re-run.
class CaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        items_[run.benchmark_name()] = static_cast<double>(it->second);
      }
    }
    ConsoleReporter::ReportRuns(reports);
  }
  [[nodiscard]] double items_per_sec(const std::string& name) const {
    const auto it = items_.find(name);
    return it == items_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> items_;
};

// ---- Hand-timed head-to-head, recorded in BENCH_sim_core.json ----

// Process CPU time, the same accounting google-benchmark uses for
// items_per_second: on a busy shared core, wall time charges the queue for
// scheduler steal that has nothing to do with its own cost.
double cpu_seconds() {
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

struct Measured {
  double items_per_sec;
  double cpu_s;
  double allocs_per_event;
};

template <typename Queue>
Measured measure_schedule_pop(std::size_t n, std::size_t reps,
                              const std::vector<std::int64_t>& times) {
  std::int64_t sink = 0;
  const std::uint64_t allocs_before = bench::allocation_count();
  const double start = cpu_seconds();
  for (std::size_t r = 0; r < reps; ++r) {
    Queue queue;
    for (std::size_t i = 0; i < n; ++i) {
      queue.schedule(sim::SimTime::nanoseconds(times[i]), [] {});
    }
    while (!queue.empty()) sink += queue.pop().time.ns();
  }
  const double cpu = cpu_seconds() - start;
  const std::uint64_t allocs = bench::allocation_count() - allocs_before;
  benchmark::DoNotOptimize(sink);
  const auto events = static_cast<double>(n) * static_cast<double>(reps);
  return Measured{events / cpu, cpu, static_cast<double>(allocs) / events};
}

void write_sim_core_report(const CaptureReporter& captured) {
  bench::BenchReport report;

  // google-benchmark's own numbers for the headline comparison, when the
  // corresponding benchmarks ran this invocation (a --benchmark_filter that
  // skips them leaves any previously recorded values in place).
  const double bm_queue_256 =
      captured.items_per_sec("BM_EventQueueScheduleAndPop/256");
  const double bm_seed_256 =
      captured.items_per_sec("BM_SeedEventQueueScheduleAndPop/256");
  if (bm_queue_256 > 0 && bm_seed_256 > 0) {
    report.record("bm_schedule_pop_n256",
                  {{"event_queue_items_per_sec", bm_queue_256},
                   {"seed_items_per_sec", bm_seed_256},
                   {"speedup", bm_queue_256 / bm_seed_256}});
  }
  const double bm_queue_4096 =
      captured.items_per_sec("BM_EventQueueScheduleAndPop/4096");
  const double bm_seed_4096 =
      captured.items_per_sec("BM_SeedEventQueueScheduleAndPop/4096");
  if (bm_queue_4096 > 0 && bm_seed_4096 > 0) {
    report.record("bm_schedule_pop_n4096",
                  {{"event_queue_items_per_sec", bm_queue_4096},
                   {"seed_items_per_sec", bm_seed_4096},
                   {"speedup", bm_queue_4096 / bm_seed_4096}});
  }
  const double bm_queue_churn =
      captured.items_per_sec("BM_EventQueueCancelChurn/1024");
  const double bm_seed_churn =
      captured.items_per_sec("BM_SeedEventQueueCancelChurn/1024");
  if (bm_queue_churn > 0 && bm_seed_churn > 0) {
    report.record("bm_cancel_churn_n1024",
                  {{"event_queue_items_per_sec", bm_queue_churn},
                   {"seed_items_per_sec", bm_seed_churn},
                   {"speedup", bm_queue_churn / bm_seed_churn}});
  }
  const std::size_t n = 4096;
  const std::size_t reps = 250;
  const auto times = random_times(n);

  // Warm-up pass so neither contender pays the page-fault bill and the CPU
  // clock has ramped before the first measured round.
  measure_schedule_pop<sim::EventQueue>(n, 200, times);
  measure_schedule_pop<bench::SeedEventQueue>(n, 200, times);

  // Short interleaved rounds, many of them: on a machine whose clock
  // wanders, the two queues in one round run back-to-back and share clock
  // state, so the per-round ratio is stable even when absolute numbers
  // drift. Report best-of throughput and the median per-round ratio.
  Measured queue_best{0, 0, 0};
  Measured seed_best{0, 0, 0};
  std::vector<double> round_ratios;
  for (int round = 0; round < 12; ++round) {
    const auto q = measure_schedule_pop<sim::EventQueue>(n, reps, times);
    if (q.items_per_sec > queue_best.items_per_sec) queue_best = q;
    const auto s = measure_schedule_pop<bench::SeedEventQueue>(n, reps, times);
    if (s.items_per_sec > seed_best.items_per_sec) seed_best = s;
    round_ratios.push_back(q.items_per_sec / s.items_per_sec);
  }
  std::nth_element(round_ratios.begin(),
                   round_ratios.begin() + round_ratios.size() / 2,
                   round_ratios.end());
  const double median_ratio = round_ratios[round_ratios.size() / 2];

  report.record("event_queue_schedule_pop_n4096",
                {{"items_per_sec", queue_best.items_per_sec},
                 {"cpu_s", queue_best.cpu_s},
                 {"allocs_per_event", queue_best.allocs_per_event}});
  report.record("seed_event_queue_schedule_pop_n4096",
                {{"items_per_sec", seed_best.items_per_sec},
                 {"cpu_s", seed_best.cpu_s},
                 {"allocs_per_event", seed_best.allocs_per_event}});
  report.record("event_queue_speedup_vs_seed",
                {{"ratio", median_ratio},
                 {"best_of_ratio",
                  queue_best.items_per_sec / seed_best.items_per_sec}});

  // Cancellation-churn memory: 1M schedule+cancel cycles must not grow the
  // queue (the seed design leaked an unordered_set entry per cancel).
  {
    sim::EventQueue queue;
    const double start = cpu_seconds();
    for (std::size_t i = 0; i < 1'000'000; ++i) {
      const auto id = queue.schedule(
          sim::SimTime::nanoseconds(static_cast<std::int64_t>(i)), [] {});
      queue.cancel(id);
    }
    const double cpu = cpu_seconds() - start;
    report.record("event_queue_cancel_churn_1M",
                  {{"items_per_sec", 1e6 / cpu},
                   {"cpu_s", cpu},
                   {"footprint_bytes", static_cast<double>(
                        queue.footprint_bytes())}});
  }

  if (report.write()) {
    std::printf("\nwrote BENCH_sim_core.json (event queue: %.3g ev/s, seed: "
                "%.3g ev/s, median speedup %.2fx)\n",
                queue_best.items_per_sec, seed_best.items_per_sec,
                median_ratio);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  write_sim_core_report(reporter);
  return 0;
}
