// chaos_sweep: consecutive generated chaos scenarios (2-5 hosts, 1-3
// services, faults, open-loop traffic) from bench/fig_chaos's seed
// sequence, each run serially through chaos::run_scenario with the
// invariant checker on. One iteration is a block of scenarios; generating
// the block's specs is its set-up. Every scenario is one checked operation.
// A run makes a fixed number of whole passes over the pool, so every run
// executes (and checks) the same scenarios, only in a rotated order.
#include <cstdio>
#include <string>
#include <vector>

#include "chaos/generator.hpp"
#include "chaos/runner.hpp"
#include "probe.hpp"
#include "sim/parallel_runner.hpp"

using namespace soda;

namespace perfbench {
namespace {

// Scenarios re-run with the checker off, to price the checker.
constexpr std::size_t kCheckSubset = 128;

struct Block {
  std::uint64_t base = 0;
  std::size_t first = 0;
  std::size_t pool = 0;
  std::size_t size = 0;
  std::size_t passes = 0;
};

/// Input token "<base seed>:<first index>:<pool size>:<block size>:<passes>";
/// block b covers pool indices first + b*size ... (mod pool), and the run
/// makes `passes` passes of pool/size blocks.
Block parse_block(const std::string& token) {
  Block b;
  std::size_t pos = 0;
  auto next = [&] {
    const std::size_t colon = token.find(':', pos);
    const std::string part = token.substr(pos, colon - pos);
    pos = colon == std::string::npos ? token.size() : colon + 1;
    return std::stoull(part, nullptr, 0);
  };
  b.base = next();
  b.first = next();
  b.pool = next();
  b.size = next();
  b.passes = next();
  return b;
}

}  // namespace

int run_chaos(const Options& options) {
  Spans spans(options.trace);
  const Block block = parse_block(options.inputs.front());
  if (block.pool == 0 || block.size == 0 || block.pool % block.size != 0 ||
      block.passes == 0) {
    return 2;
  }
  const std::size_t blocks = block.passes * (block.pool / block.size);

  std::vector<double> setup_s;
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  // Totals over untraced [0] and traced [1] blocks.
  double wall_total[2] = {0, 0};
  std::uint64_t running_total[2] = {0, 0};
  std::vector<double> scenario_ms;
  std::uint64_t violations = 0;
  std::uint64_t setup_errors = 0;
  SpeedRef speed;

  for (std::size_t i = 0; i < blocks; ++i) {
    speed.sample();
    const bool traced = options.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.set_run(i + 1);
    Spans::Scope block_span(spans, "block");

    std::vector<std::size_t> indices(block.size);
    std::vector<chaos::ChaosSpec> specs(block.size);
    {
      Spans::Scope span(spans, "chaos.generate");
      const auto start = Clock::now();
      for (std::size_t k = 0; k < block.size; ++k) {
        indices[k] = (block.first + i * block.size + k) % block.pool;
        specs[k] = chaos::generate_scenario(sim::replica_seed(block.base, indices[k]));
      }
      setup_s.push_back(seconds_since(start));
    }

    std::vector<chaos::ChaosReport> reports(block.size);
    const auto start = Clock::now();
    for (std::size_t k = 0; k < block.size; ++k) {
      Spans::Scope span(spans, "chaos.scenario");
      const auto scenario_start = traced ? Clock::now() : start;
      reports[k] = chaos::run_scenario(specs[k]);
      if (traced) scenario_ms.push_back(seconds_since(scenario_start) * 1e3);
    }
    const double wall = seconds_since(start);
    (traced ? wall_traced : wall_untraced).push_back(wall);

    std::uint64_t running = 0;
    for (std::size_t k = 0; k < block.size; ++k) {
      const chaos::ChaosReport& r = reports[k];
      running += r.services_running;
      violations += r.violations.size();
      if (!r.setup_error.empty()) ++setup_errors;
      JsonObject()
          .add("kind", "scenario")
          .add("index", static_cast<std::uint64_t>(indices[k]))
          .add("seed", specs[k].seed)
          .add("digest", hex64(r.digest))
          .add("violations", static_cast<std::uint64_t>(r.violations.size()))
          .add("invariant",
               r.violations.empty() ? std::string() : r.violations.front().invariant)
          .add("setup_error", r.setup_error)
          .print("op");
    }
    wall_total[traced] += wall;
    running_total[traced] += running;
  }
  speed.sample();

  // Every pool block runs equally often, so the mean over the run does not
  // depend on where the seed starts it. The mean also moves smoothly with
  // the share of the run the host spends in a slow phase, where a median
  // of block times jumps between the fast and slow phases. Blocks last a
  // fraction of a second, too short for the one kernel sample beside each
  // to price it, so the whole run shares one speed scale.
  const int kind = wall_untraced.empty() ? 1 : 0;
  const std::vector<double>& wall = kind == 0 ? wall_untraced : wall_traced;
  EndToEnd host;
  host.wall_s = wall_total[kind] / static_cast<double>(wall.size());
  host.setup_s = median(setup_s);
  host.admissions_per_s = static_cast<double>(running_total[kind]) / wall_total[kind];
  const double scale = speed.scale();
  JsonObject out;
  add_end_to_end(out,
                 {host.wall_s * scale, host.setup_s * scale,
                  host.admissions_per_s / scale},
                 host, speed);
  out.add("wall_s", wall)
      .add("setup_s", setup_s)
      .add("iterations", static_cast<std::uint64_t>(wall_untraced.size() +
                                                    wall_traced.size()));
  if (options.trace) {
    // A fixed subset (the run's first scenarios) with the checker on and
    // off, interleaved; the end-state digests must agree.
    spans.set_enabled(true);
    spans.set_run(0);
    chaos::ChaosOptions unchecked;
    unchecked.check_invariants = false;
    double on_s = 0;
    double off_s = 0;
    {
      Spans::Scope span(spans, "chaos.check_overhead");
      for (std::size_t k = 0; k < kCheckSubset; ++k) {
        const chaos::ChaosSpec spec = chaos::generate_scenario(
            sim::replica_seed(block.base, (block.first + k) % block.pool));
        const auto on_start = Clock::now();
        const chaos::ChaosReport on = chaos::run_scenario(spec);
        on_s += seconds_since(on_start);
        const auto off_start = Clock::now();
        const chaos::ChaosReport off = chaos::run_scenario(spec, unchecked);
        off_s += seconds_since(off_start);
        if (on.digest != off.digest) {
          std::fprintf(stderr, "checker-off digest differs at pool index %zu\n",
                       (block.first + k) % block.pool);
          return 1;
        }
      }
    }
    JsonObject l;
    l.add("chaos.scenario_ms_p50", median(scenario_ms))
        .add("chaos.scenario_ms_p99", percentile(scenario_ms, 0.99))
        .add("chaos.check_overhead_pct", (on_s / off_s - 1.0) * 100.0)
        .add("chaos.violations", static_cast<double>(violations))
        .add("chaos.setup_errors", static_cast<double>(setup_errors))
        .add("trace_overhead_pct",
             (median(wall_traced) / median(wall_untraced) - 1.0) * 100.0);
    out.add("layers", l);
    if (!options.trace_out.empty() &&
        !spans.write_chrome_json(options.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
  }
  out.print("summary");
  return 0;
}

}  // namespace perfbench
