// What every fig bench shares: its command line, and the check that a sweep
// fanned out over sim::ParallelRunner reproduces the serial sweep exactly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string_view>
#include <vector>

#include "sim/parallel_runner.hpp"
#include "util/strings.hpp"

namespace soda::bench {

/// A bench's parsed command line: `--ci` shrinks the run to CI scale, and
/// the benches that take one accept a positional seed count.
struct ProgramArgs {
  bool ci = false;
  std::size_t seeds = 0;  // 0 = not given
};

/// Largest positional seed count, 500x fig_chaos's default sweep. The
/// serial and the parallel sweep each keep one report per seed in memory,
/// so the count read from the command line needs a bound.
constexpr long long kMaxSeeds = 1'000'000;

/// Parses argv. Anything but `--ci` and, when `takes_seeds`, one seed count
/// in 1..kMaxSeeds prints usage to stderr and exits 2.
inline ProgramArgs parse_args(int argc, char** argv, bool takes_seeds = false) {
  ProgramArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--ci") {
      args.ci = true;
      continue;
    }
    const auto seeds = util::parse_int(arg);
    if (takes_seeds && args.seeds == 0 && seeds && *seeds >= 1 &&
        *seeds <= kMaxSeeds) {
      args.seeds = static_cast<std::size_t>(*seeds);
      continue;
    }
    std::fprintf(stderr, "%s: unexpected argument '%s'\nusage: %s [--ci]",
                 argv[0], argv[i], argv[0]);
    if (takes_seeds) std::fprintf(stderr, " [SEEDS in 1..%lld]", kMaxSeeds);
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return args;
}

/// The outcome of serial_vs_parallel(): the serial run's results and how
/// the parallel run compared.
template <typename R>
struct SweepCheck {
  std::vector<R> results;
  double serial_s = 0;
  double parallel_s = 0;
  std::size_t threads = 0;
  bool identical = false;
};

/// Runs job(0..n) once as a timed serial loop and once timed over a
/// sim::ParallelRunner of `threads` lanes (0 = hardware concurrency), and
/// reports whether same(serial[i], parallel[i]) holds for every i.
template <typename F, typename Same = std::equal_to<>>
auto serial_vs_parallel(std::size_t n, F&& job, Same same = {},
                        std::size_t threads = 0)
    -> SweepCheck<decltype(job(std::size_t{0}))> {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  SweepCheck<decltype(job(std::size_t{0}))> check;
  check.results.reserve(n);
  auto start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) check.results.push_back(job(i));
  check.serial_s = seconds_since(start);

  const sim::ParallelRunner runner(threads);
  check.threads = runner.thread_count();
  start = Clock::now();
  const auto parallel = runner.map(n, job);
  check.parallel_s = seconds_since(start);
  check.identical = std::equal(check.results.begin(), check.results.end(),
                               parallel.begin(), parallel.end(), same);
  return check;
}

}  // namespace soda::bench
