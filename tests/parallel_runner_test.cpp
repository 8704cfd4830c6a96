// Tests for the parallel experiment runner: replica-seed determinism, the
// parallel == serial merge contract (the whole point of the design — fanning
// replicas across threads must not change a single bit of the merged
// output), exception propagation, and reuse of one runner across calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/engine.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace soda::sim {
namespace {

TEST(ReplicaSeed, DeterministicAndDistinct) {
  EXPECT_EQ(replica_seed(42, 0), replica_seed(42, 0));
  EXPECT_NE(replica_seed(42, 0), replica_seed(42, 1));
  EXPECT_NE(replica_seed(42, 0), replica_seed(43, 0));
  // Neighbouring replicas must not collide across a realistic sweep width.
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 1000; ++i) seeds.push_back(replica_seed(7, i));
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

TEST(ParallelRunner, MapVisitsEveryIndexExactlyOnce) {
  ParallelRunner runner(4);
  constexpr std::size_t kJobs = 1000;
  std::vector<std::atomic<int>> visits(kJobs);
  const auto indices = runner.map(kJobs, [&](std::size_t i) {
    ++visits[i];
    return i;
  });
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(visits[i].load(), 1);
    EXPECT_EQ(indices[i], i);
  }
}

// One replica = one Engine + one Rng; the sum-of-samples statistic depends
// on every event that ran, so any cross-replica interference or seed drift
// changes it.
std::uint64_t run_replica(std::size_t index) {
  Engine engine;
  Rng rng(replica_seed(0x50da, index));
  std::uint64_t sum = 0;
  for (int i = 0; i < 200; ++i) {
    engine.schedule_at(SimTime::nanoseconds(rng.uniform_int(0, 1000)),
                       [&sum, &rng] {
                         sum += static_cast<std::uint64_t>(
                             rng.uniform_int(0, 1 << 20));
                       });
  }
  engine.run();
  return sum;
}

TEST(ParallelRunner, MapMatchesSerialBitForBit) {
  constexpr std::size_t kReplicas = 32;
  std::vector<std::uint64_t> serial;
  for (std::size_t i = 0; i < kReplicas; ++i) serial.push_back(run_replica(i));

  for (std::size_t threads : {1u, 2u, 8u}) {
    ParallelRunner runner(threads);
    const auto parallel = runner.map(kReplicas, run_replica);
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
}

TEST(ParallelRunner, OneWorkerRunsOnCallingThread) {
  ParallelRunner runner(1);
  EXPECT_EQ(runner.thread_count(), 1u);
  const auto caller = std::this_thread::get_id();
  const auto ids =
      runner.map(4, [](std::size_t) { return std::this_thread::get_id(); });
  for (const auto id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelRunner, FirstExceptionPropagatesAfterDraining) {
  ParallelRunner runner(4);
  std::atomic<int> completed{0};
  try {
    (void)runner.map(100, [&](std::size_t i) {
      if (i == 17) throw std::runtime_error("replica 17 failed");
      return ++completed;
    });
    FAIL() << "expected the job's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "replica 17 failed");
  }
  // Every other index ran and every lane joined before the rethrow.
  EXPECT_EQ(completed.load(), 99);
}

TEST(ParallelRunner, RunnerIsReusableAcrossCalls) {
  const ParallelRunner runner(3);
  std::uint64_t sum = 0;
  for (int round = 0; round < 50; ++round) {
    for (const std::size_t i : runner.map(64, [](std::size_t i) { return i; })) {
      sum += i;
    }
  }
  EXPECT_EQ(sum, 50ull * (64 * 63) / 2);
}

TEST(ParallelRunner, RunnerSurvivesAThrowingCall) {
  const ParallelRunner runner(2);
  EXPECT_THROW((void)runner.map(16,
                                [](std::size_t i) {
                                  if (i == 7) throw std::runtime_error("boom");
                                  return i;
                                }),
               std::runtime_error);
  EXPECT_EQ(runner.map(8, [](std::size_t i) { return i; }).size(), 8u);
}

}  // namespace
}  // namespace soda::sim
