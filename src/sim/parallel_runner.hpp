// Fans independent simulation replicas / sweep points out across threads.
// This layer exploits the embarrassing parallelism *between* runs: each lane
// drives its own Engine, seeds derive deterministically from the replica
// index, and results land in a replica-indexed vector — so the merged output
// is bit-identical to a serial loop no matter how the OS schedules the
// lanes. A single run stays on one thread (sim/engine.hpp).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace soda::sim {

/// Derives the RNG seed for replica `index` from `base_seed`. A splitmix64
/// step keeps neighbouring replicas statistically independent while staying
/// identical across serial and parallel execution orders.
[[nodiscard]] std::uint64_t replica_seed(std::uint64_t base_seed,
                                         std::size_t index) noexcept;

/// Runs `job(i)` for i in [0, n) across threads. Jobs must be independent
/// (each owns its Engine/Rng/stats); the runner guarantees deterministic
/// merge order, not deterministic execution order.
class ParallelRunner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency(). One thread
  /// degenerates to a plain serial loop on the calling thread — handy for
  /// serial-vs-parallel equivalence checks.
  explicit ParallelRunner(std::size_t threads = 0);

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

  /// Returns out[i] == job(i) for every i in [0, n), exactly as a serial
  /// loop would. Each call spawns min(threads, n) - 1 std::threads and the
  /// caller takes a lane too; lanes pull indices from one atomic cursor, so
  /// uneven per-index cost balances itself. The first exception thrown by a
  /// job is rethrown on the calling thread once every other index has run
  /// and every lane has joined.
  template <typename F>
  auto map(std::size_t n, F&& job) const
      -> std::vector<decltype(job(std::size_t{0}))> {
    using R = decltype(job(std::size_t{0}));
    std::vector<std::optional<R>> staged(n);
    std::atomic<std::size_t> next{0};
    std::mutex failure_mutex;
    std::exception_ptr failure;
    const auto lane = [&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        try {
          staged[i].emplace(job(i));
        } catch (...) {
          std::lock_guard lock(failure_mutex);
          if (!failure) failure = std::current_exception();
        }
      }
    };
    {
      std::vector<std::jthread> lanes;
      for (std::size_t t = 1; t < std::min(threads_, n); ++t) {
        lanes.emplace_back(lane);
      }
      lane();
    }  // jthreads join here
    if (failure) std::rethrow_exception(failure);
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : staged) out.push_back(std::move(*slot));
    return out;
  }

 private:
  std::size_t threads_;
};

}  // namespace soda::sim
