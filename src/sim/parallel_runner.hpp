// Fans independent simulation replicas / sweep points out across a thread
// pool. This layer exploits the embarrassing parallelism *between* runs:
// each worker drives its own Engine, seeds derive deterministically from the
// replica index, and results land in a replica-indexed vector — so the
// merged output is bit-identical to a serial loop no matter how the OS
// schedules the workers. A single run stays on one thread (sim/engine.hpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/worker_pool.hpp"

namespace soda::sim {

/// Derives the RNG seed for replica `index` from `base_seed`. A splitmix64
/// step keeps neighbouring replicas statistically independent while staying
/// identical across serial and parallel execution orders.
[[nodiscard]] std::uint64_t replica_seed(std::uint64_t base_seed,
                                         std::size_t index) noexcept;

/// Runs `job(i)` for i in [0, n) across worker threads. Jobs must be
/// independent (each owns its Engine/Rng/stats); the runner guarantees
/// deterministic merge order, not deterministic execution order.
class ParallelRunner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency(). One worker
  /// degenerates to a plain serial loop on the calling thread — handy for
  /// serial-vs-parallel equivalence checks.
  explicit ParallelRunner(std::size_t threads = 0);

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

  /// Invokes job(i) for every i in [0, n); blocks until all complete. The
  /// first exception thrown by a job is rethrown on the calling thread after
  /// the remaining workers drain.
  template <typename F>
  void run(std::size_t n, F&& job) const {
    run_dynamic(n, [&job](std::size_t i) { job(i); });
  }

  /// Like run(), but collects each job's return value; out[i] == job(i)
  /// exactly as a serial loop would produce.
  template <typename F>
  auto map(std::size_t n, F&& job) const
      -> std::vector<decltype(job(std::size_t{0}))> {
    using R = decltype(job(std::size_t{0}));
    std::vector<std::optional<R>> staged(n);
    run_dynamic(n, [&](std::size_t i) { staged[i].emplace(job(i)); });
    std::vector<R> out;
    out.reserve(n);
    for (auto& slot : staged) out.push_back(std::move(*slot));
    return out;
  }

 private:
  void dispatch(std::size_t n, const WorkerPool::IndexJob& job) const;

  template <typename F>
  void run_dynamic(std::size_t n, F&& job) const {
    WorkerPool::IndexJob erased{
        &job, [](void* context, std::size_t index) {
          (*static_cast<std::remove_reference_t<F>*>(context))(index);
        }};
    dispatch(n, erased);
  }

  std::size_t threads_;
  /// Workers are spawned once and parked between dispatches (WorkerPool);
  /// the seed design created fresh std::threads per run() call. Null when
  /// threads_ == 1 — the serial case never pays for a pool. Mutable because
  /// run()/map() are logically const (they only fan out the caller's job)
  /// but waking the pool mutates its hand-off state; dispatches on one
  /// runner must not overlap (they never did — run() blocks).
  mutable std::unique_ptr<WorkerPool> pool_;
};

}  // namespace soda::sim
