// A reusable pool of parked worker threads for index-space fan-out.
// sim/parallel_runner.hpp fans whole replicas across it (DESIGN.md §6).
// Threads are spawned once and parked on a condition variable between jobs,
// so per-dispatch cost is a wake + a join instead of thread creation — a
// sweep that calls ParallelRunner::run repeatedly reuses the same threads.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace soda::sim {

/// Fixed-size pool executing `job(i)` for i in [0, n). The calling thread
/// participates, so a pool of `threads` runs `threads` lanes total with
/// `threads - 1` parked std::threads. Not reentrant: one dispatch at a time
/// per pool, so a job that fans out again needs a pool of its own.
class WorkerPool {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency(); 1 spawns no
  /// threads and runs jobs as a plain serial loop on the caller.
  explicit WorkerPool(std::size_t threads = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  [[nodiscard]] std::size_t thread_count() const noexcept { return threads_; }

  /// Runs job(i) for every i in [0, n); blocks until all complete. Workers
  /// pull indices from a shared atomic counter (dynamic stealing), so uneven
  /// per-index cost balances automatically. The first exception thrown by a
  /// job is rethrown on the calling thread after the remaining lanes drain.
  template <typename F>
  void run(std::size_t n, F&& job) {
    IndexJob erased{&job, [](void* context, std::size_t index) {
                      (*static_cast<std::remove_reference_t<F>*>(context))(index);
                    }};
    dispatch(n, erased);
  }

  /// Type-erased form of run() for non-template call sites.
  struct IndexJob {
    void* context;
    void (*invoke)(void* context, std::size_t index);
  };
  void dispatch(std::size_t n, const IndexJob& job);

 private:
  void worker_main();
  void pull(const IndexJob& job, std::size_t n) noexcept;

  std::size_t threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers park here between jobs
  std::condition_variable done_cv_;   // the caller parks here during a job
  IndexJob job_{nullptr, nullptr};    // guarded by mutex_ at hand-off
  std::size_t job_n_ = 0;
  std::uint64_t epoch_ = 0;           // bumped per dispatch; wakes workers
  std::size_t running_ = 0;           // workers still inside the current job
  bool shutdown_ = false;
  std::exception_ptr failure_;        // first job exception, guarded by mutex_
  std::atomic<std::size_t> next_{0};  // shared index cursor
};

}  // namespace soda::sim
