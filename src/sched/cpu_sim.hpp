// Quantum-level CPU simulator: runs a set of threads with distinct demand
// patterns under a pluggable scheduler and records per-service CPU shares
// over fixed windows. This reproduces the mechanism behind Figure 5 — the
// contrast between unmodified Linux and SODA's proportional-share host OS.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace soda::sched {

/// How a thread consumes CPU.
enum class DemandKind {
  kCpuBound,  // infinite loop of dummy arithmetic (the paper's `comp` node)
  kIoCycle,   // run `run_burst`, block `block_time` (the `log` node's writes)
};

/// A thread's demand pattern. A kCpuBound thread ignores the burst fields.
struct DemandPattern {
  DemandKind kind = DemandKind::kCpuBound;
  sim::SimTime run_burst = sim::SimTime::milliseconds(3);
  sim::SimTime block_time = sim::SimTime::milliseconds(1);

  static DemandPattern cpu_bound() { return DemandPattern{}; }
  static DemandPattern io_cycle(sim::SimTime run, sim::SimTime block) {
    return DemandPattern{DemandKind::kIoCycle, run, block};
  }
};

/// Result of a simulation run: per-service share time series plus totals.
struct CpuSimResult {
  /// Per-uid series of (window end time, share in [0,1]).
  std::map<std::string, sim::TimeSeries> shares;
  /// Per-uid total CPU seconds used.
  std::map<std::string, double> total_cpu_s;
  /// Fraction of the run the CPU was idle.
  double idle_fraction = 0;

  friend bool operator==(const CpuSimResult&, const CpuSimResult&) = default;
};

/// Drives one CPU under a scheduling policy. Deterministic given the policy.
class CpuSimulator {
 public:
  /// `quantum` is the time slice granted per pick (Linux 2.4-ish: 10 ms).
  explicit CpuSimulator(std::unique_ptr<CpuScheduler> scheduler,
                        sim::SimTime quantum = sim::SimTime::milliseconds(10));

  /// Adds a thread belonging to service `uid`; it is runnable immediately.
  ThreadId add_thread(const std::string& uid, DemandPattern pattern);

  /// Sets a service's CPU weight (service-aware policies only).
  void set_weight(const std::string& uid, double weight);

  /// Simulates `duration`, sampling shares every `window`.
  CpuSimResult run(sim::SimTime duration,
                   sim::SimTime window = sim::SimTime::seconds(1.0));

  [[nodiscard]] const CpuScheduler& scheduler() const noexcept { return *scheduler_; }

 private:
  struct Thread {
    ThreadId id;
    std::string uid;
    DemandPattern pattern;
    bool runnable = true;
    sim::SimTime wake_at;            // when blocked: wake time
    sim::SimTime burst_remaining;    // for kIoCycle
  };

  std::unique_ptr<CpuScheduler> scheduler_;
  sim::SimTime quantum_;
  std::vector<Thread> threads_;
};

}  // namespace soda::sched
