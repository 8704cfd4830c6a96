// The discrete-event engine driving every SODA experiment. Components
// schedule callbacks against the engine's clock; run() fires them in time
// order. Execution is single-threaded and all model state is engine-owned;
// determinism matters more than wall-clock speed for a reproduction harness.
// Parallelism lives one layer up: sim/parallel_runner.hpp runs one Engine
// per worker across independent replicas, bit-identical to a serial loop
// (DESIGN.md §6).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/contract.hpp"

namespace soda::sim {

/// Discrete-event simulation engine, driven from one thread.
class Engine {
 public:
  /// Kept for call sites that store callbacks before scheduling them; the
  /// schedule methods accept any `void()` callable directly (captures up to
  /// InlineCallback::kInlineCapacity bytes are stored without allocating).
  using Callback = std::function<void()>;

  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `callback` to run `delay` after the current time.
  template <typename F>
  EventId schedule_after(SimTime delay, F&& callback) {
    SODA_EXPECTS(delay >= SimTime::zero());
    return queue_.schedule(now_ + delay, std::forward<F>(callback));
  }

  /// Schedules `callback` at absolute time `when` (must be >= now()).
  template <typename F>
  EventId schedule_at(SimTime when, F&& callback) {
    SODA_EXPECTS(when >= now_);
    return queue_.schedule(when, std::forward<F>(callback));
  }

  /// Cancels a pending event; returns false if it already fired.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Runs until no events remain. Returns the number of events fired.
  std::uint64_t run();

  /// Runs until the clock passes `deadline` (events at exactly `deadline`
  /// still fire) or no events remain. Returns the number of events fired.
  std::uint64_t run_until(SimTime deadline);

  /// Requests that run()/run_until() return after the current event.
  void stop() noexcept { stop_requested_ = true; }

  /// Number of pending events.
  [[nodiscard]] std::size_t pending() const noexcept { return queue_.size(); }

  /// Heap sequence of a pending event (0 for stale ids) — checkpoint
  /// save-path only; see EventQueue::seq_of.
  [[nodiscard]] std::uint32_t event_seq(EventId id) const noexcept {
    return queue_.seq_of(id);
  }

  /// Restores the clock from a checkpoint. Only legal while no events are
  /// pending: restored timers are re-armed against the restored clock
  /// afterwards, so nothing scheduled against the old clock may survive.
  void restore_clock(SimTime now) {
    SODA_EXPECTS(queue_.empty());
    now_ = now;
  }

 private:
  SimTime now_ = SimTime::zero();
  EventQueue queue_;
  bool stop_requested_ = false;
};

}  // namespace soda::sim
