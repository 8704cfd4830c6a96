#include "sim/engine.hpp"

#include "util/contract.hpp"

namespace soda::sim {

std::uint64_t Engine::run() { return run_until(SimTime::max()); }

std::uint64_t Engine::run_until(SimTime deadline) {
  stop_requested_ = false;
  std::uint64_t fired = 0;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.next_time() > deadline) break;
    auto event = queue_.pop();
    SODA_ENSURES(event.time >= now_);
    now_ = event.time;
    event.callback();
    ++fired;
  }
  // When stopping at a deadline with events still pending, advance the clock
  // so back-to-back run_until calls observe monotonic time.
  if (now_ < deadline && deadline < SimTime::max()) now_ = deadline;
  return fired;
}

}  // namespace soda::sim
