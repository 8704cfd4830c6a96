#include "core/events.hpp"

#include <algorithm>

namespace soda::core {

MetricsRegistry::MetricsRegistry() {
  for (const char* name :
       {"admissions", "rejections", "primings", "priming_failures", "boots",
        "services_started", "resizes", "teardowns", "failures",
        "host_recoveries", "placements_lost", "recoveries"}) {
    counters_[name] = 0;
  }
}

double MetricsRegistry::value(const std::string& name) const {
  if (auto it = counters_.find(name); it != counters_.end()) {
    return static_cast<double>(it->second);
  }
  if (auto it = gauges_.find(name); it != gauges_.end()) return it->second();
  return 0.0;
}

bool MetricsRegistry::has(const std::string& name) const {
  return counters_.count(name) > 0 || gauges_.count(name) > 0;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size());
  for (const auto& [name, count] : counters_) out.push_back(name);
  for (const auto& [name, read] : gauges_) {
    if (counters_.count(name) == 0) out.push_back(name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void MetricsRegistry::observe(const TraceEvent& event) {
  switch (event.kind) {
    case TraceKind::kAdmitted:       increment("admissions"); break;
    case TraceKind::kRejected:       increment("rejections"); break;
    case TraceKind::kPrimingStarted: increment("primings"); break;
    case TraceKind::kPrimingFailed:  increment("priming_failures"); break;
    case TraceKind::kNodeBooted:     increment("boots"); break;
    case TraceKind::kServiceRunning: increment("services_started"); break;
    case TraceKind::kResized:        increment("resizes"); break;
    case TraceKind::kTornDown:       increment("teardowns"); break;
    case TraceKind::kHostDown:       increment("failures"); break;
    case TraceKind::kHostUp:         increment("host_recoveries"); break;
    case TraceKind::kNodeLost:       increment("placements_lost"); break;
    case TraceKind::kRecovered:      increment("recoveries"); break;
    default: break;
  }
}

std::size_t ControlPlaneBus::subscribe(Subscriber subscriber) {
  const std::size_t id = next_id_++;
  subscribers_.emplace_back(id, std::move(subscriber));
  return id;
}

void ControlPlaneBus::unsubscribe(std::size_t id) {
  subscribers_.erase(
      std::remove_if(subscribers_.begin(), subscribers_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      subscribers_.end());
}

void ControlPlaneBus::publish(sim::SimTime at, TraceKind kind,
                              std::string actor, std::string subject,
                              std::string detail) {
  ++published_;
  TraceEvent local{at, kind, std::move(actor), std::move(subject),
                   std::move(detail)};
  // The trace keeps the one copy. Appending to a deque never moves the
  // elements it holds, so the reference survives nested publishes short of
  // a whole trace capacity of them evicting it.
  const TraceEvent& event = trace_ ? trace_->record(std::move(local)) : local;
  metrics_.observe(event);
  for (const auto& [id, subscriber] : subscribers_) subscriber(event);
}

}  // namespace soda::core
