#include "core/recovery.hpp"

#include <algorithm>

#include "core/master.hpp"
#include "util/contract.hpp"
#include "util/log.hpp"

namespace soda::core {

RecoveryManager::RecoveryManager(sim::Engine& engine, ControlPlaneView view,
                                 PlacementPlanner& planner,
                                 PrimingCoordinator& priming,
                                 ControlPlaneBus& bus)
    : engine_(engine), view_(view), planner_(planner), priming_(priming),
      bus_(bus) {}

void RecoveryManager::enable(FailureDetectorConfig config) {
  SODA_EXPECTS(config.heartbeat_interval > sim::SimTime::zero());
  SODA_EXPECTS(config.timeout >= config.heartbeat_interval);
  config_ = config;
  enabled_ = true;
  // Wheel geometry: one bucket per heartbeat interval, spanning a little
  // more than the timeout so any deadline armed "now" lands in a bucket
  // that has not been drained yet.
  const auto granularity = static_cast<std::uint64_t>(
      config_.heartbeat_interval.ns());
  const std::size_t buckets = static_cast<std::size_t>(
      static_cast<std::uint64_t>(config_.timeout.ns()) / granularity + 2);
  wheel_.assign(buckets, {});
  deadline_.assign(view_.daemons.size(), sim::SimTime::zero());
  in_wheel_.assign(view_.daemons.size(), 0);
  const sim::SimTime now = engine_.now();
  cursor_tick_ = static_cast<std::uint64_t>(now.ns()) / granularity;
  // Every registered host counts as heard-from now, so an idle HUP does not
  // mass-expire at the first check.
  for (const SodaDaemon* daemon : view_.daemons) {
    arm_host(daemon->host_id(), now);
  }
}

void RecoveryManager::start(FailureDetectorConfig config) {
  if (!enabled_) enable(config);
  if (running_) return;
  running_ = true;
  tick_next_ = engine_.now() + config_.heartbeat_interval;
  tick_event_ =
      engine_.schedule_after(config_.heartbeat_interval, [this] { tick(); });
}

void RecoveryManager::tick() {
  if (!running_) return;
  check_once();
  tick_next_ = engine_.now() + config_.heartbeat_interval;
  tick_event_ =
      engine_.schedule_after(config_.heartbeat_interval, [this] { tick(); });
}

void RecoveryManager::rearm_tick_at(sim::SimTime when) {
  SODA_EXPECTS(running_);
  tick_next_ = when;
  tick_event_ = engine_.schedule_at(when, [this] { tick(); });
}

void RecoveryManager::save_state(snapshot::Writer& writer) const {
  writer.begin_section("recovery");
  writer.boolean(enabled_);
  writer.boolean(running_);
  writer.time(config_.heartbeat_interval);
  writer.time(config_.timeout);
  writer.u64(deadline_.size());
  for (const sim::SimTime deadline : deadline_) writer.time(deadline);
  for (const std::uint8_t hanging : in_wheel_) writer.u8(hanging);
  writer.u64(wheel_.size());
  for (const std::vector<std::uint32_t>& bucket : wheel_) {
    writer.u64(bucket.size());
    for (const std::uint32_t id : bucket) writer.u32(id);
  }
  writer.u64(cursor_tick_);
  writer.u64(host_failures_);
  writer.u64(placements_lost_);
  writer.u64(recoveries_);
  writer.end_section();
}

void RecoveryManager::load_state(snapshot::Reader& reader) {
  reader.begin_section("recovery");
  enabled_ = reader.boolean();
  running_ = reader.boolean();
  config_.heartbeat_interval = reader.time();
  config_.timeout = reader.time();
  const std::uint64_t hosts = reader.u64();
  deadline_.clear();
  in_wheel_.clear();
  for (std::uint64_t i = 0; reader.ok() && i < hosts; ++i) {
    deadline_.push_back(reader.time());
  }
  for (std::uint64_t i = 0; reader.ok() && i < hosts; ++i) {
    in_wheel_.push_back(reader.u8());
  }
  const std::uint64_t buckets = reader.u64();
  wheel_.clear();
  for (std::uint64_t i = 0; reader.ok() && i < buckets; ++i) {
    std::vector<std::uint32_t>& bucket = wheel_.emplace_back();
    const std::uint64_t entries = reader.u64();
    for (std::uint64_t j = 0; reader.ok() && j < entries; ++j) {
      bucket.push_back(reader.u32());
    }
  }
  cursor_tick_ = reader.u64();
  host_failures_ = reader.u64();
  placements_lost_ = reader.u64();
  recoveries_ = reader.u64();
  reader.end_section();
}

void RecoveryManager::on_host_registered(SodaDaemon& daemon) {
  if (!enabled_) return;
  const HostId id = daemon.host_id();
  if (id.index() >= deadline_.size()) {
    deadline_.resize(id.index() + 1, sim::SimTime::zero());
    in_wheel_.resize(id.index() + 1, 0);
  }
  arm_host(id, engine_.now());
}

std::size_t RecoveryManager::bucket_of(sim::SimTime deadline) const noexcept {
  const auto granularity = static_cast<std::uint64_t>(
      config_.heartbeat_interval.ns());
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(deadline.ns()) / granularity) %
      wheel_.size());
}

void RecoveryManager::arm_host(HostId id, sim::SimTime now) {
  deadline_[id.index()] = now + config_.timeout;
  if (in_wheel_[id.index()] != 0) return;  // bucket hint stays; deadline moved
  wheel_[bucket_of(deadline_[id.index()])].push_back(id.value);
  in_wheel_[id.index()] = 1;
}

void RecoveryManager::on_heartbeat(SodaDaemon& daemon, sim::SimTime now) {
  if (enabled_) arm_host(daemon.host_id(), now);
  if (view_.down_hosts.test(daemon.host_id())) handle_host_recovery(daemon);
}

std::size_t RecoveryManager::check_once() {
  SODA_EXPECTS(enabled_);
  const sim::SimTime now = engine_.now();
  const auto granularity = static_cast<std::uint64_t>(
      config_.heartbeat_interval.ns());
  const std::uint64_t now_tick = static_cast<std::uint64_t>(now.ns()) /
                                 granularity;
  expired_.clear();
  while (cursor_tick_ <= now_tick) {
    std::vector<std::uint32_t>& bucket = wheel_[static_cast<std::size_t>(
        cursor_tick_ % wheel_.size())];
    drain_.clear();
    drain_.swap(bucket);  // capacities ping-pong; steady state allocates none
    for (const std::uint32_t raw : drain_) {
      const HostId id{raw};
      in_wheel_[id.index()] = 0;
      if (view_.down_hosts.test(id)) continue;  // unhung until it recovers
      const sim::SimTime deadline = deadline_[id.index()];
      if (deadline <= now) {
        expired_.push_back(raw);
        continue;
      }
      // Heard from since it was hung: reinsert at the true deadline (never
      // into a tick this pass already drained).
      std::uint64_t tick = static_cast<std::uint64_t>(deadline.ns()) /
                           granularity;
      if (tick <= cursor_tick_) tick = cursor_tick_ + 1;
      wheel_[static_cast<std::size_t>(tick % wheel_.size())].push_back(raw);
      in_wheel_[id.index()] = 1;
    }
    ++cursor_tick_;
  }
  // Registration order (== HostId order), exactly how the seed's linear scan
  // declared deaths — the recovery trace is pinned to it.
  std::sort(expired_.begin(), expired_.end());
  for (const std::uint32_t raw : expired_) {
    handle_host_failure(*view_.daemons[HostId{raw}.index()]);
  }
  return expired_.size();
}

std::size_t RecoveryManager::poll_once() {
  std::size_t changed = 0;
  for (SodaDaemon* daemon : view_.daemons) {
    const bool marked_down = view_.down_hosts.test(daemon->host_id());
    if (!daemon->alive() && !marked_down) {
      handle_host_failure(*daemon);
      ++changed;
    } else if (daemon->alive() && marked_down) {
      handle_host_recovery(*daemon);
      ++changed;
    }
  }
  return changed;
}

void RecoveryManager::handle_host_failure(SodaDaemon& daemon) {
  const HostId id = daemon.host_id();
  if (view_.down_hosts.test(id)) return;
  view_.down_hosts.set(id);
  planner_.sync_host(id);
  const std::string& host = daemon.host_name();
  ++host_failures_;
  util::global_logger().warn("master", "host " + host + " declared dead");
  bus_.publish(engine_.now(), TraceKind::kHostDown, "master", host);
  // The crashed host's chunks are unreachable: purge them from the registry
  // so peers stop selecting it and fail over their in-flight transfers.
  view_.chunk_registry.remove_host(host);

  std::vector<std::string> degraded;
  view_.services.for_each([&](const std::string& name, ServiceRecord& record) {
    bool lost_any = false;
    int units_lost = 0;
    for (auto p_it = record.placements.begin();
         p_it != record.placements.end();) {
      if (p_it->daemon != &daemon) {
        ++p_it;
        continue;
      }
      lost_any = true;
      units_lost += p_it->units;
      ++placements_lost_;
      bus_.publish(engine_.now(), TraceKind::kNodeLost, "master",
                   p_it->node_name, "host " + host + " down");
      auto d_it = std::find_if(record.nodes.begin(), record.nodes.end(),
                               [&](const NodeDescriptor& d) {
                                 return d.node_name == p_it->node_name;
                               });
      if (d_it != record.nodes.end()) {
        if (record.service_switch) {
          // The backend may still be mid-priming and absent from the switch.
          (void)record.service_switch->remove_backend(d_it->address,
                                                      d_it->port);
        }
        record.nodes.erase(d_it);
      }
      p_it = record.placements.erase(p_it);
    }
    if (!lost_any) return;
    maybe_rehome_switch(record);
    if (record.lifecycle.state() == ServiceState::kRunning) {
      must(record.lifecycle.transition(ServiceState::kDegraded));
      bus_.publish(engine_.now(), TraceKind::kDegraded, "master", name,
                   std::to_string(units_lost) + " unit(s) lost with " + host);
    }
    if (record.lifecycle.state() == ServiceState::kDegraded) {
      degraded.push_back(name);
    }
  });
  for (const std::string& name : degraded) attempt_recovery(name);
}

void RecoveryManager::handle_host_recovery(SodaDaemon& daemon) {
  const HostId id = daemon.host_id();
  if (!view_.down_hosts.test(id)) return;
  view_.down_hosts.reset(id);
  planner_.sync_host(id);
  if (enabled_) arm_host(id, engine_.now());
  util::global_logger().info("master",
                             "host " + daemon.host_name() + " is back");
  bus_.publish(engine_.now(), TraceKind::kHostUp, "master", daemon.host_name());
  // The returned capacity may complete recoveries that were stuck short.
  std::vector<std::string> degraded;
  view_.services.for_each(
      [&](const std::string& name, const ServiceRecord& record) {
        if (record.lifecycle.state() == ServiceState::kDegraded) {
          degraded.push_back(name);
        }
      });
  for (const std::string& name : degraded) attempt_recovery(name);
}

std::size_t RecoveryManager::retry_recoveries() {
  std::vector<std::string> degraded;
  view_.services.for_each(
      [&](const std::string& name, const ServiceRecord& record) {
        if (record.lifecycle.state() == ServiceState::kDegraded) {
          degraded.push_back(name);
        }
      });
  for (const std::string& name : degraded) attempt_recovery(name);
  return degraded.size();
}

void RecoveryManager::maybe_rehome_switch(ServiceRecord& record) {
  if (!record.service_switch || record.nodes.empty()) return;
  const net::Ipv4Address listen = record.service_switch->listen_address();
  for (const NodeDescriptor& node : record.nodes) {
    if (node.address == listen) return;  // colocation node is still alive
  }
  // Deterministic choice: the surviving node with the smallest name.
  const NodeDescriptor* front = &record.nodes.front();
  for (const NodeDescriptor& node : record.nodes) {
    if (node.node_name < front->node_name) front = &node;
  }
  record.service_switch->rehome(front->address, record.listen_port);
  bus_.publish(engine_.now(), TraceKind::kSwitchCreated, "master",
               record.service_name,
               "rehomed to " + front->address.to_string() + ":" +
                   std::to_string(record.listen_port));
}

void RecoveryManager::finish_if_restored(ServiceRecord& record) {
  // Only booted placements count toward "restored": a placement exists from
  // the moment recovery plans it, but its capacity is real only once the
  // node descriptor lands. Declaring kRunning on an in-flight placement
  // strands the service at reduced capacity if that priming later fails.
  const auto booted = [&](const Placement& p) {
    return std::any_of(record.nodes.begin(), record.nodes.end(),
                       [&](const NodeDescriptor& d) {
                         return d.node_name == p.node_name;
                       });
  };
  bool restored;
  if (!record.components.empty()) {
    restored = std::all_of(
        record.components.begin(), record.components.end(),
        [&](const image::ServiceComponent& component) {
          return std::any_of(record.placements.begin(),
                             record.placements.end(),
                             [&](const Placement& p) {
                               return p.component == component.name &&
                                      booted(p);
                             });
        });
  } else {
    int have = 0;
    for (const Placement& p : record.placements) {
      if (booted(p)) have += p.units;
    }
    restored = have >= record.requirement.n;
  }
  if (restored && record.lifecycle.state() == ServiceState::kDegraded) {
    must(record.lifecycle.transition(ServiceState::kRunning));
    ++recoveries_;
    bus_.publish(engine_.now(), TraceKind::kRecovered, "master",
                 record.service_name,
                 std::to_string(record.nodes.size()) + " node(s)");
    util::global_logger().info(
        "master", record.service_name + " recovered to full capacity");
  }
}

void RecoveryManager::attempt_recovery(const std::string& service_name) {
  ServiceRecord* found = view_.services.find(service_name);
  if (found == nullptr) return;
  ServiceRecord& record = *found;
  if (record.lifecycle.state() != ServiceState::kDegraded ||
      !record.service_switch) {
    return;
  }

  // Re-run admission for the lost capacity on the surviving hosts.
  std::vector<Placement> plan;
  if (!record.components.empty()) {
    std::vector<image::ServiceComponent> lost;
    for (const auto& component : record.components) {
      if (std::none_of(record.placements.begin(), record.placements.end(),
                       [&](const Placement& p) {
                         return p.component == component.name;
                       })) {
        lost.push_back(component);
      }
    }
    if (lost.empty()) {
      finish_if_restored(record);
      return;
    }
    auto planned = planner_.plan_components(record.requirement.m, lost);
    if (!planned.ok()) return;  // no host fits: stay degraded
    plan = std::move(planned).value();
  } else {
    const host::ResourceVector unit =
        planner_.inflated_unit(record.requirement.m);
    int have = 0;
    for (const Placement& p : record.placements) have += p.units;
    int missing = record.requirement.n - have;
    if (missing <= 0) {
      finish_if_restored(record);
      return;
    }
    planner_.for_each_preferred({}, [&](SodaDaemon& daemon) {
      const bool used = std::any_of(
          record.placements.begin(), record.placements.end(),
          [&](const Placement& p) { return p.daemon == &daemon; });
      if (used) return true;
      const int k = std::min(units_that_fit(daemon.available(), unit), missing);
      if (k >= 1) {
        plan.push_back(Placement{&daemon, "", k, ""});
        missing -= k;
      }
      return missing > 0;
    });
    // Whatever fits is re-created now; a later host-up retries the rest.
    if (plan.empty()) return;
  }

  std::vector<std::string> batch;
  batch.reserve(plan.size());
  for (Placement& placement : plan) {
    placement.node_name =
        service_name + "/" + std::to_string(record.next_ordinal++);
    batch.push_back(placement.node_name);
    record.placements.push_back(placement);
  }
  util::global_logger().info(
      "master", "recovering " + service_name + ": re-priming " +
                    std::to_string(plan.size()) + " node(s)");

  PrimeSpec spec;
  spec.service_name = service_name;
  spec.location = record.image_location;
  spec.unit = record.requirement.m;
  spec.inflated_unit = planner_.inflated_unit(record.requirement.m);
  spec.listen_port = record.listen_port;
  spec.components = &record.components;
  spec.customize_rootfs = record.customize_rootfs;
  spec.address_mode = record.address_mode;
  priming_.prime(
      std::move(plan), spec,
      [this, name = service_name](vm::VirtualServiceNode& node,
                                  sim::SimTime) {
        ServiceRecord* rec = view_.services.find(name);
        if (rec == nullptr) return;  // torn down meanwhile
        const NodeDescriptor descriptor = describe_node(node, rec->listen_port);
        must(rec->service_switch->add_backend(BackEndEntry{
            descriptor.address, descriptor.port, descriptor.capacity_units,
            descriptor.component}));
        rec->nodes.push_back(descriptor);
      },
      [this, name = service_name, batch = std::move(batch)](
          const PrimingCoordinator::Outcome& outcome, sim::SimTime) {
        ServiceRecord* rec = view_.services.find(name);
        if (rec == nullptr) return;  // torn down meanwhile
        if (outcome.failed) {
          // Drop this batch's placements whose re-priming never produced a
          // node; the service stays degraded with whatever did come up.
          // Only this batch's names: a concurrent recovery attempt (crash,
          // recover, crash again) may still be priming its own placements,
          // and those legitimately have no node yet.
          auto& placements = rec->placements;
          placements.erase(
              std::remove_if(placements.begin(), placements.end(),
                             [&](const Placement& p) {
                               return std::find(batch.begin(), batch.end(),
                                                p.node_name) != batch.end() &&
                                      std::none_of(
                                          rec->nodes.begin(), rec->nodes.end(),
                                          [&](const NodeDescriptor& d) {
                                            return d.node_name == p.node_name;
                                          });
                             }),
              placements.end());
          util::global_logger().warn(
              "master", name + " recovery incomplete: " + outcome.first_error);
        }
        maybe_rehome_switch(*rec);
        finish_if_restored(*rec);
      });
}

}  // namespace soda::core
