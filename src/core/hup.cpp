#include "core/hup.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace soda::core {

Hup::Hup(MasterConfig master_config, LanConfig lan)
    : owned_engine_(std::make_unique<sim::Engine>()),
      owned_network_(std::make_unique<net::FlowNetwork>(*owned_engine_)),
      engine_(owned_engine_.get()),
      network_(owned_network_.get()),
      lan_(lan) {
  lan_switch_ = network_->add_node("lan-switch");
  trace_ = std::make_unique<TraceLog>();
  master_ = std::make_unique<SodaMaster>(*engine_, master_config);
  agent_ = std::make_unique<SodaAgent>(*engine_, *master_);
  master_->set_trace(trace_.get());
  agent_->set_trace(trace_.get());
}

Hup::Hup(sim::Engine& engine, net::FlowNetwork& network, std::string site_name,
         MasterConfig master_config, LanConfig lan)
    : engine_(&engine), network_(&network), lan_(lan) {
  lan_switch_ = network_->add_node(site_name + "/lan-switch");
  trace_ = std::make_unique<TraceLog>();
  master_ = std::make_unique<SodaMaster>(*engine_, master_config);
  agent_ = std::make_unique<SodaAgent>(*engine_, *master_);
  master_->set_trace(trace_.get());
  agent_->set_trace(trace_.get());
}

host::HupHost& Hup::add_host(host::HostSpec spec, net::Ipv4Address pool_start,
                             std::size_t pool_size) {
  SODA_EXPECTS(hosts_.count(spec.name) == 0);
  const net::NodeId lan_node = network_->add_node(spec.name);
  const auto uplink =
      network_->add_duplex_link(lan_node, lan_switch_, spec.nic_mbps, lan_.latency);

  HostBundle bundle;
  bundle.uplink = uplink;
  bundle.uplink_mbps = spec.nic_mbps;
  bundle.host = std::make_unique<host::HupHost>(
      spec, lan_node, net::IpPool(pool_start, pool_size));
  bundle.shaper = std::make_unique<net::TrafficShaper>(*network_);
  bundle.daemon = std::make_unique<SodaDaemon>(*engine_, *network_, *bundle.host,
                                               *bundle.shaper);
  bundle.daemon->set_trace(trace_.get());
  must(master_->register_daemon(bundle.daemon.get()));
  auto [it, inserted] = hosts_.emplace(spec.name, std::move(bundle));
  SODA_ENSURES(inserted);
  return *it->second.host;
}

image::ImageRepository& Hup::add_repository(const std::string& name) {
  const net::NodeId node = network_->add_node(name);
  network_->add_duplex_link(node, lan_switch_, lan_.mbps, lan_.latency);
  repositories_.push_back(std::make_unique<image::ImageRepository>(name, node));
  master_->register_repository(repositories_.back().get());
  return *repositories_.back();
}

net::NodeId Hup::add_client(const std::string& name) {
  const net::NodeId node = network_->add_node(name);
  network_->add_duplex_link(node, lan_switch_, lan_.mbps, lan_.latency);
  return node;
}

HealthMonitor& Hup::health_monitor() {
  if (!monitor_) monitor_ = std::make_unique<HealthMonitor>(*engine_, *master_);
  return *monitor_;
}

host::HupHost* Hup::find_host(const std::string& name) {
  auto it = hosts_.find(name);
  return it == hosts_.end() ? nullptr : it->second.host.get();
}

SodaDaemon* Hup::find_daemon(const std::string& host_name) {
  auto it = hosts_.find(host_name);
  return it == hosts_.end() ? nullptr : it->second.daemon.get();
}

net::TrafficShaper* Hup::find_shaper(const std::string& host_name) {
  auto it = hosts_.find(host_name);
  return it == hosts_.end() ? nullptr : it->second.shaper.get();
}

void Hup::enable_failure_detection(FailureDetectorConfig config) {
  master_->start_failure_detector(config);
  for (auto& [name, bundle] : hosts_) {
    bundle.daemon->start_heartbeat(
        config.heartbeat_interval,
        [this](SodaDaemon& daemon, sim::SimTime now) {
          master_->on_heartbeat(daemon, now);
        });
  }
}

void Hup::crash_host(const std::string& host_name) {
  if (SodaDaemon* daemon = find_daemon(host_name)) daemon->crash_host();
}

void Hup::recover_host(const std::string& host_name) {
  if (SodaDaemon* daemon = find_daemon(host_name)) daemon->recover();
}

void Hup::scale_host_uplink(const std::string& host_name, double factor) {
  SODA_EXPECTS(factor > 0);
  auto it = hosts_.find(host_name);
  if (it == hosts_.end()) return;
  const HostBundle& bundle = it->second;
  network_->set_link_capacity(bundle.uplink.first, bundle.uplink_mbps * factor);
  network_->set_link_capacity(bundle.uplink.second, bundle.uplink_mbps * factor);
}

namespace {

/// One re-armable pending event, as carried in the checkpoint's timers
/// section. Kind tells the restorer which owner to re-arm through.
struct TimerRecord {
  enum Kind : std::uint8_t { kHeartbeat = 0, kDetector = 1, kMonitor = 2 };
  std::uint8_t kind = kHeartbeat;
  std::string owner;  // daemon host name for heartbeats, empty otherwise
  sim::SimTime when;
  /// Live heap sequence at save time. Records are WRITTEN sorted by it and
  /// the raw value is dropped — absolute seqs differ between an original
  /// and a restored engine, so embedding them would break the bit-identical
  /// digest gate. File order alone carries the re-arm order.
  std::uint64_t seq = 0;
};

}  // namespace

Status Hup::save_state(snapshot::Writer& writer) const {
  // Collect the re-armable timers first: the quiesce gate is that they
  // account for every pending engine event — anything else (an in-flight
  // download, boot, or request) cannot be re-created from a checkpoint.
  std::vector<TimerRecord> timers;
  for (const SodaDaemon* daemon : master_->daemons()) {
    if (!daemon->heartbeating()) continue;
    timers.push_back({TimerRecord::kHeartbeat, daemon->host_name(),
                      daemon->heartbeat_next(),
                      engine_->event_seq(daemon->heartbeat_event())});
  }
  const RecoveryManager& recovery = master_->recovery();
  if (recovery.running()) {
    timers.push_back({TimerRecord::kDetector, "", recovery.tick_next(),
                      engine_->event_seq(recovery.tick_event())});
  }
  if (monitor_ && monitor_->running()) {
    timers.push_back({TimerRecord::kMonitor, "", monitor_->tick_next(),
                      engine_->event_seq(monitor_->tick_event())});
  }
  if (timers.size() != engine_->pending()) {
    return Error{"world not quiesced: " + std::to_string(engine_->pending()) +
                 " pending events, " + std::to_string(timers.size()) +
                 " re-armable timers"};
  }
  for (const TimerRecord& timer : timers) {
    if (timer.seq == 0) {
      return Error{"stale timer event id for '" + timer.owner +
                   "' (kind " + std::to_string(timer.kind) + ")"};
    }
  }
  // Same-time events must re-fire in their saved heap order: emit the
  // records sorted by live seq, so file order IS the re-arm order.
  std::sort(timers.begin(), timers.end(),
            [](const TimerRecord& a, const TimerRecord& b) {
              return a.seq < b.seq;
            });

  writer.begin_section("hup");
  writer.f64(lan_.mbps);
  writer.time(lan_.latency);
  writer.time(engine_->now());
  network_->save_state(writer);
  writer.u64(lan_switch_.value);
  trace_->save_state(writer);
  // Hosts in daemon-registration order, so restore re-attaches them into
  // the same dense HostId space.
  writer.u64(master_->daemons().size());
  for (const SodaDaemon* daemon : master_->daemons()) {
    const auto it = hosts_.find(daemon->host_name());
    SODA_EXPECTS(it != hosts_.end());
    const HostBundle& bundle = it->second;
    const host::HostSpec& spec = bundle.host->spec();
    writer.str(spec.name);
    writer.f64(spec.cpu_ghz);
    writer.i64(spec.ram_mb);
    writer.i64(spec.disk_gb);
    writer.f64(spec.nic_mbps);
    writer.f64(spec.disk_mb_s);
    writer.f64(spec.ramdisk_mb_s);
    writer.u64(bundle.host->lan_node().value);
    writer.u32(bundle.host->ip_pool().first().value());
    writer.u64(bundle.host->ip_pool().capacity());
    writer.u64(bundle.uplink.first.value);
    writer.u64(bundle.uplink.second.value);
    writer.f64(bundle.uplink_mbps);
    bundle.host->save_state(writer);
    bundle.shaper->save_state(writer);
    bundle.daemon->save_state(writer);
  }
  writer.u64(repositories_.size());
  for (const auto& repository : repositories_) {
    writer.str(repository->name());
    writer.u64(repository->node().value);
    repository->save_state(writer);
  }
  master_->save_state(writer);
  agent_->save_state(writer);
  writer.boolean(monitor_ != nullptr);
  if (monitor_) monitor_->save_state(writer);
  writer.begin_section("timers");
  writer.u64(timers.size());
  for (const TimerRecord& timer : timers) {
    writer.u8(timer.kind);
    writer.str(timer.owner);
    writer.time(timer.when);
  }
  writer.end_section();
  writer.end_section();
  return {};
}

void Hup::load_state(snapshot::Reader& reader) {
  reader.begin_section("hup");
  const double lan_mbps = reader.f64();
  const sim::SimTime lan_latency = reader.time();
  if (reader.ok() && (lan_mbps != lan_.mbps || lan_latency != lan_.latency)) {
    reader.fail("lan config mismatch");
    return;
  }
  const sim::SimTime saved_now = reader.time();
  if (reader.ok() && (!hosts_.empty() || !repositories_.empty() ||
                      engine_->pending() != 0)) {
    reader.fail("restore target is not a fresh world");
    return;
  }
  network_->load_state(reader);
  lan_switch_ = net::NodeId{static_cast<std::size_t>(reader.u64())};
  trace_->load_state(reader);
  const std::uint64_t host_count = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < host_count; ++i) {
    host::HostSpec spec;
    spec.name = reader.str();
    spec.cpu_ghz = reader.f64();
    spec.ram_mb = reader.i64();
    spec.disk_gb = reader.i64();
    spec.nic_mbps = reader.f64();
    spec.disk_mb_s = reader.f64();
    spec.ramdisk_mb_s = reader.f64();
    const net::NodeId lan_node{static_cast<std::size_t>(reader.u64())};
    const net::Ipv4Address pool_start{reader.u32()};
    const auto pool_size = static_cast<std::size_t>(reader.u64());
    const net::LinkId uplink_out{static_cast<std::size_t>(reader.u64())};
    const net::LinkId uplink_in{static_cast<std::size_t>(reader.u64())};
    const double uplink_mbps = reader.f64();
    if (!reader.ok()) return;
    if (hosts_.count(spec.name) != 0) {
      reader.fail("duplicate host " + spec.name);
      return;
    }
    // The bundle is owned by hosts_ before its daemon is attached, so the
    // Master never holds a daemon the Hup does not own, even when a later
    // read fails. The LAN node, uplink links, bridge entries, and shaper
    // shares were restored wholesale with the network — construct
    // alongside, not into.
    HostBundle& bundle = hosts_[spec.name];
    bundle.uplink = {uplink_out, uplink_in};
    bundle.uplink_mbps = uplink_mbps;
    bundle.host = std::make_unique<host::HupHost>(
        spec, lan_node, net::IpPool(pool_start, pool_size));
    bundle.shaper = std::make_unique<net::TrafficShaper>(*network_);
    bundle.daemon = std::make_unique<SodaDaemon>(*engine_, *network_,
                                                 *bundle.host, *bundle.shaper);
    bundle.daemon->set_trace(trace_.get());
    bundle.host->load_state(reader);
    bundle.shaper->load_state(reader);
    if (!reader.ok()) return;
    if (auto attached = master_->attach_restored_daemon(bundle.daemon.get());
        !attached.ok()) {
      reader.fail(attached.error().message);
      return;
    }
    bundle.daemon->load_state(reader);
  }
  const std::uint64_t repository_count = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < repository_count; ++i) {
    std::string name = reader.str();
    const net::NodeId node{static_cast<std::size_t>(reader.u64())};
    auto repository = std::make_unique<image::ImageRepository>(name, node);
    repository->load_state(reader);
    if (!reader.ok()) return;
    master_->register_repository(repository.get());
    repositories_.push_back(std::move(repository));
  }
  master_->load_state(reader);
  agent_->load_state(reader);
  if (reader.boolean()) health_monitor().load_state(reader);
  if (!reader.ok()) return;

  // Re-arm the saved timers against the restored clock, in saved heap
  // order, so same-time events keep their relative firing order.
  reader.begin_section("timers");
  std::vector<TimerRecord> timers;
  const std::uint64_t timer_count = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < timer_count; ++i) {
    TimerRecord timer;
    timer.kind = reader.u8();
    timer.owner = reader.str();
    timer.when = reader.time();
    timers.push_back(std::move(timer));
  }
  reader.end_section();
  reader.end_section();
  if (!reader.ok()) return;

  engine_->restore_clock(saved_now);
  // File order is the saved heap order — re-arm straight through it.
  for (const TimerRecord& timer : timers) {
    switch (timer.kind) {
      case TimerRecord::kHeartbeat: {
        SodaDaemon* daemon = find_daemon(timer.owner);
        if (daemon == nullptr || !daemon->heartbeating()) {
          reader.fail("heartbeat timer for unknown host '" + timer.owner + "'");
          return;
        }
        daemon->restore_heartbeat(
            daemon->heartbeat_interval(),
            [this](SodaDaemon& d, sim::SimTime now) {
              master_->on_heartbeat(d, now);
            },
            true);
        daemon->rearm_heartbeat_at(timer.when);
        break;
      }
      case TimerRecord::kDetector:
        master_->recovery().rearm_tick_at(timer.when);
        break;
      case TimerRecord::kMonitor:
        health_monitor().rearm_tick_at(timer.when);
        break;
      default:
        reader.fail("unknown timer kind " + std::to_string(timer.kind));
        return;
    }
  }
  SODA_ENSURES(engine_->pending() == timers.size());
}

Result<std::string> Hup::save_snapshot() const {
  snapshot::Writer writer;
  if (Status quiesced = save_state(writer); !quiesced) {
    return quiesced.error();
  }
  return writer.finish();
}

Status Hup::load_snapshot(std::string_view bytes) {
  snapshot::Reader reader(bytes);
  load_state(reader);
  return reader.status();
}

Status Hup::save_snapshot_file(const std::string& path) const {
  Result<std::string> bytes = save_snapshot();
  if (!bytes) return bytes.error();
  return snapshot::write_file(path, bytes.value());
}

Status Hup::load_snapshot_file(const std::string& path) {
  Result<std::string> bytes = snapshot::read_file(path);
  if (!bytes) return bytes.error();
  return load_snapshot(bytes.value());
}

Result<std::uint64_t> Hup::state_digest() const {
  Result<std::string> bytes = save_snapshot();
  if (!bytes) return bytes.error();
  return snapshot::fnv1a(bytes.value());
}

Hup::PaperTestbed Hup::paper_testbed(MasterConfig master_config) {
  PaperTestbed testbed;
  testbed.hup = std::make_unique<Hup>(master_config);
  testbed.hup->add_host(host::HostSpec::seattle(),
                        *net::Ipv4Address::parse("128.10.9.120"), 16);
  testbed.hup->add_host(host::HostSpec::tacoma(),
                        *net::Ipv4Address::parse("128.10.9.140"), 16);
  testbed.repo = &testbed.hup->add_repository("asp-repo");
  testbed.client = testbed.hup->add_client("client-0");
  return testbed;
}

}  // namespace soda::core
