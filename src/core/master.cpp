#include "core/master.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <utility>

#include "util/contract.hpp"
#include "util/log.hpp"

namespace soda::core {

SodaMaster::SodaMaster(sim::Engine& engine, MasterConfig config)
    : engine_(engine),
      config_(config),
      planner_(daemons_, down_hosts_),
      priming_(engine, directory_, daemons_),
      recovery_(engine,
                ControlPlaneView{services_, daemons_, down_hosts_,
                                 chunk_registry_},
                planner_, priming_, bus_) {
  planner_.configure(config_.placement, config_.slowdown_factor,
                     config_.max_nodes_per_service);
  // HUP-wide distribution byte totals, read on demand. With distribution
  // enabled the chunk layer accounts origin bytes itself; the legacy
  // whole-image path is counted by each host's downloader.
  bus_.metrics().register_gauge("bytes_from_origin", [this] {
    double total = 0;
    for (SodaDaemon* daemon : daemons_) {
      total += config_.distribution.enabled
                   ? static_cast<double>(
                         daemon->distributor().bytes_from_origin())
                   : static_cast<double>(
                         daemon->distributor().downloader().bytes_downloaded());
    }
    return total;
  });
  bus_.metrics().register_gauge("bytes_from_peers", [this] {
    double total = 0;
    for (const SodaDaemon* daemon : daemons_) {
      total += static_cast<double>(daemon->distributor().bytes_from_peers());
    }
    return total;
  });
}

Status SodaMaster::add_pool(const SodaDaemon& daemon) {
  const net::IpPool& pool = daemon.host().ip_pool();
  const std::uint64_t lo = pool.first().value();
  const std::uint64_t hi = lo + pool.capacity();
  // Registered pools are pairwise disjoint, so the ones overlapping
  // [lo, hi) are the last pool starting at or below lo (if it reaches past
  // lo) and every pool starting inside the range. The error names the
  // earliest registered of them (invalid ids compare highest).
  HostId owner;
  auto it = pools_.upper_bound(lo);
  if (it != pools_.begin() && std::prev(it)->second.end > lo) {
    owner = std::prev(it)->second.host;
  }
  for (auto inside = it; inside != pools_.end() && inside->first < hi;
       ++inside) {
    owner = std::min(owner, inside->second.host);
  }
  if (owner.valid()) {
    return Error{"IP pools of " + daemons_[owner.index()]->host_name() +
                 " and " + daemon.host_name() + " overlap"};
  }
  pools_.emplace_hint(
      it, lo,
      PoolSpan{hi, HostId{static_cast<std::uint32_t>(daemons_.size())}});
  return {};
}

Status SodaMaster::register_daemon(SodaDaemon* daemon) {
  SODA_EXPECTS(daemon != nullptr);
  if (host_names_.contains(daemon->host_name())) {
    return Error{"duplicate host: " + daemon->host_name()};
  }
  if (auto added = add_pool(*daemon); !added.ok()) return added;
  // Registration order defines the dense HostId space every fleet-scale
  // structure (down-host bitset, detector wheel, placement index
  // tie-breaks) is indexed by.
  const HostId id{host_names_.intern(daemon->host_name())};
  SODA_ENSURES(id.index() == daemons_.size());
  daemon->set_host_id(id);
  daemons_.push_back(daemon);
  // Wire the host's image-distribution front end into the HUP: shared
  // repository directory (per-attempt name resolution), shared chunk
  // registry (P2P priming), and the Master's distribution policy. The
  // daemon's control-plane events flow into the Master's bus.
  daemon->distributor().configure(config_.distribution);
  daemon->distributor().set_directory(&directory_);
  daemon->distributor().set_registry(&chunk_registry_);
  daemon->set_bus(&bus_);
  planner_.add_host(*daemon);
  recovery_.on_host_registered(*daemon);
  return {};
}

Status SodaMaster::attach_restored_daemon(SodaDaemon* daemon) {
  SODA_EXPECTS(daemon != nullptr);
  if (auto added = add_pool(*daemon); !added.ok()) return added;
  daemon->set_host_id(HostId{static_cast<std::uint32_t>(daemons_.size())});
  daemons_.push_back(daemon);
  daemon->distributor().configure(config_.distribution);
  daemon->distributor().set_directory(&directory_);
  daemon->distributor().set_registry(&chunk_registry_);
  daemon->set_bus(&bus_);
  planner_.add_host(*daemon);
  return {};
}

void SodaMaster::save_state(snapshot::Writer& writer) const {
  writer.begin_section("master");
  writer.f64(config_.slowdown_factor);
  writer.u8(static_cast<std::uint8_t>(config_.placement));
  writer.boolean(config_.customize_rootfs);
  writer.u8(static_cast<std::uint8_t>(config_.address_mode));
  writer.i64(config_.max_nodes_per_service);
  writer.u64(daemons_.size());
  host_names_.save_state(writer);
  down_hosts_.save_state(writer);
  chunk_registry_.save_state(writer);
  bus_.save_state(writer);
  priming_.save_state(writer);
  recovery_.save_state(writer);
  services_.save_state(writer);
  writer.end_section();
}

void SodaMaster::load_state(snapshot::Reader& reader) {
  reader.begin_section("master");
  const double slowdown = reader.f64();
  const auto placement = static_cast<PlacementPolicy>(reader.u8());
  const bool customize = reader.boolean();
  const auto address_mode = static_cast<AddressMode>(reader.u8());
  const auto max_nodes = static_cast<int>(reader.i64());
  if (reader.ok() &&
      (slowdown != config_.slowdown_factor || placement != config_.placement ||
       customize != config_.customize_rootfs ||
       address_mode != config_.address_mode ||
       max_nodes != config_.max_nodes_per_service)) {
    reader.fail("master config mismatch");
    return;
  }
  const std::uint64_t daemons = reader.u64();
  if (reader.ok() && daemons != daemons_.size()) {
    reader.fail("daemon count mismatch (attach restored daemons before load)");
    return;
  }
  host_names_.load_state(reader);
  down_hosts_.load_state(reader);
  chunk_registry_.load_state(reader);
  bus_.load_state(reader);
  priming_.load_state(reader);
  recovery_.load_state(reader);
  services_.load_state(
      reader, [this](std::string_view host) { return daemon_for(host); });
  reader.end_section();
  planner_.rebuild();  // the down-host set changed wholesale
}

void SodaMaster::register_repository(const image::ImageRepository* repository) {
  SODA_EXPECTS(repository != nullptr);
  directory_.add(repository);
}

bool SodaMaster::unregister_repository(const std::string& name) {
  return directory_.remove(name);
}

void SodaMaster::warm_hosts(const image::ImageLocation& location,
                            const std::vector<std::string>& hosts,
                            WarmCallback done) {
  SODA_EXPECTS(done != nullptr);
  const image::ImageRepository* repo = directory_.find(location.repository);
  if (repo == nullptr) {
    done(Error{"unknown repository: " + location.repository}, engine_.now());
    return;
  }
  std::vector<SodaDaemon*> targets;
  for (const std::string& host : hosts) {
    SodaDaemon* daemon = daemon_for(host);
    if (daemon != nullptr && daemon->alive() &&
        !down_hosts_.test(daemon->host_id())) {
      targets.push_back(daemon);
    }
  }
  if (targets.empty()) {
    done(Error{"no live host to warm with " + location.url()}, engine_.now());
    return;
  }
  struct WarmJoin {
    std::size_t pending = 0;
    bool failed = false;
    std::string first_error;
  };
  auto join = std::make_shared<WarmJoin>();
  join->pending = targets.size();
  for (SodaDaemon* daemon : targets) {
    // The fetch lands the chunks in the host's cache (and registry); the
    // image copy itself is discarded — priming re-fetches it for free.
    daemon->distributor().fetch(
        *repo, location,
        [join, done](Result<image::ServiceImage> image, sim::SimTime now) {
          if (!image.ok() && !join->failed) {
            join->failed = true;
            join->first_error = image.error().message;
          }
          if (--join->pending > 0) return;
          if (join->failed) {
            done(Error{join->first_error}, now);
          } else {
            done({}, now);
          }
        });
  }
}

SodaDaemon* SodaMaster::daemon_for(std::string_view host_name) const {
  const HostId id{host_names_.find(host_name)};
  return id.valid() ? daemons_[id.index()] : nullptr;
}

host::ResourceVector SodaMaster::hup_available() const {
  host::ResourceVector total;
  for (const SodaDaemon* daemon : daemons_) {
    if (down_hosts_.test(daemon->host_id())) continue;
    total += daemon->available();
  }
  return total;
}

void SodaMaster::create_service(const ServiceCreationRequest& request,
                                CreateCallback done) {
  SODA_EXPECTS(done != nullptr);
  auto& log = util::global_logger();

  if (request.service_name.empty()) {
    done(ApiError{ApiErrorCode::kInvalidRequest, "service name must not be empty"},
         engine_.now());
    return;
  }
  if (services_.contains(request.service_name)) {
    done(ApiError{ApiErrorCode::kServiceExists,
                  "service already hosted: " + request.service_name},
         engine_.now());
    return;
  }
  const image::ImageRepository* repo =
      directory_.find(request.image_location.repository);
  if (repo == nullptr) {
    done(ApiError{ApiErrorCode::kImageNotFound,
                  "unknown repository: " + request.image_location.repository},
         engine_.now());
    return;
  }
  auto image = repo->lookup(request.image_location.path);
  if (!image.ok()) {
    done(ApiError{ApiErrorCode::kImageNotFound, image.error().message},
         engine_.now());
    return;
  }

  const bool partitioned = image.value()->partitioned();
  if (partitioned &&
      request.requirement.n != image.value()->total_component_units()) {
    done(ApiError{ApiErrorCode::kInvalidRequest,
                  "partitioned image needs n = " +
                      std::to_string(image.value()->total_component_units()) +
                      " (sum of component units), got " +
                      std::to_string(request.requirement.n)},
         engine_.now());
    return;
  }
  // Cache-affinity placement consults per-host chunk caches through the
  // image's manifest; the other policies ignore the query.
  image::ImageManifest manifest;
  PlacementQuery query;
  if (config_.placement == PlacementPolicy::kCacheAffinity) {
    manifest = image::build_manifest(*image.value(),
                                     config_.distribution.chunk_bytes);
    query.manifest = &manifest;
  }
  auto plan = partitioned
                  ? planner_.plan_components(request.requirement.m,
                                             image.value()->components, query)
                  : planner_.plan_allocation(request.service_name,
                                             request.requirement, query);
  if (!plan.ok()) {
    bus_.publish(engine_.now(), TraceKind::kRejected, "master",
                 request.service_name, plan.error().to_string());
    done(plan.error(), engine_.now());
    return;
  }

  // Admit: record the service and transition the lifecycle.
  ServiceRecord& live = services_.create(request.service_name);
  live.asp_id = request.credentials.asp_id;
  live.requirement = request.requirement;
  live.image_location = request.image_location;
  live.listen_port = partitioned ? image.value()->components.front().listen_port
                                 : image.value()->listen_port;
  live.customize_rootfs = config_.customize_rootfs;
  live.address_mode = config_.address_mode;
  live.components = image.value()->components;
  live.placements = std::move(plan).value();
  live.lifecycle = ServiceLifecycle(request.service_name);
  must(live.lifecycle.transition(ServiceState::kAdmitted));
  must(live.lifecycle.transition(ServiceState::kPriming));
  for (auto& placement : live.placements) {
    placement.node_name =
        request.service_name + "/" + std::to_string(live.next_ordinal++);
  }
  log.info("master", "admitted " + request.service_name + " " +
                         request.requirement.to_string() + " onto " +
                         std::to_string(live.placements.size()) + " node(s)");
  bus_.publish(engine_.now(), TraceKind::kAdmitted, "master",
               request.service_name,
               request.requirement.to_string() + " -> " +
                   std::to_string(live.placements.size()) + " node(s)");

  // Prime every node; the coordinator joins on the last completion.
  PrimeSpec spec;
  spec.service_name = live.service_name;
  spec.location = live.image_location;
  spec.unit = live.requirement.m;
  spec.inflated_unit = planner_.inflated_unit(live.requirement.m);
  spec.listen_port = live.listen_port;
  spec.components = &live.components;
  spec.customize_rootfs = live.customize_rootfs;
  spec.address_mode = live.address_mode;
  priming_.prime(
      live.placements, spec,
      [this, name = live.service_name](vm::VirtualServiceNode& node,
                                       sim::SimTime) {
        ServiceRecord* rec = services_.find(name);
        SODA_ENSURES(rec != nullptr);
        rec->nodes.push_back(describe_node(node, rec->listen_port));
      },
      [this, name = live.service_name,
       done](const PrimingCoordinator::Outcome& outcome, sim::SimTime now) {
        ServiceRecord* rec = services_.find(name);
        SODA_ENSURES(rec != nullptr);
        if (outcome.failed) {
          priming_.rollback(rec->nodes);
          must(rec->lifecycle.transition(ServiceState::kFailed));
          const std::string message = outcome.first_error;
          services_.erase(name);
          bus_.publish(now, TraceKind::kPrimingFailed, "master", name, message);
          done(ApiError{ApiErrorCode::kPrimingFailed, message}, now);
          return;
        }
        finish_creation(*rec, done);
      });
}

void SodaMaster::finish_creation(ServiceRecord& record, CreateCallback done) {
  // Deterministic backend order regardless of priming completion order.
  std::sort(record.nodes.begin(), record.nodes.end(),
            [](const NodeDescriptor& a, const NodeDescriptor& b) {
              return a.node_name < b.node_name;
            });
  // The switch is colocated in the first virtual service node (§3.4).
  const NodeDescriptor& front = record.nodes.front();
  record.service_switch = std::make_unique<ServiceSwitch>(
      record.service_name, front.address, record.listen_port);
  for (const NodeDescriptor& node : record.nodes) {
    must(record.service_switch->add_backend(BackEndEntry{
        node.address, node.port, node.capacity_units, node.component}));
  }
  for (const auto& component : record.components) {
    if (!component.route_prefix.empty()) {
      record.service_switch->set_component_route(component.route_prefix,
                                                 component.name);
    }
  }
  must(record.lifecycle.transition(ServiceState::kRunning));
  bus_.publish(engine_.now(), TraceKind::kSwitchCreated, "master",
               record.service_name,
               front.address.to_string() + ":" +
                   std::to_string(record.listen_port));
  bus_.publish(engine_.now(), TraceKind::kServiceRunning, "master",
               record.service_name,
               std::to_string(record.nodes.size()) + " node(s)");
  util::global_logger().info(
      "master", record.service_name + " running; switch at " +
                    front.address.to_string() + ":" +
                    std::to_string(record.listen_port) + "\n" +
                    record.service_switch->config_text());

  ServiceCreationReply reply;
  reply.service_name = record.service_name;
  reply.nodes = record.nodes;
  reply.switch_address = front.address;
  reply.switch_port = record.listen_port;
  done(reply, engine_.now());
}

ApiResult<ServiceCreationReply> SodaMaster::describe_service(
    const std::string& name) const {
  const ServiceRecord* record = services_.find(name);
  if (record == nullptr || !record->service_switch) {
    return ApiError{ApiErrorCode::kNoSuchService, "no such service: " + name};
  }
  ServiceCreationReply reply;
  reply.service_name = record->service_name;
  reply.nodes = record->nodes;
  reply.switch_address = record->service_switch->listen_address();
  reply.switch_port = record->service_switch->listen_port();
  return reply;
}

Result<void, ApiError> SodaMaster::teardown_service(const std::string& name) {
  ServiceRecord* record = services_.find(name);
  if (record == nullptr) {
    return ApiError{ApiErrorCode::kNoSuchService, "no such service: " + name};
  }
  if (auto moved = record->lifecycle.transition(ServiceState::kTearingDown);
      !moved.ok()) {
    return ApiError{ApiErrorCode::kInvalidRequest, moved.error().message};
  }
  priming_.rollback(record->nodes);
  must(record->lifecycle.transition(ServiceState::kGone));
  services_.erase(name);
  bus_.publish(engine_.now(), TraceKind::kTornDown, "master", name);
  util::global_logger().info("master", "tore down " + name);
  return {};
}

const ServiceRecord* SodaMaster::find_service(std::string_view name) const {
  return services_.find(name);
}

ServiceSwitch* SodaMaster::find_switch(std::string_view name) {
  ServiceRecord* record = services_.find(name);
  return record == nullptr ? nullptr : record->service_switch.get();
}

std::vector<std::string> SodaMaster::service_names() const {
  std::vector<std::string> names;
  names.reserve(services_.size());
  services_.for_each([&](const std::string& name, const ServiceRecord&) {
    names.push_back(name);
  });
  return names;
}

void SodaMaster::resize_service(const std::string& name, int n_new,
                                ResizeCallback done) {
  SODA_EXPECTS(done != nullptr);
  ServiceRecord* found = services_.find(name);
  if (found == nullptr) {
    done(ApiError{ApiErrorCode::kNoSuchService, "no such service: " + name},
         engine_.now());
    return;
  }
  ServiceRecord& record = *found;
  if (!record.components.empty()) {
    done(ApiError{ApiErrorCode::kInvalidRequest,
                  "resizing a partitioned service is not supported; tear down "
                  "and recreate with new component units"},
         engine_.now());
    return;
  }
  if (n_new < 1) {
    done(ApiError{ApiErrorCode::kInvalidRequest, "n_new must be >= 1"},
         engine_.now());
    return;
  }
  if (auto moved = record.lifecycle.transition(ServiceState::kResizing);
      !moved.ok()) {
    done(ApiError{ApiErrorCode::kInvalidRequest, moved.error().message},
         engine_.now());
    return;
  }

  int current = 0;
  for (const Placement& p : record.placements) current += p.units;
  const host::ResourceVector unit = planner_.inflated_unit(record.requirement.m);

  auto reply_now = [&] {
    must(record.lifecycle.transition(ServiceState::kRunning));
    bus_.publish(engine_.now(), TraceKind::kResized, "master", name,
                 "n=" + std::to_string(n_new));
    record.requirement.n = n_new;
    ServiceResizingReply reply;
    reply.service_name = name;
    reply.nodes = record.nodes;
    done(reply, engine_.now());
  };

  if (n_new == current) {
    reply_now();
    return;
  }

  if (n_new < current) {
    // --- Shrink: shed units from the last placements first; never remove
    // the first node (the switch is colocated there). ---
    int to_shed = current - n_new;
    for (std::size_t idx = record.placements.size(); idx-- > 0 && to_shed > 0;) {
      Placement& placement = record.placements[idx];
      const bool is_switch_node = idx == 0;
      const int min_units = is_switch_node ? 1 : 0;
      const int shed = std::min(placement.units - min_units, to_shed);
      if (shed <= 0) continue;
      const int new_units = placement.units - shed;
      auto desc = std::find_if(record.nodes.begin(), record.nodes.end(),
                               [&](const NodeDescriptor& d) {
                                 return d.node_name == placement.node_name;
                               });
      SODA_ENSURES(desc != record.nodes.end());
      if (new_units == 0) {
        must(record.service_switch->remove_backend(desc->address, desc->port));
        must(placement.daemon->teardown_node(placement.node_name));
        record.nodes.erase(desc);
        record.placements.erase(record.placements.begin() +
                                static_cast<std::ptrdiff_t>(idx));
      } else {
        must(placement.daemon->resize_node(placement.node_name, new_units,
                                           unit.scaled(new_units)));
        must(record.service_switch->set_backend_capacity(desc->address,
                                                          desc->port, new_units));
        desc->capacity_units = new_units;
        placement.units = new_units;
      }
      to_shed -= shed;
    }
    SODA_ENSURES(to_shed == 0);
    reply_now();
    return;
  }

  // --- Grow: plan first (in-place extension, then new nodes), then apply. ---
  int to_add = n_new - current;
  std::vector<std::pair<std::size_t, int>> in_place;  // placement idx, extra
  for (std::size_t idx = 0; idx < record.placements.size() && to_add > 0; ++idx) {
    const Placement& placement = record.placements[idx];
    const int extra =
        std::min(units_that_fit(placement.daemon->available(), unit), to_add);
    if (extra >= 1) {
      in_place.emplace_back(idx, extra);
      to_add -= extra;
    }
  }
  std::vector<Placement> new_nodes;
  if (to_add > 0) {
    planner_.for_each_preferred({}, [&](SodaDaemon& daemon) {
      const bool already_used = std::any_of(
          record.placements.begin(), record.placements.end(),
          [&](const Placement& p) { return p.daemon == &daemon; });
      if (already_used) return true;
      const int k = std::min(units_that_fit(daemon.available(), unit), to_add);
      if (k >= 1) {
        new_nodes.push_back(Placement{&daemon, "", k, ""});
        to_add -= k;
      }
      return to_add > 0;
    });
  }
  if (to_add > 0) {
    must(record.lifecycle.transition(ServiceState::kRunning));
    done(ApiError{ApiErrorCode::kInsufficientResources,
                  "cannot grow " + name + " to " + std::to_string(n_new) +
                      " instance(s); short by " + std::to_string(to_add)},
         engine_.now());
    return;
  }

  // Apply the in-place extensions.
  for (const auto& [idx, extra] : in_place) {
    Placement& placement = record.placements[idx];
    const int new_units = placement.units + extra;
    must(placement.daemon->resize_node(placement.node_name, new_units,
                                       unit.scaled(new_units)));
    auto desc = std::find_if(record.nodes.begin(), record.nodes.end(),
                             [&](const NodeDescriptor& d) {
                               return d.node_name == placement.node_name;
                             });
    SODA_ENSURES(desc != record.nodes.end());
    must(record.service_switch->set_backend_capacity(desc->address, desc->port,
                                                     new_units));
    desc->capacity_units = new_units;
    placement.units = new_units;
  }
  if (new_nodes.empty()) {
    reply_now();
    return;
  }

  // Prime the additional nodes through the shared coordinator (which
  // re-resolves the repository by name — never a cached pointer).
  std::vector<std::string> batch;
  batch.reserve(new_nodes.size());
  for (Placement& placement : new_nodes) {
    placement.node_name = name + "/" + std::to_string(record.next_ordinal++);
    batch.push_back(placement.node_name);
    record.placements.push_back(placement);
  }
  PrimeSpec spec;
  spec.service_name = name;
  spec.location = record.image_location;
  spec.unit = record.requirement.m;
  spec.inflated_unit = unit;
  spec.listen_port = record.listen_port;
  spec.customize_rootfs = record.customize_rootfs;
  spec.address_mode = record.address_mode;
  priming_.prime(
      std::move(new_nodes), spec,
      [this, name](vm::VirtualServiceNode& node, sim::SimTime) {
        ServiceRecord* rec = services_.find(name);
        SODA_ENSURES(rec != nullptr);
        const NodeDescriptor descriptor = describe_node(node, rec->listen_port);
        must(rec->service_switch->add_backend(BackEndEntry{
            descriptor.address, descriptor.port, descriptor.capacity_units,
            descriptor.component}));
        rec->nodes.push_back(descriptor);
      },
      [this, name, n_new, done, batch = std::move(batch)](
          const PrimingCoordinator::Outcome& outcome, sim::SimTime now) {
        ServiceRecord* rec = services_.find(name);
        SODA_ENSURES(rec != nullptr);
        if (outcome.failed) {
          // Drop this batch's placements whose priming never produced a
          // node. Scoped to the batch: if a host crash mid-resize kicked
          // off a recovery attempt, its still-priming placements have no
          // node yet and must survive this cleanup.
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
          must(rec->lifecycle.transition(ServiceState::kRunning));
          done(ApiError{ApiErrorCode::kPrimingFailed, outcome.first_error},
               now);
          return;
        }
        must(rec->lifecycle.transition(ServiceState::kRunning));
        rec->requirement.n = n_new;
        ServiceResizingReply reply;
        reply.service_name = name;
        reply.nodes = rec->nodes;
        done(reply, now);
      });
}

}  // namespace soda::core
