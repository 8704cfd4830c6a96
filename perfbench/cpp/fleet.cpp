// fleet_lifecycle: 10k tacoma hosts and 2000 two-node services admitted
// worst-fit one at a time, then 1M guest routes through their switches, a
// 120 s steady heartbeat window with the failure detector armed,
// save_snapshot / load_snapshot into a fresh Hup, and a crash + recovery of
// an 8-host slab. One lifecycle is one iteration; its set-up (the Hup and
// its hosts) is timed apart from the phases.
//
// Operations checked by the driver: each admission, and the routes,
// steady, snapshot and fault phases. The decision digest (every placement,
// every routed backend, the fault counters and the rendered trace) rides on
// the fault phase.
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/agent.hpp"
#include "core/hup.hpp"
#include "core/master.hpp"
#include "host/host.hpp"
#include "image/image.hpp"
#include "os/rootfs.hpp"
#include "probe.hpp"

using namespace soda;

namespace perfbench {
namespace {

constexpr int kHosts = 10'000;
constexpr int kServices = 2'000;
constexpr std::uint64_t kGuests = 1'000'000;
constexpr int kCrashHosts = 8;
constexpr double kSteadySeconds = 120;
constexpr int kGuestFsCopies = 200;

/// Incremental FNV-1a digest of the decisions a lifecycle makes (the same
/// fold as bench/fig_fleet.cpp).
struct Digest {
  std::uint64_t hash = 1469598103934665603ULL;
  void add(std::string_view text) noexcept {
    for (const char c : text) add_byte(static_cast<unsigned char>(c));
  }
  void add(std::uint64_t value) noexcept {
    hash = (hash ^ value) * 1099511628211ULL;
  }

 private:
  void add_byte(unsigned char c) noexcept { hash = (hash ^ c) * 1099511628211ULL; }
};

host::MachineConfig fleet_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;  // inflated 1.5x -> one unit per tacoma host
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

core::MasterConfig fleet_config() {
  core::MasterConfig config;
  config.placement = core::PlacementPolicy::kWorstFit;
  return config;
}

std::string host_name(int i) { return "fleet-" + std::to_string(i); }

struct Fleet {
  std::unique_ptr<core::Hup> hup;
  image::ImageLocation location;
};

Fleet set_up(double& add_host_s) {
  Fleet f;
  f.hup = std::make_unique<core::Hup>(fleet_config());
  const auto hosts_start = Clock::now();
  for (int i = 0; i < kHosts; ++i) {
    host::HostSpec spec = host::HostSpec::tacoma();
    spec.name = host_name(i);
    f.hup->add_host(spec,
                    net::Ipv4Address(10, static_cast<std::uint8_t>(i / 250),
                                     static_cast<std::uint8_t>(i % 250), 16),
                    16);
  }
  add_host_s = seconds_since(hosts_start);
  auto& repo = f.hup->add_repository("asp-repo");
  f.hup->agent().register_asp("asp", "key");
  f.location = must(repo.publish(image::web_content_image(1024 * 1024)));
  return f;
}

/// A guest rootfs copy plus payload merge, shaped as bench/prof_admission's
/// breakdown: build and customize the template once, then time the per-guest
/// part. Returns {microseconds, allocations} per copy.
std::pair<double, double> guest_fs_probe(Spans& spans) {
  Spans::Scope span(spans, "os.guest_fs_probe");
  const image::ServiceImage img = image::web_content_image(1 << 20);
  const os::RootFs base = os::build_rootfs(img.rootfs_template);
  const os::RootFs customized =
      must(os::customize_rootfs(base, img.required_services));
  for (int i = 0; i < 4; ++i) {  // warm the allocator
    os::FileSystem copy = customized.fs;
    must(copy.copy_from(img.payload, "/", "/"));
  }
  const std::uint64_t allocs_before = allocation_count();
  const auto start = Clock::now();
  for (int i = 0; i < kGuestFsCopies; ++i) {
    os::FileSystem copy = customized.fs;
    must(copy.copy_from(img.payload, "/", "/"));
  }
  const double seconds = seconds_since(start);
  const double allocs = static_cast<double>(allocation_count() - allocs_before);
  return {seconds * 1e6 / kGuestFsCopies, allocs / kGuestFsCopies};
}

struct Layers {
  std::vector<double> events;
  double engine_s = 0;
  double engine_events = 0;
  std::size_t pending_peak = 0;
  std::vector<double> admission_ms;
  std::vector<double> allocs_per_admission;
  std::vector<double> route_ns;
  std::vector<double> heartbeat_rate;
  std::vector<double> fault_ms;
  std::vector<double> render_ms;
  std::vector<double> trace_bytes;
  std::vector<double> add_host_us;
  std::vector<double> save_ms;
  std::vector<double> load_ms;
  std::vector<double> snapshot_mb;
};

}  // namespace

int run_fleet(const Options& options) {
  Spans spans(options.trace);
  std::vector<double> setup_s;
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  std::vector<double> admissions_per_s;
  Layers layers;
  // The speed-reference kernel runs before the set-up, before each phase
  // and after the last; each lifecycle is normalised by its own samples.
  SpeedRef speed;
  std::vector<double> norm_setup_s;
  std::vector<double> norm_admissions_per_s;
  std::vector<double> norm_wall[2];  // untraced [0] and traced [1]

  const Budget budget(options.seconds, options.trace ? 2 : 1);
  for (std::size_t i = 0; budget.another(i); ++i) {
    const bool traced = options.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.set_run(i + 1);
    // Input token "<service-name base>:<first crashed host>".
    const std::string& input = options.inputs[i % options.inputs.size()];
    const std::size_t colon = input.find(':');
    const int name_base = std::stoi(input.substr(0, colon));
    const int crash_first = std::stoi(input.substr(colon + 1));

    Spans::Scope lifecycle_span(spans, "lifecycle");
    const std::size_t first_sample = speed.count();
    speed.sample();
    double add_host_s = 0;
    const auto setup_start = Clock::now();
    Fleet fleet = [&] {
      Spans::Scope span(spans, "setup");
      return set_up(add_host_s);
    }();
    setup_s.push_back(seconds_since(setup_start));
    core::Hup& hup = *fleet.hup;
    sim::Engine& engine = hup.engine();

    Digest digest;
    std::uint64_t events = 0;
    double engine_s = 0;
    double wall = 0;

    speed.sample();
    // ---- Ramp ----
    std::uint64_t nodes_placed = 0;
    std::uint64_t admission_failures = 0;
    std::vector<std::string> service_names;
    service_names.reserve(kServices);
    double ramp_s = 0;
    {
      Spans::Scope span(spans, "core.ramp");
      const std::uint64_t allocs_before = allocation_count();
      const auto start = Clock::now();
      for (int s = 0; s < kServices; ++s) {
        Spans::Scope admission_span(spans, "core.admission");
        const auto admission_start = traced ? Clock::now() : start;
        core::ServiceCreationRequest request;
        request.credentials = {"asp", "key"};
        request.service_name = "svc-" + std::to_string(name_base + s);
        request.image_location = fleet.location;
        request.requirement = {2, fleet_unit()};
        service_names.push_back(request.service_name);
        bool ok = false;
        hup.agent().service_creation(request, [&](auto reply, sim::SimTime) {
          if (!reply.ok()) return;
          ok = reply.value().nodes.size() == 2;
          for (const auto& node : reply.value().nodes) {
            digest.add(node.node_name);
            digest.add(node.host_name);
            digest.add(node.address.value());
            digest.add(static_cast<std::uint64_t>(node.port));
            ++nodes_placed;
          }
        });
        events += engine.run();
        if (!ok) ++admission_failures;
        if (traced) {
          layers.admission_ms.push_back(seconds_since(admission_start) * 1e3);
        }
      }
      ramp_s = seconds_since(start);
      engine_s += ramp_s;
      if (traced) {
        layers.allocs_per_admission.push_back(
            static_cast<double>(allocation_count() - allocs_before) / kServices);
      }
    }
    wall += ramp_s;
    admissions_per_s.push_back(kServices / ramp_s);
    JsonObject()
        .add("kind", "ramp")
        .add("input", input)
        .add("admissions", static_cast<std::uint64_t>(kServices))
        .add("admission_failures", admission_failures)
        .add("nodes_placed", nodes_placed)
        .add("seconds", ramp_s)
        .print("op");

    speed.sample();
    // ---- Guest routes ----
    std::uint64_t routed = 0;
    {
      Spans::Scope span(spans, "core.routes");
      const std::uint64_t per_service = kGuests / kServices + 1;
      const auto start = Clock::now();
      for (const std::string& name : service_names) {
        core::ServiceSwitch* sw = hup.master().find_switch(name);
        if (sw == nullptr) continue;
        for (std::uint64_t g = 0; g < per_service; ++g) {
          const auto result = sw->route();
          if (!result.ok()) break;
          const core::BackEndEntry& entry = result.value();
          digest.add(entry.address.value());
          sw->on_request_complete(entry.address, entry.port);
          ++routed;
        }
      }
      const double seconds = seconds_since(start);
      wall += seconds;
      if (traced && routed) {
        layers.route_ns.push_back(seconds * 1e9 / static_cast<double>(routed));
      }
      JsonObject()
          .add("kind", "routes")
          .add("input", input)
          .add("routed", routed)
          .add("seconds", seconds)
          .print("op");
    }

    speed.sample();
    // ---- Steady heartbeat window ----
    {
      Spans::Scope span(spans, "core.steady");
      hup.enable_failure_detection();  // 250 ms heartbeats, 1 s timeout
      const sim::SimTime end = engine.now() + sim::SimTime::seconds(kSteadySeconds);
      const auto start = Clock::now();
      if (!traced) {
        events += engine.run_until(end);
      } else {
        // 1 s slices so the queue depth can be sampled between them.
        while (engine.now() < end && engine.pending() > 0) {
          Spans::Scope slice_span(spans, "sim.slice");
          const sim::SimTime next = engine.now() + sim::SimTime::seconds(1);
          events += engine.run_until(next < end ? next : end);
          layers.pending_peak = std::max(layers.pending_peak, engine.pending());
        }
      }
      const double seconds = seconds_since(start);
      wall += seconds;
      engine_s += seconds;
      if (traced) layers.heartbeat_rate.push_back(kHosts * kSteadySeconds / seconds);
      JsonObject()
          .add("kind", "steady")
          .add("input", input)
          .add("host_failures", hup.master().host_failures_detected())
          .add("seconds", seconds)
          .print("op");
    }

    speed.sample();
    // ---- Snapshot save / load into a fresh Hup ----
    {
      Spans::Scope span(spans, "snapshot");
      double save_s = 0;
      double load_s = 0;
      std::string error;
      std::uint64_t saved_digest = 0;
      std::uint64_t loaded_digest = 0;
      std::size_t bytes_size = 0;
      {
        const auto start = Clock::now();
        Result<std::string> bytes = [&] {
          Spans::Scope save_span(spans, "snapshot.save");
          return hup.save_snapshot();
        }();
        save_s = seconds_since(start);
        if (!bytes.ok()) {
          error = "save failed";
        } else {
          bytes_size = bytes.value().size();
          core::Hup restored(fleet_config());
          const auto load_start = Clock::now();
          const Status loaded = [&] {
            Spans::Scope load_span(spans, "snapshot.load");
            return restored.load_snapshot(bytes.value());
          }();
          load_s = seconds_since(load_start);
          if (!loaded.ok()) {
            error = "load failed";
          } else {
            // Checks, not timed: both worlds must digest identically.
            const auto original = hup.state_digest();
            const auto copy = restored.state_digest();
            if (original.ok()) saved_digest = original.value();
            if (copy.ok()) loaded_digest = copy.value();
            if (!original.ok() || !copy.ok()) error = "state_digest failed";
          }
        }
      }
      wall += save_s + load_s;
      const double mb = static_cast<double>(bytes_size) / (1024.0 * 1024.0);
      if (traced) {
        layers.save_ms.push_back(save_s * 1e3);
        layers.load_ms.push_back(load_s * 1e3);
        layers.snapshot_mb.push_back(mb);
      }
      JsonObject()
          .add("kind", "snapshot")
          .add("input", input)
          .add("error", error)
          .add("saved_digest", hex64(saved_digest))
          .add("loaded_digest", hex64(loaded_digest))
          .add("mb", mb)
          .add("save_s", save_s)
          .add("load_s", load_s)
          .print("op");
    }

    speed.sample();
    // ---- Fault: crash a slab, let the detector and recovery act, recover.
    {
      Spans::Scope span(spans, "core.fault");
      const auto start = Clock::now();
      for (int h = 0; h < kCrashHosts; ++h) hup.crash_host(host_name(crash_first + h));
      events += engine.run_until(engine.now() + sim::SimTime::seconds(3));
      for (int h = 0; h < kCrashHosts; ++h) hup.recover_host(host_name(crash_first + h));
      events += engine.run_until(engine.now() + sim::SimTime::seconds(3));
      const double seconds = seconds_since(start);
      wall += seconds;
      engine_s += seconds;
      if (traced) layers.fault_ms.push_back(seconds * 1e3);

      double render_s = 0;
      std::size_t trace_bytes = 0;
      {
        Spans::Scope render_span(spans, "core.trace_render");
        const auto render_start = Clock::now();
        const std::string rendered = hup.trace().render();
        render_s = seconds_since(render_start);
        trace_bytes = rendered.size();
        digest.add(routed);
        digest.add(hup.master().host_failures_detected());
        digest.add(hup.master().recoveries_completed());
        digest.add(hup.master().placements_lost());
        digest.add(rendered);
      }
      wall += render_s;
      if (traced) {
        layers.render_ms.push_back(render_s * 1e3);
        layers.trace_bytes.push_back(static_cast<double>(trace_bytes));
      }
      JsonObject()
          .add("kind", "fault")
          .add("input", input)
          .add("host_failures", hup.master().host_failures_detected())
          .add("recoveries", hup.master().recoveries_completed())
          .add("placements_lost", hup.master().placements_lost())
          .add("digest", hex64(digest.hash))
          .add("seconds", seconds)
          .print("op");
    }

    (traced ? wall_traced : wall_untraced).push_back(wall);
    speed.sample();
    const double scale = speed.scale(first_sample);
    norm_wall[traced].push_back(wall * scale);
    norm_setup_s.push_back(setup_s.back() * scale);
    norm_admissions_per_s.push_back(admissions_per_s.back() / scale);
    if (traced) {
      layers.events.push_back(static_cast<double>(events));
      layers.engine_s += engine_s;
      layers.engine_events += static_cast<double>(events);
      layers.add_host_us.push_back(add_host_s * 1e6 / kHosts);
    }
    JsonObject()
        .add("kind", "lifecycle")
        .add("input", input)
        .add("traced", traced)
        .add("events", events)
        .add("setup_s", setup_s.back())
        .add("wall_s", wall)
        .print("info");
  }

  const std::vector<double>& wall =
      wall_untraced.empty() ? wall_traced : wall_untraced;
  JsonObject out;
  add_end_to_end(out,
                 {median(norm_wall[wall_untraced.empty() ? 1 : 0]),
                  median(norm_setup_s), median(norm_admissions_per_s)},
                 {median(wall), median(setup_s), median(admissions_per_s)},
                 speed);
  out.add("wall_s", wall)
      .add("setup_s", setup_s)
      .add("iterations", static_cast<std::uint64_t>(wall_untraced.size() +
                                                    wall_traced.size()));
  if (options.trace) {
    spans.set_enabled(true);
    spans.set_run(0);
    const auto [guest_fs_us, guest_fs_allocs] = guest_fs_probe(spans);
    JsonObject l;
    l.add("sim.events", median(layers.events))
        .add("sim.ns_per_event",
             layers.engine_events > 0
                 ? layers.engine_s * 1e9 / layers.engine_events
                 : 0.0)
        .add("sim.pending_peak", static_cast<double>(layers.pending_peak))
        .add("core.admission_ms_p50", median(layers.admission_ms))
        .add("core.admission_ms_p99", percentile(layers.admission_ms, 0.99))
        .add("core.allocs_per_admission", median(layers.allocs_per_admission))
        .add("core.route_ns", median(layers.route_ns))
        .add("core.heartbeat_host_s_per_s", median(layers.heartbeat_rate))
        .add("core.fault_ms", median(layers.fault_ms))
        .add("core.trace_render_ms", median(layers.render_ms))
        .add("core.trace_bytes", median(layers.trace_bytes))
        .add("host.add_host_us", median(layers.add_host_us))
        .add("os.guest_fs_us", guest_fs_us)
        .add("os.guest_fs_allocs", guest_fs_allocs)
        .add("snapshot.save_ms", median(layers.save_ms))
        .add("snapshot.load_ms", median(layers.load_ms))
        .add("snapshot.mb", median(layers.snapshot_mb))
        .add("trace_overhead_pct",
             (median(wall_traced) / median(wall_untraced) - 1.0) * 100.0);
    out.add("layers", l);
    if (!options.trace_out.empty() &&
        !spans.write_chrome_json(options.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", options.trace_out.c_str());
      return 1;
    }
  }
  out.print("summary");
  return 0;
}

}  // namespace perfbench
