// traffic_flash_crowd: the paper testbed (seattle + tacoma) runs web-content
// on three nodes behind the WRR switch, and one open-loop stream plays
// fig_traffic's full shape — 400 rps for 3 s, a 4000 rps burst for 2 s,
// 400 rps for 3 s, then a 400 -> 2000 rps ramp over 4 s, 2 KB responses.
// One operation is one replica: set-up (testbed, admission, servers,
// stream) is timed apart from the engine run that plays the stream.
//
// A traced replica drives the engine in 100 ms simulated slices instead of
// one run() call and samples the flow network and event queue at each
// slice boundary; its outputs must equal the untraced replica's.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "probe.hpp"
#include "workload/siege.hpp"
#include "workload/traffic.hpp"
#include "workload/webservice.hpp"

using namespace soda;

namespace perfbench {
namespace {

constexpr std::int64_t kResponseBytes = 2048;
constexpr int kSliceMs = 100;
// Slice index ranges of the trace phases: warm [0, 3 s), burst [3 s, 5 s).
constexpr int kWarmSlices = 30;
constexpr int kBurstEndSlice = 50;
// Stand-alone set-ups before each replica, so setup_s and the admission
// rate are medians of many samples spread over the run.
constexpr int kExtraSetups = 19;
constexpr int kProbeFlows = 3000;
// Speed-reference kernel runs before and after each replica. A replica
// lasts seconds and the host's speed can change from one to the next, so
// each replica is normalised by the samples around it.
constexpr int kSpeedSamples = 3;

host::MachineConfig fig2_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 860;
  m.memory_mb = 192;
  m.disk_mb = 2048;
  m.bandwidth_mbps = 20;
  return m;
}

struct SetupSample {
  double setup_s = 0;
  double admission_s = 0;
  double admission_allocs = 0;
};

/// Everything a replica runs on; built by set_up() and owned here so the
/// objects outlive the engine run.
struct World {
  std::unique_ptr<core::Hup> hup;
  std::vector<std::unique_ptr<workload::WebContentServer>> servers;
  std::unique_ptr<workload::SiegeClient> siege;
  std::unique_ptr<workload::TrafficEngine> traffic;
};

World set_up(std::uint64_t seed, SetupSample& sample, Spans& spans) {
  Spans::Scope setup_span(spans, "setup");
  const auto start = Clock::now();
  World w;
  auto tb = core::Hup::paper_testbed();
  w.hup = std::move(tb.hup);
  core::Hup& hup = *w.hup;
  hup.agent().register_asp("asp", "key");
  const auto location =
      must(tb.repo->publish(image::web_content_image(16 * 1024 * 1024)));
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web-content";
  request.image_location = location;
  request.requirement = {3, fig2_unit()};
  {
    Spans::Scope admission_span(spans, "core.admission");
    const std::uint64_t allocs_before = allocation_count();
    const auto admission_start = Clock::now();
    hup.agent().service_creation(
        request, [](auto reply, sim::SimTime) { must(std::move(reply)); });
    hup.engine().run();
    sample.admission_s = seconds_since(admission_start);
    sample.admission_allocs =
        static_cast<double>(allocation_count() - allocs_before);
  }

  core::ServiceSwitch* sw = hup.master().find_switch("web-content");
  const auto nodes = hup.master().find_service("web-content")->nodes;
  net::NodeId switch_node;
  for (const auto& node : nodes) {
    auto* daemon = hup.find_daemon(node.host_name);
    auto* vsn = daemon->find_node(node.node_name);
    std::vector<net::LinkId> outbound;
    if (auto link = hup.find_shaper(node.host_name)->link_for(vsn->address())) {
      outbound.push_back(*link);
    }
    w.servers.push_back(std::make_unique<workload::WebContentServer>(
        hup.engine(), hup.network(), vsn->net_node(), vm::ExecMode::kUmlTraced,
        daemon->host().spec().cpu_ghz, 2 * node.capacity_units,
        std::move(outbound)));
    if (node.address == sw->listen_address()) switch_node = vsn->net_node();
  }

  workload::SiegeConfig cfg;
  cfg.response_bytes = kResponseBytes;
  cfg.switch_delay =
      workload::switch_forward_cost(2.6, vm::ExecMode::kUmlTraced);
  cfg.record_samples = false;
  w.siege = std::make_unique<workload::SiegeClient>(
      hup.engine(), hup.network(), tb.client, sw, switch_node, cfg);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    w.siege->register_backend(nodes[i].address, w.servers[i].get(),
                              w.servers[i]->node());
  }
  workload::TrafficEngineConfig traffic_config;
  traffic_config.seed = seed;
  w.traffic = std::make_unique<workload::TrafficEngine>(hup.engine(),
                                                        traffic_config);
  w.traffic->add_stream("web", *w.siege,
                        workload::TrafficTrace()
                            .constant(400, 3)
                            .burst(4000, 2)
                            .constant(400, 3)
                            .ramp(400, 2000, 4));
  w.traffic->start();
  sample.setup_s = seconds_since(start);
  return w;
}

/// Per-layer samples of traced replicas.
struct Layers {
  std::vector<double> events;
  double engine_s = 0;
  double engine_events = 0;
  std::size_t pending_peak = 0;
  std::size_t flows_peak = 0;
  double flows_sum = 0;
  double flow_samples = 0;
  std::vector<double> warm_slice_ms;
  std::vector<double> burst_slice_ms;
  std::vector<double> allocs_per_request;
  std::vector<double> bytes_delivered;
};

/// Host microseconds per flow (one start plus one completion) with
/// kProbeFlows concurrent 2 KB flows from the testbed hosts to the client,
/// driven through FlowNetwork's public API only.
double flow_probe_us(Spans& spans) {
  Spans::Scope span(spans, "net.flow_probe");
  auto tb = core::Hup::paper_testbed();
  net::FlowNetwork& network = tb.hup->network();
  const net::NodeId sources[] = {tb.hup->find_host("seattle")->lan_node(),
                                 tb.hup->find_host("tacoma")->lan_node()};
  std::uint64_t completed = 0;
  const auto start = Clock::now();
  for (int i = 0; i < kProbeFlows; ++i) {
    must(network.start_flow(sources[i % 2], tb.client, kResponseBytes,
                            [&completed](sim::SimTime) { ++completed; }));
  }
  tb.hup->engine().run();
  const double seconds = seconds_since(start);
  if (completed != kProbeFlows) {
    std::fprintf(stderr, "flow probe: %llu of %d flows completed\n",
                 static_cast<unsigned long long>(completed), kProbeFlows);
    return 0;
  }
  return seconds * 1e6 / kProbeFlows;
}

}  // namespace

int run_traffic(const Options& options) {
  Spans spans(options.trace);
  std::vector<double> setup_s;
  std::vector<double> admission_s;
  std::vector<double> admission_allocs;
  std::vector<double> wall_untraced;
  std::vector<double> wall_traced;
  Layers layers;
  SpeedRef speed;
  // Speed-normalised set-up and admission seconds, and replica seconds of
  // untraced [0] and traced [1] replicas.
  std::vector<double> norm_setup_s;
  std::vector<double> norm_admission_s;
  std::vector<double> norm_wall[2];

  auto record_setup = [&](const SetupSample& s) {
    setup_s.push_back(s.setup_s);
    admission_s.push_back(s.admission_s);
    admission_allocs.push_back(s.admission_allocs);
  };

  const Budget budget(options.seconds, options.trace ? 2 : 1);
  for (std::size_t i = 0; budget.another(i); ++i) {
    const std::size_t first_sample = speed.count();
    const std::size_t first_setup = setup_s.size();
    speed.sample(kSpeedSamples);
    const bool traced = options.trace && i % 2 == 1;
    spans.set_enabled(traced);
    spans.set_run(i + 1);
    const std::string& input = options.inputs[i % options.inputs.size()];
    const std::uint64_t seed = std::stoull(input, nullptr, 0);

    Spans::Scope replica_span(spans, "replica");
    for (int k = 0; k < kExtraSetups; ++k) {
      SetupSample sample;
      World discarded = set_up(seed, sample, spans);
      record_setup(sample);
    }
    SetupSample sample;
    World w = set_up(seed, sample, spans);
    record_setup(sample);
    sim::Engine& engine = w.hup->engine();
    net::FlowNetwork& network = w.hup->network();

    std::uint64_t events = 0;
    const std::uint64_t allocs_before = allocation_count();
    const auto run_start = Clock::now();
    if (!traced) {
      events = engine.run();
    } else {
      Spans::Scope run_span(spans, "sim.run");
      const sim::SimTime t0 = engine.now();
      for (int slice = 0; engine.pending() > 0; ++slice) {
        Spans::Scope slice_span(spans, "sim.slice");
        const auto slice_start = Clock::now();
        events += engine.run_until(
            t0 + sim::SimTime::milliseconds(kSliceMs * (slice + 1)));
        const double ms = seconds_since(slice_start) * 1e3;
        if (slice < kWarmSlices) {
          layers.warm_slice_ms.push_back(ms);
        } else if (slice < kBurstEndSlice) {
          layers.burst_slice_ms.push_back(ms);
        }
        layers.pending_peak = std::max(layers.pending_peak, engine.pending());
        layers.flows_peak = std::max(layers.flows_peak, network.active_flows());
        layers.flows_sum += static_cast<double>(network.active_flows());
        layers.flow_samples += 1;
      }
    }
    const double wall = seconds_since(run_start);
    const double allocs = static_cast<double>(allocation_count() - allocs_before);
    (traced ? wall_traced : wall_untraced).push_back(wall);
    speed.sample(kSpeedSamples);
    const double scale = speed.scale(first_sample);
    norm_wall[traced].push_back(wall * scale);
    for (std::size_t k = first_setup; k < setup_s.size(); ++k) {
      norm_setup_s.push_back(setup_s[k] * scale);
      norm_admission_s.push_back(admission_s[k] * scale);
    }

    const sim::StreamingStats& stats = w.traffic->stats("web");
    const std::uint64_t resolved = stats.completed() + stats.errors();
    if (traced) {
      layers.events.push_back(static_cast<double>(events));
      layers.engine_s += wall;
      layers.engine_events += static_cast<double>(events);
      layers.allocs_per_request.push_back(
          resolved ? allocs / static_cast<double>(resolved) : 0);
      layers.bytes_delivered.push_back(
          static_cast<double>(network.bytes_delivered()));
    }

    JsonObject op;
    op.add("kind", "replica")
        .add("input", input)
        .add("traced", traced)
        .add("digest", hex64(w.traffic->digest()))
        .add("scheduled", w.traffic->scheduled("web"))
        .add("served", stats.completed())
        .add("refused", stats.errors())
        .add("p99_s", stats.p99())
        .add("bytes_delivered",
             static_cast<std::uint64_t>(network.bytes_delivered()))
        .add("events", events)
        .add("setup_s", sample.setup_s)
        .add("wall_s", wall);
    op.print("op");
  }

  const std::vector<double>& wall =
      wall_untraced.empty() ? wall_traced : wall_untraced;
  JsonObject out;
  add_end_to_end(out,
                 {median(norm_wall[wall_untraced.empty() ? 1 : 0]),
                  median(norm_setup_s), 1.0 / median(norm_admission_s)},
                 {median(wall), median(setup_s), 1.0 / median(admission_s)},
                 speed);
  out.add("wall_s", wall)
      .add("setup_s", setup_s)
      .add("iterations", static_cast<std::uint64_t>(wall_untraced.size() +
                                                    wall_traced.size()));
  if (options.trace) {
    spans.set_enabled(true);
    spans.set_run(0);
    const double probe_us = flow_probe_us(spans);
    JsonObject l;
    l.add("sim.events", median(layers.events))
        .add("sim.ns_per_event",
             layers.engine_events > 0
                 ? layers.engine_s * 1e9 / layers.engine_events
                 : 0.0)
        .add("sim.pending_peak", static_cast<double>(layers.pending_peak))
        .add("net.active_flows_peak", static_cast<double>(layers.flows_peak))
        .add("net.active_flows_mean",
             layers.flow_samples > 0 ? layers.flows_sum / layers.flow_samples
                                     : 0.0)
        .add("net.burst_slice_ms", median(layers.burst_slice_ms))
        .add("net.warm_slice_ms", median(layers.warm_slice_ms))
        .add("net.allocs_per_request", median(layers.allocs_per_request))
        .add("net.flow_probe_us", probe_us)
        .add("net.bytes_delivered", median(layers.bytes_delivered))
        .add("core.admission_ms_p50", median(admission_s) * 1e3)
        .add("core.admission_ms_p99", percentile(admission_s, 0.99) * 1e3)
        .add("core.allocs_per_admission", median(admission_allocs))
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
