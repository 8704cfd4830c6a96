// Chaos scenario runner: materializes a ChaosSpec into a fresh Hup, drives
// its traffic open-loop while the fault plan fires, stabilizes recovery
// after the horizon, and folds the complete end state (trace, metrics,
// services, switches, hosts) into one FNV digest. The digest excludes the
// InvariantChecker's own state, so serial == ParallelRunner and
// checker-on == checker-off comparisons are both exact.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/invariants.hpp"
#include "chaos/spec.hpp"

namespace soda::chaos {

struct ChaosOptions {
  /// Attach the InvariantChecker (off when measuring its overhead).
  bool check_invariants = true;
  /// Forwarded to InvariantChecker::Options — the Shrinker test's seeded
  /// failure.
  std::string synthetic_violation_on_host_down;
  /// When non-empty, write a chaos checkpoint (chaos/checkpoint.hpp) of the
  /// built world at T0 — services running, switch policies set, failure
  /// detector armed, no fault fired yet — to this path, then keep running.
  std::string save_checkpoint;
  /// When non-empty, warm-start: restore the T0 world from this checkpoint
  /// instead of building hosts and creating services. The checkpoint's
  /// embedded base spec must be compatible with `spec` (same fleet,
  /// placement, content, services); faults, traffic, and horizon may
  /// differ. Falls back to spec.snapshot (the `# snapshot:` reproducer
  /// header) when empty.
  std::string from_checkpoint;
};

/// Everything one scenario run produces.
struct ChaosReport {
  /// FNV-1a over the end state; bit-identical across replicas and checker
  /// settings.
  std::uint64_t digest = 0;
  /// Non-empty when the spec could not even be materialized (unknown
  /// policy, rejected fault plan) — distinct from invariant violations.
  std::string setup_error;
  std::vector<Violation> violations;
  std::uint64_t requests = 0;  // open-loop arrivals driven (incl. failovers)
  std::uint64_t routed = 0;
  std::uint64_t refused = 0;
  std::uint64_t faults_injected = 0;
  std::size_t services_running = 0;   // creations that reached kRunning
  std::size_t creations_rejected = 0;
  /// The world was restored from a checkpoint rather than built. A warm
  /// continuation's digest is bit-identical to the cold run's — the
  /// fig_snapshot gate.
  bool warm_started = false;
};

/// Builds the spec's HUP, runs it to `horizon_s` past fault-arming, then
/// quiesces and runs the checker's final sweep. Deterministic: equal specs
/// yield equal reports (modulo `violations` emptiness when the checker is
/// off).
ChaosReport run_scenario(const ChaosSpec& spec, const ChaosOptions& options = {});

}  // namespace soda::chaos
