// InvariantChecker: the chaos fuzzer's oracle (DESIGN.md §13). It subscribes
// to the ControlPlaneBus and, after every control-plane event, sweeps the
// whole HUP for structural invariants — placements never reference a
// detector-declared-down host, switch backends map onto live service nodes,
// host resource accounting stays within capacity, recovery converges, and
// the metrics registry's counters conserve what actually happened. The
// checker is strictly read-only and never draws randomness, so a run with
// the checker attached produces the same digest as one without it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/hup.hpp"
#include "core/switch.hpp"

namespace soda::chaos {

/// One invariant failure, timestamped with the simulation clock.
struct Violation {
  double at_s = 0;
  std::string invariant;  // short stable name, e.g. "placement-on-down-host"
  std::string detail;
};

/// One expected open accrual window for the billing-conservation check: a
/// live (created, not torn down / failed) service owned by `asp_id`,
/// currently sized at `instances` machine instances.
struct BillingExpectation {
  std::string service;
  std::string asp_id;
  int instances = 0;
};

/// Billing/accounting conservation over the ledger: every live service has
/// exactly one open accrual window (matching owner and instance count), no
/// window runs backwards or starts in the future, windows of the same
/// service never overlap (double billing), and no open window references a
/// service that is not live (billing a torn-down placement). Pure function
/// over the entry list so tests can seed corrupt ledgers directly; returns
/// one human-readable description per violation.
std::vector<std::string> billing_conservation_violations(
    const std::vector<core::BillingEntry>& entries,
    const std::vector<BillingExpectation>& live, sim::SimTime now);

class InvariantChecker {
 public:
  struct Options {
    /// Test-only hook: when the failure detector declares this host down,
    /// the checker records a synthetic "seeded-violation". This is how the
    /// Shrinker's end-to-end test plants a known-bad scenario without
    /// breaking a real invariant.
    std::string synthetic_violation_on_host_down;
  };

  /// Subscribes to `hup.master().bus()`. The checker must be destroyed
  /// before the Hup (it unsubscribes in its destructor).
  explicit InvariantChecker(core::Hup& hup, Options options = {});
  ~InvariantChecker();
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Records a violation unless `ok` holds. For driver-side checks
  /// (request conservation, routed-backend liveness) that the checker
  /// cannot see from the bus alone.
  void expect(bool ok, std::string invariant, std::string detail);

  /// Asserts that a backend the switch just routed to is a live, healthy,
  /// non-draining member of that switch's backend set.
  void check_routed(const core::ServiceSwitch& sw,
                    const core::BackEndEntry& entry);

  /// Full structural sweep now: host accounting, placement/backing-host
  /// liveness, switch-backend <-> node mapping, running-capacity floors.
  /// Scheduled automatically (coalesced, at the same sim-time) after every
  /// bus event; callable directly at quiesce points.
  void sweep();

  /// End-of-run convergence checks: no service stuck mid-lifecycle, every
  /// degraded service justified by genuine lack of capacity, the metrics
  /// registry's failure/recovery counters equal to the Master's, and the
  /// billing ledger conserving accrual (check_billing).
  void final_checks();

  /// Billing-conservation sweep against the Agent's ledger: charged windows
  /// match the services that are actually live. Part of final_checks;
  /// callable directly at quiesce points.
  void check_billing();

  [[nodiscard]] const std::vector<Violation>& violations() const noexcept {
    return violations_;
  }
  [[nodiscard]] std::size_t events_observed() const noexcept {
    return events_;
  }
  [[nodiscard]] std::size_t sweeps_run() const noexcept { return sweeps_; }

 private:
  void on_event(const core::TraceEvent& event);

  core::Hup& hup_;
  Options options_;
  std::size_t subscription_ = 0;
  bool sweep_pending_ = false;
  std::size_t events_ = 0;
  std::size_t sweeps_ = 0;
  std::vector<Violation> violations_;
};

}  // namespace soda::chaos
