// A small scenario language for driving a HUP from text — the operator's
// and integration-test's view of SODA. A scenario is a line-oriented
// script:
//
//   # build the paper testbed and host a service
//   host seattle 128.10.9.120
//   host tacoma  128.10.9.140
//   repo asp-repo
//   asp bioinfo key-123
//   publish web content-mb=16
//   create web-content web n=3
//   expect-nodes web-content 1
//   status web-content
//   resize web-content 2
//   teardown web-content
//   expect-services 0
//
// Parsing is strict (unknown verbs, wrong arity, bad numbers are errors
// with line numbers); execution runs against a fresh Hup and returns the
// transcript. `expect-*` verbs turn scenarios into executable assertions.
#pragma once

#include <string>
#include <vector>

#include "util/result.hpp"

namespace soda::core {

/// Largest web dataset a `publish` line may ask for, in MB: 64 GiB, far
/// above the committed scenarios' 8-16 MB, and small enough that a typo
/// cannot stall image distribution. Chaos specs share the bound.
inline constexpr long long kMaxContentMb = 65'536;

/// Longest simulated span one `advance` line may ask for: one day, far
/// beyond any committed scenario, and short enough that neither the clock
/// overflows nor the periodic timers keep a run busy for minutes. A chaos
/// spec's whole horizon shares the bound.
inline constexpr double kMaxAdvanceSeconds = 86'400;

/// One parsed scenario command.
struct ScenarioCommand {
  int line = 0;
  std::string verb;
  std::vector<std::string> args;
};

/// A parsed, validated scenario ready to run.
class Scenario {
 public:
  /// Parses and validates the script; errors carry the offending line.
  static Result<Scenario> parse(std::string_view text);

  /// Executes against a fresh paper-style HUP (empty; hosts come from the
  /// script). Returns the transcript (one line per effectful command), or
  /// the first execution/expectation error with its line number.
  Result<std::vector<std::string>> run() const;

  [[nodiscard]] const std::vector<ScenarioCommand>& commands() const noexcept {
    return commands_;
  }

 private:
  std::vector<ScenarioCommand> commands_;
};

}  // namespace soda::core
