// Measurement toolkit shared by the three workloads: host clock, heap
// allocation counter, peak RSS, in-memory spans exported as Chrome
// trace-event JSON, small statistics helpers, and the line protocol the
// driver script reads (`op {...}` per checked operation, one
// `summary {...}` at the end). Everything here sits outside the simulator
// library: spans wrap calls into its public API, counts come from its
// public getters.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host-time budget of one run. Another iteration starts only while the
/// elapsed time plus the mean iteration so far stays within the budget, so
/// a run ends at or just before --seconds; the first `min_iterations`
/// always run.
class Budget {
 public:
  Budget(double seconds, std::size_t min_iterations)
      : seconds_(seconds), min_iterations_(min_iterations) {}
  [[nodiscard]] bool another(std::size_t done) const {
    if (done < min_iterations_) return true;
    const double elapsed = seconds_since(start_);
    return elapsed + elapsed / static_cast<double>(done) <= seconds_;
  }

 private:
  Clock::time_point start_ = Clock::now();
  double seconds_;
  std::size_t min_iterations_;
};

/// Host-speed reference. The shared host the benchmark runs on changes
/// speed by up to 1.7x for seconds to minutes at a time as other tenants
/// load it, and every timed section slows with it. SpeedRef times a fixed
/// kernel that does not touch the simulator (std::map and std::string
/// work, allocation-heavy like the simulator) on the same thread, between
/// the timed sections. scale() turns host seconds into speed-normalised
/// seconds, the host seconds multiplied by kReferenceSeconds / (mean
/// kernel time): what they would have been with the host running the
/// kernel at its reference speed. The simulator is not in the kernel, so a
/// change in its cost moves the normalised figures as much as the host
/// seconds.
class SpeedRef {
 public:
  /// The kernel's host seconds on the reference machine, uncontended
  /// (4-vCPU x86_64 VM, gcc 12.2 -O3).
  static constexpr double kReferenceSeconds = 0.0065;

  /// Runs the kernel `times` times, recording each run's host seconds.
  void sample(int times = 1);
  /// kReferenceSeconds / mean of the samples from index `first` on; 1
  /// when there are none. The mean, like the timed sections it prices,
  /// weighs each stretch of the run by how long the host spent in it.
  [[nodiscard]] double scale(std::size_t first = 0) const;
  [[nodiscard]] std::size_t count() const noexcept { return samples_.size(); }
  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// ::operator new calls (all variants) since process start.
std::uint64_t allocation_count() noexcept;

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Spans kept in memory and written once when the run ends. A span has a
/// name, start, end, the span open when it began (its parent) and the run
/// id current at that moment (one run = one replica, lifecycle or block).
/// Disabled recorders cost one branch per call.
class Spans {
 public:
  explicit Spans(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  void set_enabled(bool enabled) noexcept { enabled_ = enabled; }
  void set_run(std::uint64_t run) noexcept { run_ = run; }

  /// Opens a span under the innermost open one; returns its id.
  std::size_t open(std::string_view name);
  void close(std::size_t id);

  /// Chrome trace-event JSON ("X" complete events, microsecond times).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

  /// RAII helper: opens on construction when enabled, closes on scope exit.
  class Scope {
   public:
    Scope(Spans& spans, std::string_view name)
        : spans_(spans), id_(spans.enabled_ ? spans.open(name) : kNone) {}
    ~Scope() {
      if (id_ != kNone) spans_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    std::size_t id_;
  };

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = kNone;
    std::uint64_t run = 0;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t run_ = 0;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> values, double q);

/// One JSON object built field by field and printed as a protocol line.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonObject& add(std::string_view key, std::uint64_t value);
  JsonObject& add(std::string_view key, double value);
  JsonObject& add(std::string_view key, bool value);
  JsonObject& add(std::string_view key, const std::vector<double>& values);
  JsonObject& add(std::string_view key, const JsonObject& nested);
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }
  /// Prints `<tag> {json}` on stdout.
  void print(std::string_view tag) const;

 private:
  void key(std::string_view key);
  std::string body_;
};

/// Hex rendering of a 64-bit digest (pins compare it as a string).
std::string hex64(std::uint64_t value);

/// The end-to-end figures a workload reports, in one kind of seconds.
struct EndToEnd {
  double wall_s = 0;
  double setup_s = 0;
  double admissions_per_s = 0;
};

/// Adds the summary's end-to-end figures to `out`: "e2e" holds
/// `normalised` plus peak_rss_mb; "host" holds the same figures in host
/// seconds, the run's overall scale and every kernel sample.
void add_end_to_end(JsonObject& out, const EndToEnd& normalised,
                    const EndToEnd& host, const SpeedRef& ref);

/// Command-line options after the driver has generated the inputs.
struct Options {
  std::string workload;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::vector<std::string> inputs;  // one token per workload input
};

int run_traffic(const Options& options);
int run_fleet(const Options& options);
int run_chaos(const Options& options);

}  // namespace perfbench
