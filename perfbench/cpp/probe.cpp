#include "probe.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

namespace perfbench {
namespace {

// Keeps the speed-reference kernel's result alive.
volatile std::size_t kernel_sink = 0;

}  // namespace

void SpeedRef::sample(int times) {
  for (int t = 0; t < times; ++t) {
    const auto start = Clock::now();
    std::uint64_t x = 1;
    std::map<std::uint32_t, std::string> tree;
    for (int i = 0; i < 16000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      tree[static_cast<std::uint32_t>(x >> 40)] = std::to_string(x);
    }
    std::size_t sink = tree.size();
    for (int i = 0; i < 16000; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto it = tree.lower_bound(static_cast<std::uint32_t>(x >> 40));
      if (it != tree.end()) sink += it->second.size();
    }
    kernel_sink = sink;
    samples_.push_back(seconds_since(start));
  }
}

double SpeedRef::scale(std::size_t first) const {
  if (first >= samples_.size()) return 1.0;
  double sum = 0;
  for (std::size_t i = first; i < samples_.size(); ++i) sum += samples_[i];
  return kReferenceSeconds * static_cast<double>(samples_.size() - first) / sum;
}

void add_end_to_end(JsonObject& out, const EndToEnd& normalised,
                    const EndToEnd& host, const SpeedRef& ref) {
  out.add("e2e", JsonObject()
                     .add("wall_s", normalised.wall_s)
                     .add("setup_s", normalised.setup_s)
                     .add("peak_rss_mb", peak_rss_mb())
                     .add("admissions_per_s", normalised.admissions_per_s));
  out.add("host", JsonObject()
                      .add("wall_s", host.wall_s)
                      .add("setup_s", host.setup_s)
                      .add("admissions_per_s", host.admissions_per_s)
                      .add("speed_scale", ref.scale())
                      .add("speed_ref_s", ref.samples()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Spans::Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Spans::open(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = stack_.empty() ? kNone : stack_.back();
  span.run = run_;
  span.start_ns = now_ns();
  spans_.push_back(std::move(span));
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::close(std::size_t id) {
  spans_[id].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"run\":%" PRIu64 "}}",
                 i == 0 ? "" : ",", s.name.c_str(),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.run);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

void JsonObject::key(std::string_view key) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += key;
  body_ += "\":";
}

JsonObject& JsonObject::add(std::string_view k, std::string_view value) {
  key(k);
  body_ += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') body_ += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      body_ += ' ';
      continue;
    }
    body_ += c;
  }
  body_ += '"';
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, std::uint64_t value) {
  key(k);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, double value) {
  key(k);
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g",
                std::isfinite(value) ? value : 0.0);
  body_ += buffer;
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, bool value) {
  key(k);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::add(std::string_view k,
                            const std::vector<double>& values) {
  key(k);
  body_ += '[';
  char buffer[40];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buffer, sizeof buffer, "%s%.17g", i ? "," : "", values[i]);
    body_ += buffer;
  }
  body_ += ']';
  return *this;
}

JsonObject& JsonObject::add(std::string_view k, const JsonObject& nested) {
  key(k);
  body_ += nested.str();
  return *this;
}

void JsonObject::print(std::string_view tag) const {
  std::printf("%.*s %s\n", static_cast<int>(tag.size()), tag.data(),
              str().c_str());
}

std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016" PRIx64, value);
  return buffer;
}

}  // namespace perfbench
