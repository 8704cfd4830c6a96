// Versioned binary checkpoint format (DESIGN.md §14). A snapshot is a flat
// byte string: an 8-byte magic, a format-version word, a tree of named
// length-prefixed sections, and a trailing FNV-1a checksum. Writer emits it,
// Reader validates and consumes it. Every stateful subsystem externalizes
// its private state through `save_state(Writer&)` / `load_state(Reader&)`
// member functions built on these primitives; the section framing makes a
// truncated, reordered, or version-skewed checkpoint fail loudly instead of
// silently misreading.
//
// The byte string doubles as the world's end-state digest: two worlds are
// bit-identical exactly when their snapshots are, so `fnv1a(bytes)` is the
// save→load→continue gate value.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/result.hpp"

namespace soda::snapshot {

/// Bumped whenever the snapshot layout changes incompatibly. A Reader
/// refuses any other version with a clear error — old checkpoints are
/// regenerated, never guessed at.
inline constexpr std::uint32_t kFormatVersion = 1;

/// FNV-1a 64 over a byte string (the checksum and digest primitive).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept;

/// Serializer. All integers little-endian, doubles bit-cast to u64.
class Writer {
 public:
  Writer();

  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view v);
  void time(sim::SimTime t) { i64(t.ns()); }

  /// Opens a named, length-prefixed section; sections nest. The length is
  /// backpatched by end_section, so owners need not precompute sizes.
  void begin_section(std::string_view name);
  void end_section();

  /// Appends the checksum and returns the finished snapshot. The Writer is
  /// spent afterwards. All sections must be closed.
  std::string finish();

  [[nodiscard]] std::size_t bytes_written() const noexcept {
    return buffer_.size();
  }

  /// Writes an object that several owners share, serializing it once per
  /// snapshot: the first call for `key` runs `write` and remembers the bytes
  /// it appended; later calls for the same key append a copy of them. The
  /// layout is unchanged (every owner still carries its own copy), because
  /// section lengths are relative and so the bytes are position-independent.
  /// `write` must close every section it opens, and `key` must stay alive
  /// and unchanged until finish().
  template <typename Write>
  void shared(const void* key, Write&& write) {
    if (const auto it = shared_.find(key); it != shared_.end()) {
      const auto [begin, size] = it->second;
      const std::size_t at = buffer_.size();
      buffer_.resize(at + size);
      std::memcpy(buffer_.data() + at, buffer_.data() + begin, size);
      return;
    }
    const std::size_t begin = buffer_.size();
    write();
    shared_.emplace(key, std::make_pair(begin, buffer_.size() - begin));
  }

 private:
  std::string buffer_;
  std::vector<std::size_t> open_sections_;  // offsets of length placeholders
  std::map<const void*, std::pair<std::size_t, std::size_t>> shared_;
};

/// Deserializer with sticky error state: the first failure (bad magic,
/// version skew, checksum mismatch, truncation, wrong section name) is
/// recorded and every later read returns a default, so call sites read
/// straight-line and check ok() once at the end.
class Reader {
 public:
  /// Validates magic, version, and checksum up front.
  explicit Reader(std::string_view bytes);

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean() { return u8() != 0; }
  std::string str();
  sim::SimTime time() { return sim::SimTime(i64()); }

  /// Enters the section that must come next; fails when the name differs.
  void begin_section(std::string_view name);
  /// Leaves the innermost section; fails unless exactly consumed.
  void end_section();

  /// Bytes left to read in the innermost open section (in the whole
  /// snapshot outside any section); 0 once a read has failed. Loaders bound
  /// a restored count by it before allocating.
  [[nodiscard]] std::size_t remaining() const noexcept;

  /// Loads an object that several owners share: when the next section,
  /// named `name`, is byte-identical to one this Reader already loaded
  /// through shared(), skips it and returns that object; otherwise runs
  /// `load` and remembers its result under those bytes. One object type per
  /// section name.
  template <typename T, typename Load>
  std::shared_ptr<const T> shared(std::string_view name, Load&& load) {
    const std::string_view bytes = peek_section(name);
    if (!bytes.empty()) {
      if (const auto it = shared_.find(bytes); it != shared_.end()) {
        cursor_ += bytes.size();
        return std::static_pointer_cast<const T>(it->second);
      }
    }
    std::shared_ptr<const T> value = load();
    if (ok() && !bytes.empty()) shared_.emplace(bytes, value);
    return value;
  }

  /// True while no read has failed.
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  /// The first failure, empty while ok().
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// Result-typed view of the final state, for plumbing into Status returns.
  [[nodiscard]] Status status() const {
    if (ok()) return {};
    return Error{"snapshot: " + error_};
  }

  void fail(std::string message);

 private:
  [[nodiscard]] bool need(std::size_t n, const char* what);
  /// The raw bytes (header included) of the next section if it is named
  /// `name` and lies within the open section; empty otherwise. Consumes
  /// nothing and records no error.
  [[nodiscard]] std::string_view peek_section(std::string_view name) const;

  std::string_view bytes_;
  std::size_t cursor_ = 0;
  std::size_t payload_end_ = 0;  // checksum excluded
  std::vector<std::pair<std::string, std::size_t>> open_sections_;
  std::string error_;
  // Sections loaded through shared(), keyed by their bytes (views into
  // bytes_, which outlives the Reader).
  std::map<std::string_view, std::shared_ptr<const void>> shared_;
};

/// Writes `bytes` to `path` atomically enough for checkpoint artifacts
/// (temp file + rename).
Status write_file(const std::string& path, std::string_view bytes);

/// Reads a whole checkpoint file.
Result<std::string> read_file(const std::string& path);

}  // namespace soda::snapshot
