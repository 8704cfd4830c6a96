// Shared guest root filesystems. A primed guest's tree (the image's
// template, tailored to its services, with the image payload merged in —
// paper §4.3) is a pure function of (image, customize flag, required
// services), and nothing changes it after priming. So each world builds it
// once per key and every guest of that key holds the same immutable tree;
// an admission copies no tree at all (DESIGN.md §8).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "image/image.hpp"
#include "os/rootfs.hpp"
#include "util/result.hpp"

namespace soda::core {

/// One world's guest-rootfs cache, owned by its Master (never static: a
/// process-wide cache would share state between ParallelRunner replicas and
/// grow across every world a process builds). Entries live as long as the
/// world.
class GuestRootFsCache {
 public:
  /// The guest tree for `image` primed with `customize` and
  /// `required_services` (ignored when not customizing): built on the first
  /// call for a key, shared afterwards. Errors are returned uncached.
  Result<std::shared_ptr<const os::RootFs>> get(
      const image::ImagePtr& image, bool customize,
      const std::vector<std::string>& required_services);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::uint64_t builds() const noexcept { return builds_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  struct Entry {
    // Holding the image keeps its address from being reused by another
    // image while the entry lives, so the address is a sound key.
    image::ImagePtr image;
    bool customize = false;
    std::vector<std::string> services;  // empty unless customizing
    std::shared_ptr<const os::RootFs> rootfs;
  };

  std::vector<Entry> entries_;
  std::uint64_t builds_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace soda::core
