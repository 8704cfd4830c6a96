// Guest root filesystems. The paper boots four concrete rootfs templates
// (Table 2): rootfs_base_1.0 (29.3 MB), root_fs_tomrtbt_1.7.205 (15 MB),
// root_fs_lfs_4.0 (400 MB) and root_fs.rh-7.2-server.pristine (253 MB). Each
// template here reproduces the size class and, more importantly, the set of
// system services it boots — the dominant term in bootstrapping time.
//
// The SODA Daemon's customization step (paper §4.3) is `customize_rootfs`:
// retain only the system services the application needs, include only the
// packages in their dependency closure, and report whether the result fits a
// RAM disk.
#pragma once

#include <string>
#include <vector>

#include "os/filesystem.hpp"
#include "os/init.hpp"
#include "os/package.hpp"
#include "snapshot/format.hpp"
#include "util/result.hpp"

namespace soda::os {

/// The four rootfs templates evaluated in the paper.
enum class RootFsTemplate {
  kBase10,      // rootfs_base_1.0 — minimal web-capable base
  kTomsrtbt,    // root_fs_tomrtbt_1.7.205 — tiny rescue-disk style system
  kLfs40,       // root_fs_lfs_4.0 — Linux From Scratch with bulk /usr data
  kRh72Server,  // root_fs.rh-7.2-server.pristine — full-blown server install
};

/// The paper's name string for a template.
std::string rootfs_template_name(RootFsTemplate t);

/// A concrete guest root filesystem: the file tree plus the system services
/// its init will start.
struct RootFs {
  std::string template_name;
  FileSystem fs;
  std::vector<std::string> enabled_services;   // start-order roots
  std::vector<std::string> installed_packages;  // sorted, unique

  [[nodiscard]] std::int64_t image_bytes() const noexcept { return fs.total_size(); }
};

/// Checkpoints a RootFs verbatim (tree, enabled services, packages). Used
/// for live guests, whose trees were customized and merged with their
/// image at priming — cheaper and safer than replaying the build pipeline.
inline void save_rootfs(snapshot::Writer& writer, const RootFs& rootfs) {
  writer.begin_section("rootfs");
  writer.str(rootfs.template_name);
  rootfs.fs.save_state(writer);
  writer.u64(rootfs.enabled_services.size());
  for (const std::string& service : rootfs.enabled_services) writer.str(service);
  writer.u64(rootfs.installed_packages.size());
  for (const std::string& package : rootfs.installed_packages) {
    writer.str(package);
  }
  writer.end_section();
}
inline RootFs load_rootfs(snapshot::Reader& reader) {
  RootFs rootfs;
  reader.begin_section("rootfs");
  rootfs.template_name = reader.str();
  rootfs.fs.load_state(reader);
  const std::uint64_t services = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < services; ++i) {
    rootfs.enabled_services.push_back(reader.str());
  }
  const std::uint64_t packages = reader.u64();
  for (std::uint64_t i = 0; reader.ok() && i < packages; ++i) {
    rootfs.installed_packages.push_back(reader.str());
  }
  reader.end_section();
  return rootfs;
}

/// The package set backing the standard service catalog (glibc, apache,
/// sendmail, ...). Sizes are period-plausible; relative magnitudes matter.
const PackageDatabase& standard_package_database();

/// Builds one of the four paper templates against the standard catalog and
/// package database.
RootFs build_rootfs(RootFsTemplate t);

/// Shared immutable instance of a built template. Building a tree means
/// hundreds of allocations; every node priming used to pay it (plus a full
/// customize pass) before mutating its own copy, which dominated the
/// admission path's allocation count. Callers copy what they mutate.
/// Thread-safe (ParallelRunner replicas share the process-wide cache; the
/// cached value is a pure function of the template, so sharing cannot leak
/// state between replicas).
const RootFs& cached_base_rootfs(RootFsTemplate t);

/// Shared immutable customized template: exactly
/// customize_rootfs(build_rootfs(t), required_services), computed once per
/// distinct (template, services) pair. Callers copy what they mutate.
Result<const RootFs*> cached_customized_rootfs(
    RootFsTemplate t, const std::vector<std::string>& required_services);

/// A guest's root filesystem as the SODA Daemon primes it (paper §4.3):
/// template `t`, tailored to `required_services` when `customize` is set,
/// with the application image's `payload` merged into its root. A pure
/// function of its arguments. The tailored template comes from the cache
/// above, so a call pays one tree copy plus the merge.
Result<RootFs> build_guest_rootfs(
    RootFsTemplate t, bool customize,
    const std::vector<std::string>& required_services,
    const FileSystem& payload);

/// SODA Daemon rootfs tailoring: keeps only `required_services` (plus their
/// dependency closure) of `base`'s enabled services, and only the packages
/// that closure needs (plus the template's base files). Fails when a
/// required service is not available in the catalog.
Result<RootFs> customize_rootfs(const RootFs& base,
                                const std::vector<std::string>& required_services);

/// RAM-disk eligibility rule used by the boot model: the customized image
/// must fit in 40% of the memory left after the guest's own allocation.
bool fits_ram_disk(std::int64_t image_bytes, std::int64_t host_ram_mb,
                   std::int64_t guest_mem_mb) noexcept;

}  // namespace soda::os
