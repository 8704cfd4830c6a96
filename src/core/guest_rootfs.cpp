#include "core/guest_rootfs.hpp"

#include "util/contract.hpp"

namespace soda::core {

Result<std::shared_ptr<const os::RootFs>> GuestRootFsCache::get(
    const image::ImagePtr& image, bool customize,
    const std::vector<std::string>& required_services) {
  SODA_EXPECTS(image != nullptr);
  static const std::vector<std::string> kNoServices;
  const std::vector<std::string>& services =
      customize ? required_services : kNoServices;
  for (const Entry& entry : entries_) {
    if (entry.image == image && entry.customize == customize &&
        entry.services == services) {
      ++hits_;
      return entry.rootfs;
    }
  }
  auto built = os::build_guest_rootfs(image->rootfs_template, customize,
                                      services, image->payload);
  if (!built.ok()) return built.error();
  ++builds_;
  auto rootfs = std::make_shared<const os::RootFs>(std::move(built).value());
  entries_.push_back(Entry{image, customize, services, rootfs});
  return rootfs;
}

}  // namespace soda::core
