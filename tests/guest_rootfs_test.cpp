// Shared guest root filesystems (DESIGN.md §8): every guest of one image
// holds the same immutable tree, built once per world; a different service
// set or an untailored guest gets its own tree; a withdrawn image leaves
// its guests' trees intact; and snapshots keep their bytes while restored
// guests share again.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/guest_rootfs.hpp"
#include "core/hup.hpp"
#include "image/image.hpp"
#include "snapshot/format.hpp"
#include "util/contract.hpp"

namespace soda::core {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

/// A unit that fills one paper-testbed host (1.5x slow-down inflation), so
/// an n-unit service gets n nodes.
host::MachineConfig host_sized_unit() {
  host::MachineConfig m;
  m.cpu_mhz = 1000;
  m.memory_mb = 128;
  return m;
}

ServiceCreationReply create(Hup& hup, const image::ImageLocation& loc,
                            const std::string& name, int n,
                            host::MachineConfig m = host_sized_unit()) {
  ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = name;
  request.image_location = loc;
  request.requirement = {n, m};
  ApiResult<ServiceCreationReply> out =
      ApiError{ApiErrorCode::kInternal, "never fired"};
  hup.agent().service_creation(
      request, [&](auto reply, sim::SimTime) { out = std::move(reply); });
  hup.engine().run();
  return must(std::move(out));
}

struct World {
  Hup::PaperTestbed tb = Hup::paper_testbed();
  Hup& hup = *tb.hup;

  /// The paper testbed plus four more seattle-class hosts.
  World() {
    for (int i = 0; i < 4; ++i) {
      host::HostSpec spec = host::HostSpec::seattle();
      spec.name = "extra-" + std::to_string(i);
      hup.add_host(spec,
                   net::Ipv4Address(10, 9, static_cast<std::uint8_t>(i), 16),
                   16);
    }
    hup.agent().register_asp("asp", "key");
  }

  ServiceCreationReply create(const image::ImageLocation& loc,
                              const std::string& name, int n,
                              host::MachineConfig m = host_sized_unit()) {
    return core::create(hup, loc, name, n, m);
  }
};

const os::RootFs& tree_of(Hup& hup, const NodeDescriptor& node) {
  SodaDaemon* daemon = hup.find_daemon(node.host_name);
  SODA_ENSURES(daemon != nullptr);
  const vm::VirtualServiceNode* vsn = daemon->find_node(node.node_name);
  SODA_ENSURES(vsn != nullptr);
  return vsn->uml().rootfs();
}

TEST(GuestRootFs, NodesOfOneImageShareOneTree) {
  World w;
  const auto loc = must(w.tb.repo->publish(image::web_content_image(4 * kMiB)));
  const auto web = w.create(loc, "web", 2);
  const auto api = w.create(loc, "api", 1);
  ASSERT_EQ(web.nodes.size(), 2u);
  const os::RootFs* shared = &tree_of(w.hup, web.nodes[0]);
  EXPECT_EQ(&tree_of(w.hup, web.nodes[1]), shared);
  EXPECT_EQ(&tree_of(w.hup, api.nodes[0]), shared);
  // The shared tree is the one the daemon's pipeline builds.
  const auto img = image::web_content_image(4 * kMiB);
  const os::RootFs built = must(os::build_guest_rootfs(
      img.rootfs_template, true, img.required_services, img.payload));
  EXPECT_EQ(shared->fs.files_under("/"), built.fs.files_under("/"));
  EXPECT_EQ(shared->image_bytes(), built.image_bytes());
  EXPECT_EQ(w.hup.master().guest_rootfs().builds(), 1u);
  EXPECT_EQ(w.hup.master().guest_rootfs().hits(), 2u);
}

TEST(GuestRootFs, OtherServicesOrNoTailoringGetTheirOwnTree) {
  // Components of a partitioned image need different system services, so
  // each gets its own tree; the two frontend units share theirs.
  World w;
  const auto loc = must(w.tb.repo->publish(image::online_shop_image()));
  const auto shop = w.create(loc, "shop", 4, host::MachineConfig::table1_example());
  ASSERT_EQ(shop.nodes.size(), 3u);
  EXPECT_NE(&tree_of(w.hup, shop.nodes[0]), &tree_of(w.hup, shop.nodes[1]));
  EXPECT_NE(&tree_of(w.hup, shop.nodes[1]), &tree_of(w.hup, shop.nodes[2]));
  EXPECT_NE(&tree_of(w.hup, shop.nodes[0]), &tree_of(w.hup, shop.nodes[2]));
  EXPECT_EQ(w.hup.master().guest_rootfs().size(), 3u);

  // The cache itself: the customize flag and the service set are keys.
  GuestRootFsCache cache;
  const image::ImagePtr img =
      std::make_shared<const image::ServiceImage>(image::web_content_image(kMiB));
  const auto tailored = must(cache.get(img, true, img->required_services));
  const auto raw = must(cache.get(img, false, img->required_services));
  const auto other = must(cache.get(img, true, {"syslog"}));
  EXPECT_NE(tailored, raw);
  EXPECT_NE(tailored, other);
  EXPECT_NE(raw, other);
  EXPECT_LT(tailored->enabled_services.size(), raw->enabled_services.size());
  // Untailored trees ignore the service set.
  EXPECT_EQ(must(cache.get(img, false, {"syslog"})), raw);
  EXPECT_EQ(must(cache.get(img, true, img->required_services)), tailored);
  // A different image object is a different key, even with equal content.
  const image::ImagePtr twin =
      std::make_shared<const image::ServiceImage>(image::web_content_image(kMiB));
  EXPECT_NE(must(cache.get(twin, true, twin->required_services)), tailored);
  EXPECT_EQ(cache.builds(), 4u);
  // Errors are not cached.
  EXPECT_FALSE(cache.get(img, true, {"no-such-service"}).ok());
  EXPECT_EQ(cache.size(), 4u);
}

TEST(GuestRootFs, WithdrawnImageLeavesRunningGuestsTreesValid) {
  World w;
  const auto loc = must(w.tb.repo->publish(image::web_content_image(4 * kMiB)));
  const auto web = w.create(loc, "web", 2);
  const os::RootFs& tree = tree_of(w.hup, web.nodes[0]);
  const std::int64_t bytes = tree.image_bytes();
  const std::size_t files = tree.fs.file_count();

  ASSERT_TRUE(w.tb.repo->withdraw("web-content"));
  // Priming another image after the withdrawal grows the cache; the
  // withdrawn image's guests keep their tree.
  const auto pot = must(w.tb.repo->publish(image::honeypot_image()));
  w.create(pot, "pot", 1);
  EXPECT_EQ(w.hup.master().guest_rootfs().size(), 2u);

  for (const auto& node : web.nodes) {
    const os::RootFs& still = tree_of(w.hup, node);
    EXPECT_EQ(&still, &tree);
    EXPECT_EQ(still.image_bytes(), bytes);
    EXPECT_EQ(still.fs.file_count(), files);
  }
  // The world still checkpoints and restores.
  const auto saved = must(w.hup.save_snapshot());
  Hup restored;
  ASSERT_TRUE(restored.load_snapshot(saved).ok());
  EXPECT_EQ(must(restored.state_digest()), snapshot::fnv1a(saved));
}

TEST(GuestRootFs, SaveLoadSaveIsByteIdenticalAndRestoredGuestsShare) {
  World w;
  const auto web_loc =
      must(w.tb.repo->publish(image::web_content_image(4 * kMiB)));
  const auto pot_loc = must(w.tb.repo->publish(image::honeypot_image()));
  const auto web = w.create(web_loc, "web", 2);
  const auto api = w.create(web_loc, "api", 1);
  const auto pot = w.create(pot_loc, "pot", 1);

  const auto bytes = must(w.hup.save_snapshot());
  Hup restored;
  ASSERT_TRUE(restored.load_snapshot(bytes).ok());
  EXPECT_EQ(must(restored.save_snapshot()), bytes);

  const os::RootFs* shared = &tree_of(restored, web.nodes[0]);
  EXPECT_EQ(&tree_of(restored, web.nodes[1]), shared);
  EXPECT_EQ(&tree_of(restored, api.nodes[0]), shared);
  EXPECT_NE(&tree_of(restored, pot.nodes[0]), shared);
  EXPECT_EQ(shared->fs.files_under("/"),
            tree_of(w.hup, web.nodes[0]).fs.files_under("/"));
}

TEST(GuestRootFs, PrimingAfterALoadMatchesTheUninterruptedRun) {
  World w;
  const auto loc = must(w.tb.repo->publish(image::web_content_image(4 * kMiB)));
  w.create(loc, "web", 2);
  const auto bytes = must(w.hup.save_snapshot());
  Hup restored;
  ASSERT_TRUE(restored.load_snapshot(bytes).ok());

  // The restored world's cache starts empty: its next guest of the same
  // image gets a freshly built tree, equal to the restored guests' trees.
  const auto again = w.create(loc, "api", 2);
  create(restored, loc, "api", 2);
  EXPECT_EQ(must(restored.save_snapshot()), must(w.hup.save_snapshot()));
  EXPECT_EQ(restored.master().guest_rootfs().builds(), 1u);
  EXPECT_EQ(tree_of(restored, again.nodes[0]).fs.files_under("/"),
            tree_of(w.hup, again.nodes[0]).fs.files_under("/"));
}

}  // namespace
}  // namespace soda::core
