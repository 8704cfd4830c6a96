// Versioned world snapshots (DESIGN.md §14): format primitives, per-
// subsystem round trips, and the end-to-end gate — save → load → continue
// must be bit-identical (FNV digest of the snapshot bytes) to an
// uninterrupted run.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/hup.hpp"
#include "image/image.hpp"
#include "os/filesystem.hpp"
#include "snapshot/format.hpp"
#include "vm/uml.hpp"

namespace soda {
namespace {

constexpr std::int64_t kMiB = 1024 * 1024;

// --- Format primitives ------------------------------------------------------

TEST(SnapshotFormat, PrimitivesRoundTrip) {
  snapshot::Writer writer;
  writer.begin_section("test");
  writer.u8(0xAB);
  writer.u16(0xBEEF);
  writer.u32(0xDEADBEEFu);
  writer.u64(0x0123456789ABCDEFull);
  writer.i64(-42);
  writer.f64(3.14159);
  writer.boolean(true);
  writer.str("hello, snapshot");
  writer.time(sim::SimTime::milliseconds(250));
  writer.end_section();
  const std::string bytes = writer.finish();

  snapshot::Reader reader(bytes);
  reader.begin_section("test");
  EXPECT_EQ(reader.u8(), 0xAB);
  EXPECT_EQ(reader.u16(), 0xBEEF);
  EXPECT_EQ(reader.u32(), 0xDEADBEEFu);
  EXPECT_EQ(reader.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.f64(), 3.14159);
  EXPECT_TRUE(reader.boolean());
  EXPECT_EQ(reader.str(), "hello, snapshot");
  EXPECT_EQ(reader.time(), sim::SimTime::milliseconds(250));
  reader.end_section();
  EXPECT_TRUE(reader.ok()) << reader.error();
}

TEST(SnapshotFormat, SectionNameMismatchFails) {
  snapshot::Writer writer;
  writer.begin_section("alpha");
  writer.u32(1);
  writer.end_section();
  const std::string bytes = writer.finish();

  snapshot::Reader reader(bytes);
  reader.begin_section("beta");
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("alpha"), std::string::npos);
}

TEST(SnapshotFormat, UnderconsumedSectionFails) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.u32(1);
  writer.u32(2);
  writer.end_section();
  const std::string bytes = writer.finish();

  snapshot::Reader reader(bytes);
  reader.begin_section("s");
  reader.u32();  // one of two words
  reader.end_section();
  EXPECT_FALSE(reader.ok());
}

TEST(SnapshotFormat, ChecksumCorruptionDetected) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.u64(7);
  writer.end_section();
  std::string bytes = writer.finish();
  bytes[bytes.size() / 2] ^= 0x40;  // flip a payload bit

  snapshot::Reader reader(bytes);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("checksum"), std::string::npos);
}

TEST(SnapshotFormat, VersionSkewRejected) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.end_section();
  std::string bytes = writer.finish();
  // The version word sits right after the 8-byte magic; recompute the
  // trailing checksum so ONLY the version is wrong.
  bytes[8] = static_cast<char>(snapshot::kFormatVersion + 1);
  const std::string_view payload(bytes.data(), bytes.size() - 8);
  const std::uint64_t sum = snapshot::fnv1a(payload);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
  }

  snapshot::Reader reader(bytes);
  EXPECT_FALSE(reader.ok());
  EXPECT_NE(reader.error().find("version"), std::string::npos);
}

TEST(SnapshotFormat, TruncationDetected) {
  snapshot::Writer writer;
  writer.begin_section("s");
  writer.str("some payload to make the snapshot non-trivial");
  writer.end_section();
  const std::string bytes = writer.finish();
  snapshot::Reader reader(std::string_view(bytes).substr(0, bytes.size() / 2));
  EXPECT_FALSE(reader.ok());
}

// --- World round trips ------------------------------------------------------

core::ApiResult<core::ServiceCreationReply> create_service(
    core::Hup& hup, const image::ImageLocation& loc, const std::string& name,
    int n, host::MachineConfig m = {}) {
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = name;
  request.image_location = loc;
  request.requirement = {n, m};
  core::ApiResult<core::ServiceCreationReply> out =
      core::ApiError{core::ApiErrorCode::kInternal, "never fired"};
  hup.agent().service_creation(
      request, [&](auto reply, sim::SimTime) { out = std::move(reply); });
  hup.engine().run();
  return out;
}

/// Restores `bytes` into a bare Hup constructed with the same config as the
/// saved world (hosts, repositories, and clients come from the snapshot —
/// the restore target must be fresh).
std::unique_ptr<core::Hup> restore_world(const std::string& bytes,
                                         core::MasterConfig config = {}) {
  auto hup = std::make_unique<core::Hup>(config);
  must(hup->load_snapshot(bytes));
  return hup;
}

TEST(SnapshotWorld, EmptyWorldRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));
}

TEST(SnapshotWorld, RunningServiceRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));

  // The restored service is fully live: nodes found, switch routable,
  // billing ledger intact.
  core::Hup& hup = *restored;
  const core::ServiceRecord* record = hup.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), core::ServiceState::kRunning);
  ASSERT_FALSE(record->nodes.empty());
  EXPECT_NE(hup.find_daemon(record->nodes[0].host_name), nullptr);
  EXPECT_NE(
      hup.find_daemon(record->nodes[0].host_name)->find_node("web/0"),
      nullptr);
  EXPECT_EQ(hup.agent().billing().entries().size(), 1u);
  EXPECT_TRUE(hup.agent().billing().entries()[0].open());
}

TEST(SnapshotWorld, ContinuationIsBitIdentical) {
  // The gate: run A to t0, snapshot, run A on to t1. Restore B from the
  // snapshot, run B to t1. Digests at t1 must match bit for bit.
  auto make_world = [] {
    auto tb = core::Hup::paper_testbed();
    tb.hup->agent().register_asp("asp", "key");
    return tb;
  };
  auto tb = make_world();
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));
  tb.hup->enable_failure_detection();
  const sim::SimTime t0 = tb.hup->engine().now() + sim::SimTime::seconds(2);
  tb.hup->engine().run_until(t0);

  const auto bytes = must(tb.hup->save_snapshot());

  // Continue the original with a mid-flight host failure + recovery.
  tb.hup->crash_host("tacoma");
  tb.hup->engine().run_until(t0 + sim::SimTime::seconds(3));
  tb.hup->recover_host("tacoma");
  tb.hup->engine().run_until(t0 + sim::SimTime::seconds(8));
  const std::uint64_t original = must(tb.hup->state_digest());

  // Restore and replay the same continuation.
  auto restored = restore_world(bytes);
  restored->crash_host("tacoma");
  restored->engine().run_until(t0 + sim::SimTime::seconds(3));
  restored->recover_host("tacoma");
  restored->engine().run_until(t0 + sim::SimTime::seconds(8));
  EXPECT_EQ(must(restored->state_digest()), original);
}

TEST(SnapshotWorld, DegradedServiceRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));
  tb.hup->enable_failure_detection();
  tb.hup->crash_host("tacoma");
  // Let the detector declare the host dead (recovery may be partial — that
  // is the point: a degraded world must checkpoint too).
  const sim::SimTime t0 = tb.hup->engine().now() + sim::SimTime::seconds(3);
  tb.hup->engine().run_until(t0);
  ASSERT_TRUE(tb.hup->master().host_down("tacoma"));

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));
  EXPECT_TRUE(restored->master().host_down("tacoma"));

  // Both worlds continue identically through the host's return.
  tb.hup->recover_host("tacoma");
  restored->recover_host("tacoma");
  tb.hup->engine().run_until(t0 + sim::SimTime::seconds(5));
  restored->engine().run_until(t0 + sim::SimTime::seconds(5));
  EXPECT_EQ(must(restored->state_digest()), must(tb.hup->state_digest()));
}

TEST(SnapshotWorld, WarmImageCacheRoundTrip) {
  core::MasterConfig config;
  config.distribution.enabled = true;
  auto tb = core::Hup::paper_testbed(config);
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(8 * kMiB)));
  Status warmed = Error{"never fired"};
  tb.hup->master().warm_hosts(loc, {"seattle", "tacoma"},
                              [&](Status s, sim::SimTime) { warmed = s; });
  tb.hup->engine().run();
  must(warmed);

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes, config);
  EXPECT_EQ(must(restored->state_digest()), snapshot::fnv1a(bytes));

  // The warmed cache survives: creating the service on the restored world
  // must hit the chunk caches, not the origin.
  must(create_service(*restored, loc, "web", 2));
  const auto& dist = restored->find_daemon("seattle")->distributor();
  EXPECT_GT(dist.chunks_from_cache(), 0u);
}

TEST(SnapshotWorld, MismatchedConfigRejected) {
  auto tb = core::Hup::paper_testbed();
  const auto bytes = must(tb.hup->save_snapshot());

  core::MasterConfig other;
  other.slowdown_factor = 2.0;
  core::Hup fresh(other);
  const Status status = fresh.load_snapshot(bytes);
  ASSERT_FALSE(status);
  EXPECT_NE(status.error().message.find("config mismatch"), std::string::npos);
}

TEST(SnapshotWorld, NonQuiescedWorldRefusesToSave) {
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  core::ServiceCreationRequest request;
  request.credentials = {"asp", "key"};
  request.service_name = "web";
  request.image_location = loc;
  request.requirement = {1, {}};
  tb.hup->agent().service_creation(request, [](auto, sim::SimTime) {});
  // Mid-priming: downloads and boots are in flight — not checkpointable.
  const Result<std::string> bytes = tb.hup->save_snapshot();
  ASSERT_FALSE(bytes);
  EXPECT_NE(bytes.error().message.find("not quiesced"), std::string::npos);
}

TEST(SnapshotWorld, FileRoundTrip) {
  auto tb = core::Hup::paper_testbed();
  const std::string path = ::testing::TempDir() + "soda_world.snap";
  must(tb.hup->save_snapshot_file(path));
  core::Hup restored;
  must(restored.load_snapshot_file(path));
  EXPECT_EQ(must(restored.state_digest()), must(tb.hup->state_digest()));
}

TEST(SnapshotWorld, MidBatchRoundTrip) {
  // Checkpoint between two creations of a rollout batch: the first service
  // is live, the second not yet requested. Both worlds then run the same
  // second creation and must land bit-identical — a checkpoint mid-rollout
  // is a usable branch point.
  auto tb = core::Hup::paper_testbed();
  tb.hup->agent().register_asp("asp", "key");
  const auto loc = must(tb.repo->publish(image::web_content_image(4 * kMiB)));
  must(create_service(*tb.hup, loc, "web", 2));

  const auto bytes = must(tb.hup->save_snapshot());
  auto restored = restore_world(bytes);

  must(create_service(*tb.hup, loc, "api", 1));
  must(create_service(*restored, loc, "api", 1));
  EXPECT_EQ(must(restored->state_digest()), must(tb.hup->state_digest()));
  EXPECT_EQ(restored->agent().billing().entries().size(), 2u);
}

TEST(SnapshotWorld, GoldenCheckpointStillLoads) {
  // Differential regression: a checkpoint written by THIS format version is
  // committed in tests/seeds/. It must keep loading, and its digest must
  // stay pinned — any accidental format or serialization-order change
  // breaks this test before it breaks someone's saved world.
  core::Hup restored;
  const Status loaded = restored.load_snapshot_file(SODA_GOLDEN_SNAPSHOT);
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(must(restored.state_digest()), SODA_GOLDEN_DIGEST);

  // The golden world is the paper testbed with one running service; prove
  // it is alive, not just parseable.
  const core::ServiceRecord* record = restored.master().find_service("web");
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->lifecycle.state(), core::ServiceState::kRunning);
}

// --- Malformed guest trees ---------------------------------------------------
// Each case mutates one field of a saved world's first guest rootfs, re-seals
// the checksum so only the field is wrong, and expects a load error (never
// an abort).

class BadGuestTree : public ::testing::Test {
 protected:
  void SetUp() override {
    auto tb = core::Hup::paper_testbed();
    tb.hup->agent().register_asp("asp", "key");
    // A payload nested to the deepest level a tree may have, with a sibling
    // file after the deepest leaf.
    auto img = image::web_content_image(kMiB);
    std::string deep;
    for (int i = 1; i < os::FileSystem::kMaxDepth; ++i) deep += "/d";
    must(img.payload.add_file(deep + "/deepleaf", 1));
    must(img.payload.add_file(deep + "/zz", 1));
    const auto loc = must(tb.repo->publish(std::move(img)));
    must(create_service(*tb.hup, loc, "web", 1));
    saved_ = must(tb.hup->save_snapshot());
    core::Hup restored;
    ASSERT_TRUE(restored.load_snapshot(saved_).ok());
    rootfs_ = saved_.find(std::string("\x06\x00rootfs", 8));
    ASSERT_NE(rootfs_, std::string::npos);
  }

  /// Offset of the (type u8, size i64, child count u64) header of the guest
  /// tree's first node named `name`; "/" names the root.
  std::size_t node(const std::string& name) const {
    if (name == "/") {
      const std::size_t fs =
          saved_.find(std::string("\x0a\x00" "filesystem", 12), rootfs_);
      return fs + 2 + 10 + 8;
    }
    std::string needle(4, '\0');
    needle[0] = static_cast<char>(name.size());
    needle += name;
    return saved_.find(needle, rootfs_) + needle.size();
  }

  struct Write {
    std::size_t at;
    std::uint64_t value;
    int width = 8;  // bytes, little-endian
  };

  /// Loads `saved_` with `writes` applied and the checksum re-sealed.
  Status load_with(std::initializer_list<Write> writes) const {
    std::string bytes = saved_;
    for (const Write& w : writes) {
      for (int i = 0; i < w.width; ++i) {
        bytes[w.at + i] = static_cast<char>((w.value >> (8 * i)) & 0xFF);
      }
    }
    const std::uint64_t sum =
        snapshot::fnv1a(std::string_view(bytes.data(), bytes.size() - 8));
    for (int i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<char>((sum >> (8 * i)) & 0xFF);
    }
    core::Hup restored;
    return restored.load_snapshot(bytes);
  }

  static void expect_error(const Status& status, const std::string& text) {
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.error().message.find(text), std::string::npos)
        << status.error().message;
  }

  std::string saved_;
  std::size_t rootfs_ = 0;
};

TEST_F(BadGuestTree, UnknownFileTypeIsRejected) {
  expect_error(load_with({{node("/"), 7, 1}}), "unknown file type 7");
}

TEST_F(BadGuestTree, NegativeSizeIsRejected) {
  expect_error(
      load_with({{node("deepleaf") + 1, static_cast<std::uint64_t>(-5)}}),
      "negative file size");
}

TEST_F(BadGuestTree, RegularFileWithChildrenIsRejected) {
  expect_error(load_with({{node("srv"), 0, 1}}), "regular file with children");
  expect_error(load_with({{node("/"), 0, 1}}), "root is not a directory");
}

TEST_F(BadGuestTree, NestingPastTheBoundIsRejected) {
  // The deepest leaf becomes a directory whose one child is its sibling.
  const std::size_t leaf = node("deepleaf");
  expect_error(load_with({{leaf, 1, 1}, {leaf + 9, 1}}),
               "nesting deeper than 64 levels");
}

TEST_F(BadGuestTree, ChildCountBeyondTheBytesLeftIsRejected) {
  expect_error(load_with({{node("/") + 9, std::uint64_t{1} << 40}}),
               "do not fit in the bytes left");
}

TEST_F(BadGuestTree, GuestMemoryNoLargerThanTheKernelIsRejected) {
  expect_error(load_with({{rootfs_ - 8, vm::UserModeLinux::kKernelMemoryMb}}),
               "does not exceed the 16 MB guest kernel");
}

}  // namespace
}  // namespace soda
