// A HUP host: one physical server of the hosting utility platform. It owns
// the machine's resource inventory and hands out 'slices' — the reservations
// that back virtual service nodes (paper §2.1). The host also carries the
// performance characteristics the boot and syscall models need (clock rate,
// RAM, disk and RAM-disk streaming rates) and its LAN attachment point.
//
// Fleet-scale data layout (DESIGN.md §11): slices live in slot-based
// parallel arrays with a free list, and a SliceId encodes (slot,
// generation) so release/resize/find are O(1) with stale handles rejected
// by generation mismatch — never aliased to a reused slot. The reserved
// aggregate is maintained incrementally, making available() O(1), and a
// change hook reports every change to it, so the placement index keyed by
// spare CPU moves a host only when that host's reservations change.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "host/resources.hpp"
#include "net/address.hpp"
#include "net/bridge.hpp"
#include "net/flow_network.hpp"
#include "net/proxy.hpp"
#include "snapshot/format.hpp"
#include "util/result.hpp"

namespace soda::host {

/// Static description of a HUP host's hardware.
struct HostSpec {
  std::string name;
  double cpu_ghz = 1.0;
  std::int64_t ram_mb = 512;
  std::int64_t disk_gb = 40;
  double nic_mbps = 100;
  /// Sequential read rate of the local disk (MB/s) — rootfs mount cost.
  double disk_mb_s = 30;
  /// RAM-disk streaming rate (MB/s).
  double ramdisk_mb_s = 180;

  /// Full machine resources as a vector (one core assumed, as in the paper's
  /// testbed).
  [[nodiscard]] ResourceVector capacity() const;

  /// The paper's testbed machines (§4): a Dell PowerEdge server and a Dell
  /// desktop PC.
  static HostSpec seattle();  // 2.6 GHz Xeon, 2 GB RAM
  static HostSpec tacoma();   // 1.8 GHz P4, 768 MB RAM
};

/// Handle to a reservation made on a HupHost. Encodes (slot, generation):
/// a handle to a released slice stays invalid even after its slot is
/// reused, so teardown races cannot free someone else's reservation.
struct SliceId {
  std::uint64_t value = 0;
  [[nodiscard]] bool valid() const noexcept { return value != 0; }
  friend constexpr auto operator<=>(SliceId, SliceId) noexcept = default;
};

/// A reserved slice of a host (the facade view; storage is slot-based
/// parallel arrays inside HupHost).
struct Slice {
  SliceId id;
  std::string service_name;
  ResourceVector resources;
};

/// One server of the HUP. Thread-unsafe by design: all access happens on the
/// simulation thread.
class HupHost {
 public:
  /// `lan_node` is the host's attachment in the flow network; `ip_pool` is
  /// the disjoint address range this host's daemon assigns to its nodes.
  HupHost(HostSpec spec, net::NodeId lan_node, net::IpPool ip_pool);

  [[nodiscard]] const HostSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const std::string& name() const noexcept { return spec_.name; }
  [[nodiscard]] net::NodeId lan_node() const noexcept { return lan_node_; }

  /// All three are O(1): capacity is cached at construction and reserved is
  /// maintained incrementally across reserve/release/resize.
  [[nodiscard]] const ResourceVector& capacity() const noexcept {
    return capacity_;
  }
  [[nodiscard]] const ResourceVector& reserved() const noexcept {
    return reserved_;
  }
  [[nodiscard]] ResourceVector available() const {
    return capacity_ - reserved_;
  }

  /// Reserves a slice for `service_name`; fails when `resources` exceed what
  /// is available.
  Result<SliceId> reserve(const std::string& service_name,
                          const ResourceVector& resources);

  /// Releases a previously reserved slice. O(1): the slot returns to the
  /// free list and its generation advances, invalidating stale handles.
  Status release(SliceId id);

  /// Grows/shrinks an existing slice to `resources` in place; fails when the
  /// growth does not fit.
  Status resize(SliceId id, const ResourceVector& resources);

  /// Called after every successful reserve, release and resize, and after
  /// load_state: whenever available() may have changed. One hook per host
  /// (the placement index of the Master it is registered with); an empty
  /// function removes it.
  void set_change_hook(std::function<void()> hook) {
    change_hook_ = std::move(hook);
  }

  [[nodiscard]] std::optional<Slice> find_slice(SliceId id) const;
  /// Live slices in slot order (materialized facade view).
  [[nodiscard]] std::vector<Slice> slices() const;
  [[nodiscard]] std::size_t slice_count() const noexcept { return live_count_; }

  /// Address pool for this host's virtual service nodes.
  [[nodiscard]] net::IpPool& ip_pool() noexcept { return ip_pool_; }
  [[nodiscard]] const net::IpPool& ip_pool() const noexcept { return ip_pool_; }

  /// The host-OS bridging module (created on first use).
  [[nodiscard]] net::Bridge& bridge();

  /// The host's publicly reachable address (proxy mode): defaults to the
  /// pool base + 100 by convention; override before first proxy() use.
  void set_public_address(net::Ipv4Address address);
  [[nodiscard]] net::Ipv4Address public_address() const;

  /// The host-OS port-forwarding table for proxied virtual service nodes
  /// (created on first use; paper §3.3 footnote 3).
  [[nodiscard]] net::ProxyTable& proxy();

  /// Checkpoints the slice store (slots, generations, free list — handle
  /// values must survive restore bit-for-bit), the reserved aggregate (saved
  /// rather than recomputed: it accumulates += / -= rounding history), the
  /// IP pool, and the lazily created bridge / proxy / public address. The
  /// host must be constructed with the same spec and lan_node first.
  void save_state(snapshot::Writer& writer) const;
  void load_state(snapshot::Reader& reader);

 private:
  /// Slot behind a valid handle, or npos when the handle is stale/unknown.
  [[nodiscard]] std::size_t slot_of(SliceId id) const noexcept;
  void changed() const {
    if (change_hook_) change_hook_();
  }

  HostSpec spec_;
  net::NodeId lan_node_;
  net::IpPool ip_pool_;
  ResourceVector capacity_;
  ResourceVector reserved_;

  // Slot-based slice store: parallel arrays indexed by slot; released slots
  // recycle through free_slots_ with their generation bumped.
  std::vector<ResourceVector> slice_resources_;
  std::vector<std::string> slice_services_;
  std::vector<std::uint32_t> slice_generations_;
  std::vector<std::uint8_t> slice_live_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_count_ = 0;

  std::unique_ptr<net::Bridge> bridge_;
  std::optional<net::Ipv4Address> public_address_;
  std::unique_ptr<net::ProxyTable> proxy_;
  std::function<void()> change_hook_;
};

}  // namespace soda::host
