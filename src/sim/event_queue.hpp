// The pending-event set of the discrete-event engine: a priority queue keyed
// by (time, sequence) so same-time events fire in scheduling order — a
// determinism requirement for reproducible runs.
//
// Layout: a 4-ary implicit min-heap of 16-byte trivially-copyable entries
// (slot, seq, time) over a chunked slab of event records holding the
// callbacks. The entry byte layout doubles as a little-endian 128-bit
// integer, so the (time, seq) lexicographic comparison is a single wide
// compare instead of two data-dependent branches. Callbacks never move
// during heap sifts (and never move on slab growth — chunks are stable),
// heap entries copy with plain stores, and the shallower 4-ary tree does
// ~half the cache-missing levels of a binary heap. Slot liveness/generation
// metadata lives in a dense parallel u32 array so the pop loop's slot probe
// rarely misses cache.
// EventIds carry a (slot, generation) pair, so cancel() is an O(1) slot
// lookup — no side table, and stale ids from a reused slot fail the
// generation check. Cancelled entries are skimmed lazily at pop time; when
// they outnumber live ones the heap is compacted in place, so a
// schedule/cancel churn loop runs in O(1) memory (the seed design kept every
// never-popped cancelled id in an unordered_set forever).
#pragma once

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "util/contract.hpp"

namespace soda::sim {

/// Handle to a scheduled event; used to cancel it before it fires.
/// Packs the slab slot (low 32 bits) and the slot's generation at schedule
/// time (high 32 bits). Generation 0 never matches, so a default-constructed
/// id is always invalid.
struct EventId {
  std::uint64_t value = 0;
  friend constexpr auto operator<=>(EventId, EventId) noexcept = default;
};

/// Min-heap of timed callbacks with stable FIFO order for equal timestamps
/// and O(1) cancellation via generation-tagged slots.
class EventQueue {
 public:
  using Callback = InlineCallback;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedules `callback` at absolute time `when`. Returns a cancellation id.
  /// Accepts any `void()` callable; captures up to
  /// InlineCallback::kInlineCapacity bytes are stored without allocating.
  template <typename F>
  EventId schedule(SimTime when, F&& callback) {
    if (next_seq_ == std::numeric_limits<std::uint32_t>::max()) {
      renumber_seqs();
    }
    const std::uint32_t slot = acquire_slot();
    // Emplace before touching the heap: if the callable's constructor
    // throws, the slot is merely left un-pending (and unreferenced) and the
    // heap stays consistent.
    callback_at(slot).emplace(std::forward<F>(callback));
    const std::uint32_t meta = meta_[slot] | kPendingBit;
    meta_[slot] = meta;
    heap_.push_back(HeapEntry{slot, next_seq_++, when.ns()});
    sift_up(heap_.size() - 1);
    return EventId{(static_cast<std::uint64_t>(meta >> 1) << 32) | slot};
  }

  /// Cancels a pending event in O(1). Returns false if it already fired or
  /// was already cancelled. The captured state is destroyed immediately.
  bool cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() - dead_in_heap_;
  }

  /// Timestamp of the earliest pending event; queue must be non-empty.
  [[nodiscard]] SimTime next_time() {
    skim_cancelled();
    SODA_EXPECTS(!heap_.empty());
    return SimTime::nanoseconds(heap_.front().time_ns);
  }

  /// Removes and returns the earliest pending event; queue must be non-empty.
  struct Fired {
    SimTime time;
    Callback callback;
  };
  Fired pop() {
    skim_cancelled();
    SODA_EXPECTS(!heap_.empty());
    const HeapEntry top = heap_.front();
    Callback& stored = callback_at(top.slot);
    // Same overlap trick as schedule(): fetch the callback line under the
    // root sift-down, then move the callback out with a warm cache.
    __builtin_prefetch(&stored, /*rw=*/1);
    pop_root();
    Fired fired{SimTime::nanoseconds(top.time_ns), std::move(stored)};
    release_slot(top.slot);
    return fired;
  }

  /// Bytes owned by the queue's internal containers. Benches and the
  /// cancellation-leak regression test assert this stays bounded under
  /// schedule/cancel churn.
  [[nodiscard]] std::size_t footprint_bytes() const noexcept;

  /// Heap sequence number of a pending event, or 0 for stale/cancelled ids
  /// (live seqs start at 1). Checkpoints capture this at save time so that
  /// re-armed timers keep their relative firing order among equal
  /// timestamps. O(heap) scan — save-path only, never on the hot path.
  [[nodiscard]] std::uint32_t seq_of(EventId id) const noexcept {
    const std::uint32_t slot = static_cast<std::uint32_t>(id.value);
    const std::uint32_t generation = static_cast<std::uint32_t>(id.value >> 32);
    if (slot >= meta_.size()) return 0;
    const std::uint32_t meta = meta_[slot];
    if ((meta & kPendingBit) == 0 || (meta >> 1) != generation) return 0;
    for (const HeapEntry& entry : heap_) {
      if (entry.slot == slot) return entry.seq;
    }
    return 0;
  }

 private:
  /// Slot metadata word: bit 0 = pending, bits 1..31 = generation. The
  /// generation increments each time the slot is released for reuse.
  static constexpr std::uint32_t kPendingBit = 1u;

  /// Callback slab chunk size: 512 slots x 64 bytes = 32 KiB. Chunks never
  /// move, so slab growth never runs move constructors over live callbacks.
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  /// Heap fan-out. Four 16-byte children are a single cache line's worth of
  /// scan per level at ~half the depth of a binary heap — measured fastest
  /// on this workload against 2- and 8-ary variants.
  static constexpr std::size_t kArity = 4;

  /// One heap entry: trivially copyable so sifts compile to plain stores.
  /// Field order is load-bearing — see entry_key().
  struct HeapEntry {
    std::uint32_t slot;
    std::uint32_t seq;
    std::int64_t time_ns;
  };
  static_assert(sizeof(HeapEntry) == 16);

#if defined(__SIZEOF_INT128__) && defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  /// On little-endian targets the entry bytes read back as the 128-bit
  /// integer (time_ns << 64) | (seq << 32) | slot, so one signed wide
  /// compare orders entries by (time, seq) — seq is unique, slot never
  /// decides. Signedness comes from time_ns in the high half.
  __extension__ using EntryKey = __int128;
  static EntryKey entry_key(const HeapEntry& entry) noexcept {
    EntryKey key;
    std::memcpy(&key, &entry, sizeof key);
    return key;
  }
#else
  struct EntryKey {
    std::int64_t time_ns;
    std::uint32_t seq;
    friend bool operator<(EntryKey a, EntryKey b) noexcept {
      if (a.time_ns != b.time_ns) return a.time_ns < b.time_ns;
      return a.seq < b.seq;
    }
    friend bool operator>=(EntryKey a, EntryKey b) noexcept { return !(a < b); }
  };
  static EntryKey entry_key(const HeapEntry& entry) noexcept {
    return EntryKey{entry.time_ns, entry.seq};
  }
#endif

  static bool fires_before(const HeapEntry& a, const HeapEntry& b) noexcept {
    return entry_key(a) < entry_key(b);
  }

  [[nodiscard]] Callback& callback_at(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }

  /// The free list is intrusive: a free slot's callback is empty, so its
  /// dead capture buffer stores the next free slot's index. That line is
  /// touched by the surrounding schedule/pop anyway, so acquire/release add
  /// no extra cache traffic and no side array.
  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  static std::uint32_t read_free_link(const Callback& callback) noexcept {
    std::uint32_t next;
    std::memcpy(&next, callback.buffer_, sizeof next);
    return next;
  }
  static void write_free_link(Callback& callback, std::uint32_t next) noexcept {
    std::memcpy(callback.buffer_, &next, sizeof next);
  }

  std::uint32_t acquire_slot() {
    const std::uint32_t slot = free_head_;
    if (slot != kNoFreeSlot) {
      free_head_ = read_free_link(callback_at(slot));
      return slot;
    }
    return grow_slab();
  }

  /// Returns a slot to the free list. Precondition: its callback is already
  /// empty (moved out by pop, or reset by cancel).
  void release_slot(std::uint32_t slot) noexcept {
    // Advance the generation so stale EventIds miss; generation 0 is
    // reserved for "never valid" (default EventId), so skip it on 31-bit
    // wrap-around.
    std::uint32_t generation = ((meta_[slot] >> 1) + 1) & 0x7fffffffu;
    generation += generation == 0;
    meta_[slot] = generation << 1;
    write_free_link(callback_at(slot), free_head_);
    free_head_ = slot;
  }

  void sift_up(std::size_t index) noexcept {
    const HeapEntry moving = heap_[index];
    const EntryKey moving_key = entry_key(moving);
    while (index > 0) {
      const std::size_t parent = (index - 1) / kArity;
      if (moving_key >= entry_key(heap_[parent])) break;
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = moving;
  }

  void sift_down(std::size_t index) noexcept {
    const std::size_t count = heap_.size();
    const HeapEntry moving = heap_[index];
    const EntryKey moving_key = entry_key(moving);
    while (true) {
      const std::size_t first_child = index * kArity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + kArity <= count ? first_child + kArity : count;
      std::size_t best = first_child;
      EntryKey best_key = entry_key(heap_[first_child]);
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        const EntryKey key = entry_key(heap_[child]);
        if (key < best_key) {
          best_key = key;
          best = child;
        }
      }
      if (best_key >= moving_key) break;
      heap_[index] = heap_[best];
      index = best;
    }
    heap_[index] = moving;
  }

  /// Removes the heap root and re-establishes the heap property using
  /// bottom-up (Wegener) deletion: the hole left by the root descends the
  /// min-child path to a leaf with no compare against the displaced last
  /// element — which, coming from the bottom, nearly always belongs back
  /// near a leaf — then that element sifts up the few levels it needs.
  /// Saves one compare per level over the classic top-down sift.
  void pop_root() noexcept {
    const HeapEntry moving = heap_.back();
    heap_.pop_back();
    const std::size_t count = heap_.size();
    if (count == 0) return;
    std::size_t index = 0;
    for (;;) {
      const std::size_t first_child = index * kArity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + kArity <= count ? first_child + kArity : count;
      std::size_t best = first_child;
      EntryKey best_key = entry_key(heap_[first_child]);
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        const EntryKey key = entry_key(heap_[child]);
        if (key < best_key) {
          best_key = key;
          best = child;
        }
      }
      heap_[index] = heap_[best];
      index = best;
    }
    const EntryKey moving_key = entry_key(moving);
    while (index > 0) {
      const std::size_t parent = (index - 1) / kArity;
      if (moving_key >= entry_key(heap_[parent])) break;
      heap_[index] = heap_[parent];
      index = parent;
    }
    heap_[index] = moving;
  }

  /// Drops cancelled entries off the heap top until a live one surfaces.
  void skim_cancelled() noexcept {
    // Cancelled slots had their callback reset in cancel() already.
    while (!heap_.empty() && (meta_[heap_.front().slot] & kPendingBit) == 0) {
      release_slot(heap_.front().slot);
      SODA_ENSURES(dead_in_heap_ > 0);
      --dead_in_heap_;
      pop_root();
    }
  }

  /// Cold path of acquire_slot: extends the slab by one slot (and, at chunk
  /// boundaries, one 32 KiB chunk).
  std::uint32_t grow_slab();
  /// Rebuilds the heap without its cancelled entries once they dominate.
  void compact();
  /// Re-bases the 32-bit sequence counter once it nears wrap-around
  /// (every ~4.3 billion schedules): pending entries are renumbered in
  /// firing order, preserving FIFO, and the counter restarts above them.
  void renumber_seqs();

  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<Callback[]>> chunks_;  // slab, stable addresses
  std::vector<std::uint32_t> meta_;                  // parallel to the slab
  std::uint32_t free_head_ = kNoFreeSlot;
  std::uint32_t next_seq_ = 1;
  std::size_t dead_in_heap_ = 0;
};

}  // namespace soda::sim
