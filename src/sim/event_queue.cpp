#include "sim/event_queue.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace soda::sim {

namespace {

constexpr std::uint32_t kSlotMask = 0xffffffffu;

// Compaction triggers once cancelled entries both exceed this floor and
// outnumber live ones; the floor keeps tiny queues from compacting on every
// cancel, the ratio bounds memory at <= 2x the live event count.
constexpr std::size_t kCompactFloor = 64;

}  // namespace

std::uint32_t EventQueue::grow_slab() {
  SODA_EXPECTS(meta_.size() < kSlotMask);
  const auto slot = static_cast<std::uint32_t>(meta_.size());
  if ((slot & (kChunkSlots - 1)) == 0) {
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
  }
  meta_.push_back(1u << 1);  // generation 1, not pending
  return slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.value & kSlotMask);
  if (slot >= meta_.size()) return false;
  const std::uint32_t meta = meta_[slot];
  if ((meta & kPendingBit) == 0) return false;
  if ((meta >> 1) != static_cast<std::uint32_t>(id.value >> 32)) return false;
  // The heap entry stays behind (skimmed at pop or compaction); the captured
  // state is released right away so cancellation frees resources promptly.
  meta_[slot] &= ~kPendingBit;
  callback_at(slot).reset();
  ++dead_in_heap_;
  if (dead_in_heap_ > kCompactFloor && dead_in_heap_ * 2 > heap_.size()) {
    compact();
  }
  return true;
}

void EventQueue::compact() {
  std::size_t kept = 0;
  for (const HeapEntry& entry : heap_) {
    if (meta_[entry.slot] & kPendingBit) {
      heap_[kept++] = entry;
    } else {
      release_slot(entry.slot);  // callback reset in cancel()
    }
  }
  heap_.resize(kept);
  dead_in_heap_ = 0;
  // Floyd heap construction: sift down every internal node, deepest first.
  if (kept > 1) {
    for (std::size_t i = (kept - 2) / kArity + 1; i-- > 0;) sift_down(i);
  }
}

void EventQueue::renumber_seqs() {
  compact();  // only live entries need fresh sequence numbers
  // Sorting ascending by (time, seq) keeps the firing order and leaves the
  // array a valid min-heap (any sorted array is).
  std::sort(heap_.begin(), heap_.end(), fires_before);
  std::uint32_t seq = 0;
  for (HeapEntry& entry : heap_) entry.seq = ++seq;
  next_seq_ = seq + 1;
}

std::size_t EventQueue::footprint_bytes() const noexcept {
  return heap_.capacity() * sizeof(HeapEntry) +
         chunks_.size() * kChunkSlots * sizeof(Callback) +
         chunks_.capacity() * sizeof(chunks_[0]) +
         meta_.capacity() * sizeof(std::uint32_t);
}

}  // namespace soda::sim
