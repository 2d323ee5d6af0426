// The one open-addressing policy behind the model checker's flat hash
// tables (the visited-state table's shards, the COLLAPSE component index and
// the sequential DFS's stack index): a power-of-two slot array, linear
// probing from a home slot taken from the fingerprint's top bits, grown by
// doubling once it is more than half full.
//
// The slot type carries the policy's two needs: a `uint64_t fingerprint`
// member and a `bool empty() const` that is true for a value-initialized
// slot. Everything else in the slot (a stored state, an id, a depth) and how
// two slots with equal fingerprints are told apart belongs to the caller.
//
// Top bits make a good home for every user: they are independent of the low
// bits the visited table uses to pick a shard, and doubling the array maps
// home h to 2h or 2h + 1, so Grow's in-order rehash writes the new array
// nearly in order. Fingerprints must therefore be well mixed (HashWords is).

#ifndef SRC_SUPPORT_PROBE_TABLE_H_
#define SRC_SUPPORT_PROBE_TABLE_H_

#include <bit>
#include <cstdint>
#include <vector>

namespace efeu {

template <typename Slot>
class ProbeTable {
 public:
  // `initial_slots` must be a power of two, at least 2.
  explicit ProbeTable(size_t initial_slots) : slots_(initial_slots) {}

  // Index of the first slot on `fingerprint`'s probe run that holds that
  // fingerprint and satisfies `match`, or of the empty slot ending the run
  // (where an insert goes). `match` sees only occupied slots.
  template <typename Match>
  size_t Find(uint64_t fingerprint, const Match& match) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(fingerprint, mask);; i = (i + 1) & mask) {
      const Slot& slot = slots_[i];
      if (slot.empty() || (slot.fingerprint == fingerprint && match(slot))) {
        return i;
      }
    }
  }

  Slot& operator[](size_t i) { return slots_[i]; }
  const Slot& operator[](size_t i) const { return slots_[i]; }

  // Fills the empty slot `i` that Find returned, growing the array once it
  // is more than half full. Slot indices are invalid afterwards.
  void InsertAt(size_t i, const Slot& slot) {
    slots_[i] = slot;
    if (++count_ * 2 > slots_.size()) {
      Grow();
    }
  }

  // Empties the occupied slot `i`, pulling later entries of its probe run
  // back so no tombstones build up. Slot indices are invalid afterwards.
  void EraseAt(size_t i) {
    const size_t mask = slots_.size() - 1;
    size_t hole = i;
    // Move each later entry into the hole unless its home lies cyclically
    // after the hole.
    for (size_t j = (hole + 1) & mask; !slots_[j].empty(); j = (j + 1) & mask) {
      size_t home = Home(slots_[j].fingerprint, mask);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --count_;
  }

  // Occupied slots.
  size_t count() const { return count_; }

  // Empties the table and shrinks it back to `initial_slots`.
  void Reset(size_t initial_slots) {
    slots_.assign(initial_slots, Slot{});
    count_ = 0;
  }

 private:
  static size_t Home(uint64_t fingerprint, size_t mask) {
    return static_cast<size_t>(fingerprint >> std::countl_zero(static_cast<uint64_t>(mask)));
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    const size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.empty()) {
        continue;
      }
      size_t i = Home(slot.fingerprint, mask);
      while (!slots_[i].empty()) {
        i = (i + 1) & mask;
      }
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  size_t count_ = 0;
};

}  // namespace efeu

#endif  // SRC_SUPPORT_PROBE_TABLE_H_
