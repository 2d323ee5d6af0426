// Concurrency-safe visited-state table for the model checker: N-way striped
// shards keyed by the 64-bit state fingerprint, so worker threads contend
// only when their states land in the same stripe. Two storage modes:
//
//  - full (default): the complete state vector is stored and compared, so
//    membership is exact;
//  - fingerprint-only ("hash compaction", cf. SPIN's -DHC): only the 8-byte
//    fingerprint is stored. Two distinct states colliding on the fingerprint
//    are treated as one, so an unexplored state can be silently pruned — a
//    false-negative probability of roughly stored_states^2 / 2^65 in
//    exchange for a fixed 8 bytes per state.
//
// Storage is flat. Each shard is one power-of-two, linear-probing slot
// array (a ProbeTable) of {fingerprint, stored state, progress credit}; in
// full mode the state points into the shard's block arena, where each
// stored vector is laid out as [size][words...]. Arena blocks never move,
// so growing the slot array rehashes only the 24-byte slots, never the
// state words, and no stored state costs a heap allocation of its own.
//
// Each state vector is hashed exactly once: callers that already computed
// HashWords (the checker DFS needs it anyway) pass it to the *Hashed entry
// points, which use it for both shard selection and slot placement. Exact
// mode compares the stored words on a fingerprint match, so a colliding pair
// of distinct states still occupies two slots and membership stays exact.
//
// With track_progress the table additionally remembers the minimum progress
// credit each state was reached with, and Claim re-admits a state reached
// with a strictly lower credit — the re-entry rule the sequential checker's
// non-progress-cycle search needs to catch cycles entered through cross
// edges (see checker.cc).

#ifndef SRC_SUPPORT_STATE_TABLE_H_
#define SRC_SUPPORT_STATE_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/support/hash.h"
#include "src/support/probe_table.h"

namespace efeu {

struct StateTableOptions {
  // Number of independently locked stripes; 1 is fine for single-threaded
  // callers, parallel workers want >= 4x the thread count.
  int num_shards = 1;
  // Store 8-byte fingerprints instead of full state vectors.
  bool fingerprint_only = false;
  // Remember the minimum progress credit per state and re-admit claims with
  // a strictly lower credit.
  bool track_progress = false;
};

class ShardedStateTable {
 public:
  explicit ShardedStateTable(const StateTableOptions& options = {});

  // Claims `state` for exploration. Returns true when the caller should
  // explore it: the state is new, or (with track_progress) it was reached
  // with a strictly lower progress credit than every earlier visit.
  bool Claim(std::span<const int32_t> state, uint64_t progress = 0) {
    return ClaimHashed(HashWords(state), state, progress);
  }
  // Same, with the caller-precomputed HashWords(state) fingerprint.
  bool ClaimHashed(uint64_t fingerprint, std::span<const int32_t> state, uint64_t progress = 0);

  // Read-only variant: whether Claim would return true, without inserting.
  bool WouldClaim(std::span<const int32_t> state, uint64_t progress = 0) const {
    return WouldClaimHashed(HashWords(state), state, progress);
  }
  bool WouldClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                        uint64_t progress = 0) const;

  // Distinct states stored.
  uint64_t size() const;
  // Bytes of state payload held (full vectors or 8-byte fingerprints, plus
  // the progress credit when tracked) — the bench's bytes/state numerator.
  // Slots, the arena's size words and unused block tails are not counted.
  uint64_t payload_bytes() const;

  // Empties the table. The arena blocks are kept and refilled, so a table
  // cleared and reused per search allocates only when it outgrows them.
  void Clear();

 private:
  struct Slot {
    uint64_t fingerprint = 0;
    // Full mode: the arena copy, [size][words...]. Fingerprint-only mode: a
    // shared non-null marker. Null marks an empty slot.
    const int32_t* state = nullptr;
    uint64_t progress = 0;

    bool empty() const { return state == nullptr; }
  };

  static constexpr size_t kInitialSlots = 256;

  struct Shard {
    mutable std::mutex mu;
    ProbeTable<Slot> slots{kInitialSlots};
    std::vector<std::unique_ptr<int32_t[]>> blocks;
    std::vector<size_t> block_words;
    size_t block = 0;   // Arena block being filled.
    size_t offset = 0;  // Next free word in it.
    // slots.count(), mirrored so size() reads it without the lock.
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> bytes{0};
  };

  Shard& shard_for(uint64_t fingerprint) const {
    return *shards_[fingerprint % shards_.size()];
  }
  // Index of the slot holding `state`, or of the empty slot where it would
  // be inserted.
  size_t Find(const Shard& shard, uint64_t fingerprint, std::span<const int32_t> state) const;
  const int32_t* Store(Shard& shard, std::span<const int32_t> state);

  StateTableOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace efeu

#endif  // SRC_SUPPORT_STATE_TABLE_H_
