#include "src/support/state_table.h"

#include <algorithm>

namespace efeu {

namespace {

constexpr size_t kBlockWords = size_t{1} << 14;  // 64 KiB arena blocks.
// Stands in for the stored state in fingerprint-only slots.
constexpr int32_t kFingerprintMarker = 0;

}  // namespace

ShardedStateTable::ShardedStateTable(const StateTableOptions& options) : options_(options) {
  int shards = options_.num_shards < 1 ? 1 : options_.num_shards;
  shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

size_t ShardedStateTable::Find(const Shard& shard, uint64_t fingerprint,
                               std::span<const int32_t> state) const {
  return shard.slots.Find(fingerprint, [&](const Slot& slot) {
    return options_.fingerprint_only ||
           (static_cast<size_t>(slot.state[0]) == state.size() &&
            std::equal(state.begin(), state.end(), slot.state + 1));
  });
}

const int32_t* ShardedStateTable::Store(Shard& shard, std::span<const int32_t> state) {
  const size_t need = state.size() + 1;
  while (shard.block < shard.blocks.size() &&
         shard.block_words[shard.block] - shard.offset < need) {
    ++shard.block;
    shard.offset = 0;
  }
  if (shard.block == shard.blocks.size()) {
    size_t words = std::max(kBlockWords, need);
    shard.blocks.push_back(std::make_unique<int32_t[]>(words));
    shard.block_words.push_back(words);
  }
  int32_t* stored = shard.blocks[shard.block].get() + shard.offset;
  shard.offset += need;
  stored[0] = static_cast<int32_t>(state.size());
  std::copy(state.begin(), state.end(), stored + 1);
  return stored;
}

bool ShardedStateTable::ClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                                    uint64_t progress) {
  Shard& shard = shard_for(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  const size_t i = Find(shard, fingerprint, state);
  Slot& slot = shard.slots[i];
  if (!slot.empty()) {
    if (options_.track_progress && progress < slot.progress) {
      slot.progress = progress;
      return true;
    }
    return false;
  }
  shard.slots.InsertAt(
      i, Slot{fingerprint,
              options_.fingerprint_only ? &kFingerprintMarker : Store(shard, state), progress});
  uint64_t entry_bytes = options_.fingerprint_only ? 8 : state.size() * sizeof(int32_t);
  if (options_.track_progress) {
    entry_bytes += sizeof(uint64_t);
  }
  shard.count.store(shard.slots.count(), std::memory_order_relaxed);
  shard.bytes.fetch_add(entry_bytes, std::memory_order_relaxed);
  return true;
}

bool ShardedStateTable::WouldClaimHashed(uint64_t fingerprint, std::span<const int32_t> state,
                                         uint64_t progress) const {
  const Shard& shard = shard_for(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  const Slot& slot = shard.slots[Find(shard, fingerprint, state)];
  if (slot.empty()) {
    return true;
  }
  return options_.track_progress && progress < slot.progress;
}

uint64_t ShardedStateTable::size() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->count.load(std::memory_order_relaxed);
  }
  return total;
}

uint64_t ShardedStateTable::payload_bytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->bytes.load(std::memory_order_relaxed);
  }
  return total;
}

void ShardedStateTable::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->slots.Reset(kInitialSlots);
    shard->block = 0;
    shard->offset = 0;
    shard->count.store(0, std::memory_order_relaxed);
    shard->bytes.store(0, std::memory_order_relaxed);
  }
}

}  // namespace efeu
