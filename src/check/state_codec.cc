#include "src/check/state_codec.h"

#include <algorithm>

#include "src/support/check.h"
#include "src/support/hash.h"

namespace efeu::check {

CollapseTable::CollapseTable(std::vector<int> sizes) {
  per_process_.reserve(sizes.size());
  for (int size : sizes) {
    auto pp = std::make_unique<PerProcess>();
    pp->size = size;
    per_process_.push_back(std::move(pp));
  }
}

int32_t CollapseTable::Intern(int process, std::span<const int32_t> snapshot) {
  PerProcess& pp = *per_process_[process];
  uint64_t fingerprint = HashWords(snapshot);
  std::lock_guard<std::mutex> lock(pp.mu);
  const size_t probe = pp.index.Find(fingerprint, [&](const IndexSlot& entry) {
    return std::equal(snapshot.begin(), snapshot.end(), Slot(pp, entry.id));
  });
  if (!pp.index[probe].empty()) {
    return pp.index[probe].id;
  }
  int32_t id = pp.count.load(std::memory_order_relaxed);
  EFEU_CHECK(id < PerProcess::kChunkSize * PerProcess::kMaxChunks,
             "CollapseTable: per-process component table overflow");
  size_t chunk_index = static_cast<size_t>(id) >> PerProcess::kChunkShift;
  int32_t* chunk = pp.chunks[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    auto owned = std::make_unique<int32_t[]>(static_cast<size_t>(PerProcess::kChunkSize) *
                                             static_cast<size_t>(pp.size));
    chunk = owned.get();
    pp.owned.push_back(std::move(owned));
    pp.chunks[chunk_index].store(chunk, std::memory_order_release);
  }
  int32_t* slot = chunk + (static_cast<size_t>(id) & (PerProcess::kChunkSize - 1)) *
                              static_cast<size_t>(pp.size);
  std::copy(snapshot.begin(), snapshot.end(), slot);
  pp.index.InsertAt(probe, IndexSlot{fingerprint, id});
  // Publish after the payload is in place; readers that learned `id` through
  // a synchronized handoff see the filled slot.
  pp.count.store(id + 1, std::memory_order_release);
  payload_bytes_.fetch_add(static_cast<uint64_t>(pp.size) * sizeof(int32_t) + sizeof(int32_t),
                           std::memory_order_relaxed);
  return id;
}

void CollapseTable::Expand(int process, int32_t id, std::span<int32_t> out) const {
  const PerProcess& pp = *per_process_[process];
  const int32_t* stored = Slot(pp, id);
  std::copy(stored, stored + pp.size, out.begin());
}

uint64_t CollapseTable::components() const {
  uint64_t total = 0;
  for (const auto& pp : per_process_) {
    total += static_cast<uint64_t>(pp->count.load(std::memory_order_relaxed));
  }
  return total;
}

StateCodec::StateCodec(CheckedSystem& system, CollapseTable* table)
    : system_(system), table_(table) {
  int process_count = system.process_count();
  sizes_.resize(static_cast<size_t>(process_count));
  offsets_.resize(static_cast<size_t>(process_count));
  int total = 0;
  for (int p = 0; p < process_count; ++p) {
    sizes_[static_cast<size_t>(p)] = system.process(p).SnapshotSize();
    offsets_[static_cast<size_t>(p)] = total;
    total += sizes_[static_cast<size_t>(p)];
  }
  if (table_ != nullptr) {
    key_size_ = process_count;
    current_.assign(static_cast<size_t>(process_count), kDirty);
    full_.resize(static_cast<size_t>(total));
    lane_hash_.resize(static_cast<size_t>(process_count) + 1);
    lane_hash_[0] = HashWordsStart(full_.size());
  } else {
    key_size_ = total;
  }
}

std::span<int32_t> StateCodec::FullSlice(size_t process) {
  rehash_from_ = std::min(rehash_from_, process);
  return std::span<int32_t>(full_).subspan(static_cast<size_t>(offsets_[process]),
                                           static_cast<size_t>(sizes_[process]));
}

void StateCodec::EncodeProcess(int process) {
  std::span<int32_t> buffer = FullSlice(static_cast<size_t>(process));
  system_.process(process).Snapshot(buffer);
  current_[static_cast<size_t>(process)] = table_->Intern(process, buffer);
}

void StateCodec::EncodeFull(std::vector<int32_t>* key) {
  if (table_ == nullptr) {
    key->resize(static_cast<size_t>(key_size_));
    for (size_t p = 0; p < sizes_.size(); ++p) {
      system_.process(static_cast<int>(p))
          .Snapshot(std::span<int32_t>(*key).subspan(static_cast<size_t>(offsets_[p]),
                                                     static_cast<size_t>(sizes_[p])));
    }
    return;
  }
  for (size_t p = 0; p < sizes_.size(); ++p) {
    EncodeProcess(static_cast<int>(p));
  }
  *key = current_;
}

void StateCodec::NoteStep(const CheckedSystem::Transition& t) {
  if (table_ == nullptr) {
    return;
  }
  current_[static_cast<size_t>(t.process)] = kDirty;
  if (t.kind == CheckedSystem::Transition::Kind::kTransfer) {
    current_[static_cast<size_t>(t.peer)] = kDirty;
  }
}

void StateCodec::EncodeStep(std::vector<int32_t>* key) {
  if (table_ == nullptr) {
    EncodeFull(key);
    return;
  }
  for (size_t p = 0; p < current_.size(); ++p) {
    if (current_[p] == kDirty) {
      EncodeProcess(static_cast<int>(p));
    }
  }
  *key = current_;
}

void StateCodec::Restore(const std::vector<int32_t>& key) {
  if (table_ == nullptr) {
    system_.RestoreAll(key);
    return;
  }
  for (size_t p = 0; p < current_.size(); ++p) {
    if (current_[p] == key[p]) {
      continue;  // Live process already holds this component.
    }
    std::span<int32_t> buffer = FullSlice(p);
    table_->Expand(static_cast<int>(p), key[p], buffer);
    system_.process(static_cast<int>(p)).Restore(buffer);
    current_[p] = key[p];
  }
}

uint64_t StateCodec::FullStateHash(uint64_t key_hash) {
  if (table_ == nullptr) {
    return key_hash;
  }
  const size_t processes = sizes_.size();
  if (rehash_from_ < processes) {
    uint64_t hash = lane_hash_[rehash_from_];
    for (size_t p = rehash_from_; p < processes; ++p) {
      size_t end = p + 1 < processes ? static_cast<size_t>(offsets_[p + 1]) : full_.size();
      hash = HashWordsLanes(hash, full_, static_cast<size_t>(offsets_[p]) / 2, end / 2);
      lane_hash_[p + 1] = hash;
    }
    full_hash_ = HashWordsFinish(hash, full_);
    rehash_from_ = processes;
  }
  return full_hash_;
}

}  // namespace efeu::check
