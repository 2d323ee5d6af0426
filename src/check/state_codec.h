// COLLAPSE-style compressed state storage (cf. SPIN's -DCOLLAPSE) plus the
// incremental snapshot codec built on top of it.
//
// CollapseTable interns each process's snapshot in a per-process component
// table; a global state is then one int32 component id per process, cutting
// visited-set bytes/state by roughly the process count (the distinct
// component count per process is far smaller than the distinct global state
// count — that product structure is exactly why the full state space
// explodes). The table is shared by all parallel workers: interning is
// content-addressed, so every worker maps identical snapshots to identical
// ids and the compressed keys stay comparable across threads.
//
// StateCodec is the per-worker view: it tracks which component id each live
// process currently corresponds to, so a DFS step only re-snapshots the one
// or two processes a transition moved (Apply + Closure can only wake the
// transition's participants) and a restore only rewrites the processes whose
// component differs from the target key. In full mode (no table) it degrades
// to whole-vector snapshot/restore with a reused scratch buffer, which is the
// `collapse = false` ablation baseline.

#ifndef SRC_CHECK_STATE_CODEC_H_
#define SRC_CHECK_STATE_CODEC_H_

#include <atomic>
#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/check/checker.h"
#include "src/support/probe_table.h"

namespace efeu::check {

class CollapseTable {
 public:
  // `sizes[p]` = snapshot word count of process p (fixed per process).
  explicit CollapseTable(std::vector<int> sizes);

  // Interns `snapshot` for process `process`, returning its component id.
  // Thread-safe; identical snapshots always get the same id.
  int32_t Intern(int process, std::span<const int32_t> snapshot);

  // Copies the snapshot behind a component id into `out` (sizes[process]
  // words). Safe concurrently with Intern on other threads for any id that
  // reached the caller through a synchronizing handoff (the shared state
  // table or the work queue) — component payloads are immutable once
  // published.
  void Expand(int process, int32_t id, std::span<int32_t> out) const;

  int snapshot_size(int process) const { return per_process_[process]->size; }
  // Total component payload bytes across all per-process tables — the
  // memory the compressed keys lean on, reported next to the visited-set
  // payload in CheckResult.
  uint64_t payload_bytes() const { return payload_bytes_.load(std::memory_order_relaxed); }
  uint64_t components() const;

 private:
  struct IndexSlot {
    uint64_t fingerprint = 0;
    int32_t id = -1;  // -1 marks an empty slot.

    bool empty() const { return id < 0; }
  };

  static constexpr size_t kInitialIndexSlots = 64;

  struct PerProcess {
    static constexpr int kChunkShift = 10;
    static constexpr int kChunkSize = 1 << kChunkShift;
    static constexpr int kMaxChunks = 1 << 12;  // 4M components per process.

    std::mutex mu;
    int size = 0;
    // {fingerprint, id} probe array over the payloads. Guarded by mu.
    ProbeTable<IndexSlot> index{kInitialIndexSlots};
    std::atomic<int32_t> count{0};
    // Fixed-size top level so readers never race a reallocation; chunk
    // payloads are written before the pointer is release-published.
    std::array<std::atomic<int32_t*>, kMaxChunks> chunks{};
    std::vector<std::unique_ptr<int32_t[]>> owned;  // Guarded by mu.
  };

  static const int32_t* Slot(const PerProcess& pp, int32_t id) {
    const int32_t* chunk =
        pp.chunks[static_cast<size_t>(id) >> PerProcess::kChunkShift].load(
            std::memory_order_acquire);
    return chunk + (static_cast<size_t>(id) & (PerProcess::kChunkSize - 1)) *
                       static_cast<size_t>(pp.size);
  }

  std::vector<std::unique_ptr<PerProcess>> per_process_;
  std::atomic<uint64_t> payload_bytes_{0};
};

// Encodes the live CheckedSystem state to/from the visited-set key. Exactly
// one codec per exploration thread; the collapse table (when present) is the
// shared part.
//
// Usage per DFS step:
//   codec.Restore(parent_key);    // delta-restores the live system
//   codec.NoteStep(t);            // marks t's participants dirty
//   system.Apply(t); system.Closure(...);
//   codec.EncodeStep(&child_key); // re-interns only the dirty processes
// Paths that bail between NoteStep and EncodeStep (violating closures, depth
// probes) just leave the participants dirty; the next Restore rewrites them.
class StateCodec {
 public:
  // `table` == nullptr selects full (uncompressed) mode.
  StateCodec(CheckedSystem& system, CollapseTable* table);

  int key_size() const { return key_size_; }

  // Re-encodes every process of the live system into *key.
  void EncodeFull(std::vector<int32_t>* key);
  // Marks the processes `t` is about to move as dirty.
  void NoteStep(const CheckedSystem::Transition& t);
  // Re-encodes the dirty processes from the live system, then writes the
  // complete key into *key (a reused caller scratch buffer).
  void EncodeStep(std::vector<int32_t>* key);
  // Restores the live system to `key`.
  void Restore(const std::vector<int32_t>& key);
  // HashWords of the live system's full snapshot (every process's words in
  // process-id order) as of the last Encode*: a hash that does not depend
  // on whether keys are collapsed. In full mode the key is that snapshot,
  // so the caller's `key_hash` (HashWords of the key) is returned as is; in
  // collapse mode only the words from the first process rewritten since the
  // previous call onward are rehashed.
  uint64_t FullStateHash(uint64_t key_hash);

 private:
  static constexpr int32_t kDirty = -1;

  std::span<int32_t> FullSlice(size_t process);
  void EncodeProcess(int process);

  CheckedSystem& system_;
  CollapseTable* table_;
  std::vector<int> sizes_;
  std::vector<int> offsets_;  // Full snapshot layout, process-id order.
  int key_size_ = 0;
  // Collapse mode: the component id each live process currently holds, or
  // kDirty when the live process has moved past its last encoding.
  std::vector<int32_t> current_;
  // Collapse mode: the snapshot behind current_[p] at offsets_[p], so
  // wherever no process is dirty this is the live system's full snapshot.
  std::vector<int32_t> full_;
  // Collapse mode, for FullStateHash: lane_hash_[p] is the running HashWords
  // value before the lane holding process p's first word, valid for every
  // p <= rehash_from_; full_hash_ is the last result, valid while
  // rehash_from_ is the process count.
  std::vector<uint64_t> lane_hash_;
  size_t rehash_from_ = 0;
  uint64_t full_hash_ = 0;
};

}  // namespace efeu::check

#endif  // SRC_CHECK_STATE_CODEC_H_
