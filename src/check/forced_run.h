// Forced-run ("chain") compression, the one walk the sequential DFS and
// both phases of the parallel engine share (see kPorChainSampleMask in
// checker.h for why it keeps verdicts exact).
//
// From a state with exactly one enabled transition the walker applies that
// transition, closure-checks and encodes the successor, and repeats while
// the successor again has exactly one. Only sampled run states go into the
// visited table; the others are remembered for the length of one walk, so a
// run that loops back on itself stops after one full traversal. The walk
// records plain CheckedSystem::Transitions: callers describe them only when
// they build a counterexample trace.

#ifndef SRC_CHECK_FORCED_RUN_H_
#define SRC_CHECK_FORCED_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/check/state_codec.h"
#include "src/support/hash.h"
#include "src/support/state_table.h"

namespace efeu::check {

class ForcedRunWalker {
 public:
  enum class End {
    // Reached a state with no or several enabled transitions; the caller
    // claims it like any fresh child.
    kLanded,
    // A sampled run state was already stored, or the walk came back to one
    // of its own unsampled states: the rest of the run was (or is being)
    // explored.
    kAbandoned,
    // A run state's closure failed; the violating transition is the last
    // recorded step.
    kViolated,
    // The caller's stop hook asked to end the search.
    kStopped,
  };

  // One walker per exploration thread, over that thread's system and codec.
  ForcedRunWalker(CheckedSystem& system, StateCodec& codec, ShardedStateTable& visited)
      : system_(system), codec_(codec), visited_(visited) {}

  // Walks from the live state, whose key is *key (hash *key_hash) and whose
  // only enabled transition is (*enabled)[0], appending each transition
  // taken to *steps. On kLanded, *key, *key_hash and *enabled describe the
  // landing state; on kViolated, *violation holds the closure's error. The
  // hooks are called as the walk goes: applied() after each transition,
  // reduced() for each unsampled run state walked inline, and stop() after
  // each run state walked past; stop() returning true ends the walk with
  // kStopped.
  template <typename Applied, typename Reduced, typename Stop>
  End Walk(std::vector<int32_t>* key, uint64_t* key_hash,
           std::vector<CheckedSystem::Transition>* enabled,
           std::vector<CheckedSystem::Transition>* steps, Violation* violation,
           const Applied& applied, const Reduced& reduced, const Stop& stop) {
    if (seen_.size() != 0) {
      seen_.Clear();
    }
    while (enabled->size() == 1) {
      const CheckedSystem::Transition forced = (*enabled)[0];
      codec_.NoteStep(forced);
      system_.Apply(forced);
      applied();
      steps->push_back(forced);
      bool progress = false;
      if (!system_.Closure(violation, &progress)) {
        return End::kViolated;
      }
      codec_.EncodeStep(key);
      *key_hash = HashWords(*key);
      system_.EnabledTransitions(enabled);
      if (enabled->size() != 1) {
        break;
      }
      if ((codec_.FullStateHash(*key_hash) & kPorChainSampleMask) == 0) {
        if (!visited_.ClaimHashed(*key_hash, *key)) {
          return End::kAbandoned;
        }
      } else {
        if (!seen_.ClaimHashed(*key_hash, *key)) {
          return End::kAbandoned;
        }
        reduced();
      }
      if (stop()) {
        return End::kStopped;
      }
    }
    return End::kLanded;
  }

 private:
  CheckedSystem& system_;
  StateCodec& codec_;
  ShardedStateTable& visited_;
  // Unsampled states of the current walk (exact, whatever mode `visited_`
  // uses), reused across walks.
  ShardedStateTable seen_;
};

// Appends the Describe() line of every transition in `path` to *trace.
inline void DescribePath(const CheckedSystem& system,
                         const std::vector<CheckedSystem::Transition>& path,
                         std::vector<std::string>* trace) {
  for (const CheckedSystem::Transition& t : path) {
    trace->push_back(t.Describe(system));
  }
}

}  // namespace efeu::check

#endif  // SRC_CHECK_FORCED_RUN_H_
