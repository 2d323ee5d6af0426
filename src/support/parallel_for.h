// A minimal worker pool for loops over independent items: the verification
// suite (one RunVerification per config) and the fleet (one stack run to
// quiescence per id) both use it.

#ifndef SRC_SUPPORT_PARALLEL_FOR_H_
#define SRC_SUPPORT_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace efeu {

// Calls body(i) exactly once for every i in [0, count) on up to `threads`
// worker threads (clamped to [1, count]). Workers claim the next unclaimed
// index from a shared atomic counter, so long and short items balance; with
// one worker the loop runs inline on the calling thread. `body` must be safe
// to call concurrently for distinct indices.
void ParallelFor(size_t count, int threads, const std::function<void(size_t)>& body);

}  // namespace efeu

#endif  // SRC_SUPPORT_PARALLEL_FOR_H_
