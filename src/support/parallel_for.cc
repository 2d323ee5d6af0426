#include "src/support/parallel_for.h"

#include <atomic>
#include <thread>
#include <vector>

namespace efeu {

void ParallelFor(size_t count, int threads, const std::function<void(size_t)>& body) {
  size_t workers = threads < 1 ? 1 : static_cast<size_t>(threads);
  if (workers > count) {
    workers = count;
  }
  std::atomic<size_t> next{0};
  auto run = [&]() {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      body(i);
    }
  };
  if (workers <= 1) {
    run();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back(run);
  }
  for (std::thread& thread : pool) {
    thread.join();
  }
}

}  // namespace efeu
