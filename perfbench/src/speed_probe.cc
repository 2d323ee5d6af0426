#include "speed_probe.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.h"

namespace perfbench {
namespace {

// Frozen reference work. Do not tune: see speed_probe.h.
struct Module {
  virtual ~Module() = default;
  virtual void Step(int32_t* frame, size_t words, uint32_t& x) = 0;
};

struct LcgModule : Module {
  void Step(int32_t* frame, size_t words, uint32_t& x) override {
    x = x * 1103515245u + 12345u;
    frame[x % words] += static_cast<int32_t>(x >> 16);
    if (frame[3] & 1) {
      frame[5] ^= frame[7];
    }
  }
};

struct XorModule : Module {
  void Step(int32_t* frame, size_t words, uint32_t& x) override {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    switch (x & 3) {
      case 0:
        ++frame[1];
        break;
      case 1:
        frame[2] += frame[1];
        break;
      case 2:
        frame[x % words] = 0;
        break;
      default:
        frame[9] -= 3;
    }
  }
};

}  // namespace

struct Reference {
  static constexpr int kModules = 10;
  static constexpr size_t kFrameWords = 64;
  static constexpr size_t kTableSlots = 4096;  // open addressing, power of two
  static constexpr int kStateWords = 16;

  Reference() {
    for (int m = 0; m < kModules; ++m) {
      modules[m] = m % 2 == 0 ? std::unique_ptr<Module>(std::make_unique<XorModule>())
                              : std::unique_ptr<Module>(std::make_unique<LcgModule>());
    }
  }

  uint64_t Run() {
    uint32_t x = 12345;
    uint64_t sink = 0;
    // Clocked modules: stage each frame, step it, commit it; a hook per tick.
    for (int m = 0; m < kModules; ++m) {
      std::fill(frames[m], frames[m] + kFrameWords, m);
    }
    std::function<void(double)> hook = [&sink](double t) {
      sink += static_cast<uint64_t>(t) & 1;
    };
    for (int tick = 0; tick < 1500; ++tick) {
      for (int m = 0; m < kModules; ++m) {
        const size_t words = 24 + (static_cast<size_t>(m) * 7) % 40;
        std::copy(frames[m], frames[m] + words, staged);
        modules[m]->Step(staged, words, x);
        std::copy(staged, staged + words, frames[m]);
      }
      hook(tick * 10.0);
    }
    // Visited-state table: hash 16-word states, insert, probe.
    std::fill(&table[0][0], &table[0][0] + kTableSlots * kStateWords, 0);
    std::fill(used, used + kTableSlots, false);
    int32_t state[kStateWords] = {};
    for (int i = 0; i < 900; ++i) {
      x = x * 1103515245u + 12345u;
      state[x % kStateWords] = static_cast<int32_t>(x >> 20);
      uint64_t h = 1469598103934665603ull;
      for (int32_t word : state) {
        h = (h ^ static_cast<uint32_t>(word)) * 1099511628211ull;
      }
      for (size_t slot = h & (kTableSlots - 1);; slot = (slot + 1) & (kTableSlots - 1)) {
        if (!used[slot]) {
          used[slot] = true;
          std::copy(state, state + kStateWords, table[slot]);
          break;
        }
        if (std::equal(state, state + kStateWords, table[slot])) {
          ++sink;
          break;
        }
      }
    }
    return sink + x;
  }

  std::unique_ptr<Module> modules[kModules];
  int32_t frames[kModules][kFrameWords] = {};
  int32_t staged[kFrameWords] = {};
  int32_t table[kTableSlots][kStateWords] = {};
  bool used[kTableSlots] = {};
};

namespace {

// Keeps the reference work observable so it cannot be optimized away.
volatile uint64_t g_probe_sink = 0;

}  // namespace

SpeedProbe::SpeedProbe() : reference_(std::make_unique<Reference>()) {
  CPU_ZERO(&allowed_);
  have_allowed_ = sched_getaffinity(0, sizeof(allowed_), &allowed_) == 0;
}

SpeedProbe::~SpeedProbe() {
  if (have_allowed_) {
    sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }
}

void SpeedProbe::Sample() {
  auto time_work = [this] {
    double best = 0;
    for (int repeat = 0; repeat < 2; ++repeat) {
      const double start = HostSeconds();
      g_probe_sink = g_probe_sink + reference_->Run();
      const double seconds = HostSeconds() - start;
      best = repeat == 0 ? seconds : std::min(best, seconds);
    }
    return best;
  };
  int fastest = -1;
  double fastest_s = 0;
  for (int cpu = 0; have_allowed_ && cpu < CPU_SETSIZE; ++cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (!CPU_ISSET(cpu, &allowed_) || sched_setaffinity(0, sizeof(one), &one) != 0) {
      continue;
    }
    const double seconds = time_work();
    if (fastest < 0 || seconds < fastest_s) {
      fastest = cpu;
      fastest_s = seconds;
    }
  }
  if (fastest < 0) {
    // Affinity is not available here: probe where the process runs.
    fastest_s = time_work();
  } else {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(fastest, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  points_.push_back({HostSeconds(), fastest_s});
}

void SpeedProbe::SampleIfDue(double interval) {
  if (points_.empty() || HostSeconds() - points_.back().at >= interval) {
    Sample();
  }
}

double SpeedProbe::Normalize(double start, double end) const {
  // Probe durations nearest before start and after end.
  double before = 0, after = 0;
  for (const Point& p : points_) {
    if (p.at <= start) {
      before = p.seconds;
    }
    if (p.at >= end && after == 0) {
      after = p.seconds;
    }
  }
  if (before == 0) {
    before = after;
  }
  if (after == 0) {
    after = before;
  }
  const double probe = 0.5 * (before + after);
  return probe > 0 ? (end - start) * kReferenceProbeSeconds / probe : end - start;
}

double SpeedProbe::MedianSpeed() const {
  std::vector<double> speeds;
  for (const Point& p : points_) {
    speeds.push_back(kReferenceProbeSeconds / p.seconds);
  }
  return Median(speeds);
}

}  // namespace perfbench
