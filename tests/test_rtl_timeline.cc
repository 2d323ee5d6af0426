// Byte-identical tripwire for the RTL clock edge. Any change to how
// components evaluate, stage and publish must leave the modeled timeline
// untouched; this test pins it against a committed golden
// (tests/goldens/rtl_timeline.txt, refreshed with
// `efeu_tests --update-goldens` only for a deliberate model change):
//
//   - a per-cycle digest of every handshake wire (valid, ready, payload) and
//     both bus lines, per operation of a fixed seeded stream of 14-byte
//     writes and reads (with one soft reset mid-stream) at three splits;
//   - the tier-1 fleet soak slice's CounterSignature();
//   - the Figure 10 kHz / CPU / IRQ figures of every hybrid split and mode.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/driver/hybrid.h"
#include "src/i2c/stack.h"
#include "src/sim/fleet.h"

namespace efeu {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(EFEU_GOLDEN_DIR) + "/" + name;
}

void CheckGolden(const std::string& name, const std::string& generated) {
  const std::string path = GoldenPath(name);
  if (std::getenv("EFEU_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << generated;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run `efeu_tests --update-goldens` to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(generated, golden.str())
      << "the modeled timeline changed; if that is intended, review and run "
      << "`efeu_tests --update-goldens` and commit the diff";
}

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;

uint64_t Mix(uint64_t hash, uint64_t value) {
  return (hash ^ value) * 0x100000001b3ull;
}

uint64_t SplitMix(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::shared_ptr<const ir::Compilation> SharedStack() {
  static const std::shared_ptr<const ir::Compilation> compilation = [] {
    DiagnosticEngine diag;
    return i2c::CompileControllerStack(diag);
  }();
  return compilation;
}

// One driver serving the seeded stream; one line per operation.
std::string StreamTimeline(driver::SplitPoint split, bool interrupt_driven) {
  constexpr int kOps = 8;
  constexpr int kLen = 14;
  driver::HybridConfig config;
  config.split = split;
  config.interrupt_driven = interrupt_driven;
  config.recovery.enabled = true;
  config.shared_compilation = SharedStack();
  driver::HybridDriver hybrid(config);

  uint64_t digest = kFnvOffset;
  uint64_t cycles = 0;
  rtl::RtlSystem& rtl = hybrid.rtl_system();
  sim::I2cBus& bus = hybrid.bus();
  rtl.SetPostTickHook([&](double) {
    for (const rtl::HsWire& wire : rtl.wires()) {
      digest = Mix(digest, (wire.valid ? 1u : 0u) | (wire.ready ? 2u : 0u));
      for (int32_t word : wire.data) {
        digest = Mix(digest, static_cast<uint32_t>(word));
      }
    }
    digest = Mix(digest, (bus.scl() ? 1u : 0u) | (bus.sda() ? 2u : 0u));
    ++cycles;
  });

  std::string out;
  char line[256];
  uint64_t rng = 0x5eed0000u + static_cast<uint64_t>(split) * 2 + (interrupt_driven ? 1 : 0);
  std::vector<uint8_t> data;
  int last_write = 0;
  for (int i = 0; i < kOps; ++i) {
    if (i == kOps / 2) {
      hybrid.SoftReset();
    }
    // W, R (read-back of that write), R (elsewhere), W, ...
    const bool write = i % 3 == 0;
    int offset = static_cast<int>(SplitMix(&rng) % 64) * 8;
    if (i % 3 == 1) {
      offset = last_write;
    } else if (write) {
      last_write = offset;
    }
    digest = kFnvOffset;
    cycles = 0;
    const uint64_t irqs0 = hybrid.irq_count();
    const double busy0 = hybrid.cpu_busy_ns();
    bool ok;
    if (write) {
      std::vector<uint8_t> payload;
      for (int b = 0; b < kLen; ++b) {
        payload.push_back(static_cast<uint8_t>(SplitMix(&rng)));
      }
      ok = hybrid.Write(offset, payload);
    } else {
      ok = hybrid.Read(offset, kLen, &data);
    }
    uint64_t data_hash = kFnvOffset;
    for (uint8_t byte : data) {
      data_hash = Mix(data_hash, byte);
    }
    std::snprintf(line, sizeof(line),
                  "%s/%s op%d %s@%d ok=%d cycles=%llu now_ns=%.1f busy_ns=%.1f irqs=%llu "
                  "data=%016llx wires=%016llx\n",
                  driver::SplitPointName(split), interrupt_driven ? "irq" : "poll", i,
                  write ? "W" : "R", offset, ok ? 1 : 0, static_cast<unsigned long long>(cycles),
                  hybrid.now_ns(), hybrid.cpu_busy_ns() - busy0,
                  static_cast<unsigned long long>(hybrid.irq_count() - irqs0),
                  static_cast<unsigned long long>(write ? 0 : data_hash),
                  static_cast<unsigned long long>(digest));
    out += line;
  }
  return out;
}

std::string Fig10Figures() {
  std::string out;
  char line[256];
  for (driver::SplitPoint split :
       {driver::SplitPoint::kElectrical, driver::SplitPoint::kSymbol, driver::SplitPoint::kByte,
        driver::SplitPoint::kTransaction, driver::SplitPoint::kEepDriver}) {
    for (bool interrupt_driven : {false, true}) {
      driver::HybridConfig config;
      config.split = split;
      config.interrupt_driven = interrupt_driven;
      config.capture_waveform = true;
      config.shared_compilation = SharedStack();
      driver::HybridDriver hybrid(config);
      driver::DriverMetrics metrics = hybrid.MeasureReads(3, 14);
      std::snprintf(line, sizeof(line),
                    "fig10 %s/%s functional=%d khz=%.6f sd_khz=%.6f cpu=%.9f irqs=%llu\n",
                    driver::SplitPointName(split), interrupt_driven ? "irq" : "poll",
                    metrics.functional ? 1 : 0, metrics.frequency.mean_khz,
                    metrics.frequency.stddev_khz, metrics.cpu_usage,
                    static_cast<unsigned long long>(metrics.irq_count));
      out += line;
    }
  }
  return out;
}

TEST(RtlTimeline, ModeledTimelineMatchesGolden) {
  std::string generated;
  generated += StreamTimeline(driver::SplitPoint::kEepDriver, /*interrupt_driven=*/true);
  generated += StreamTimeline(driver::SplitPoint::kByte, /*interrupt_driven=*/false);
  generated += StreamTimeline(driver::SplitPoint::kElectrical, /*interrupt_driven=*/false);

  sim::Fleet fleet;
  for (int i = 0; i < 16; ++i) {
    fleet.AddStack(sim::MakeSoakStack(i, /*base_seed=*/1));
  }
  generated += "fleet16 " + fleet.Run().CounterSignature() + "\n";

  generated += Fig10Figures();
  CheckGolden("rtl_timeline.txt", generated);
}

}  // namespace
}  // namespace efeu
