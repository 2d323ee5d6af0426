// Unit tests for the RTL substrate and the platform simulation: handshake
// wires between clocked FSMs, the MMIO register file's auto-reset semantics,
// the deadline-paced bus adapter, the open-drain bus, the 24AA512 model, the
// waveform analysis, and the Xilinx IP engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "src/ir/compile.h"
#include "src/rtl/regfile.h"
#include "src/rtl/rtl_module.h"
#include "src/rtl/system.h"
#include "src/sim/bus_adapter.h"
#include "src/sim/eeprom.h"
#include "src/sim/i2c_bus.h"
#include "src/sim/waveform.h"
#include "src/sim/xilinx_ip.h"

namespace efeu {
namespace {

// ---------------------------------------------------------------------------
// I2C bus
// ---------------------------------------------------------------------------

TEST(I2cBus, WiredAndSemantics) {
  sim::I2cBus bus;
  int a = bus.AddDriver();
  int b = bus.AddDriver();
  EXPECT_TRUE(bus.scl());
  EXPECT_TRUE(bus.sda());
  bus.SetDriver(a, true, false);
  EXPECT_TRUE(bus.scl());
  EXPECT_FALSE(bus.sda());
  bus.SetDriver(b, false, true);
  EXPECT_FALSE(bus.scl());
  EXPECT_FALSE(bus.sda());
  bus.SetDriver(a, true, true);
  EXPECT_FALSE(bus.scl());
  EXPECT_TRUE(bus.sda());
}

TEST(I2cBus, CaptureRecordsOnlyChanges) {
  sim::I2cBus bus;
  int d = bus.AddDriver();
  bus.EnableCapture(true);
  bus.Capture(0);
  bus.Capture(10);  // no change: not recorded
  bus.SetDriver(d, false, true);
  bus.Capture(20);
  ASSERT_EQ(bus.samples().size(), 2u);
  EXPECT_EQ(bus.samples()[1].t_ns, 20);
  EXPECT_FALSE(bus.samples()[1].scl);
}

// The incremental low-driver counts agree with a brute-force wired-AND over
// every driver, through random drives, forced-low overlays and masked reads.
TEST(I2cBus, IncrementalLevelsMatchBruteForce) {
  constexpr int kDrivers = 5;
  sim::I2cBus bus;
  std::vector<std::pair<bool, bool>> drive(kDrivers, {true, true});
  for (int i = 0; i < kDrivers; ++i) {
    bus.AddDriver();
  }
  bool scl_forced = false;
  bool sda_forced = false;
  std::mt19937 rng(7);
  for (int step = 0; step < 2000; ++step) {
    const int id = static_cast<int>(rng() % kDrivers);
    switch (rng() % 4) {
      case 0:
        scl_forced = rng() % 4 == 0;
        bus.ForceSclLow(scl_forced);
        break;
      case 1:
        sda_forced = rng() % 4 == 0;
        bus.ForceSdaLow(sda_forced);
        break;
      default:
        drive[id] = {rng() % 3 != 0, rng() % 3 != 0};
        bus.SetDriver(id, drive[id].first, drive[id].second);
        break;
    }
    auto level = [&](bool sda_line, int except) {
      if (sda_line ? sda_forced : scl_forced) {
        return false;
      }
      for (int d = 0; d < kDrivers; ++d) {
        if (d != except && !(sda_line ? drive[d].second : drive[d].first)) {
          return false;
        }
      }
      return true;
    };
    ASSERT_EQ(bus.scl(), level(false, -1)) << "step " << step;
    ASSERT_EQ(bus.sda(), level(true, -1)) << "step " << step;
    for (int d = 0; d < kDrivers; ++d) {
      ASSERT_EQ(bus.SclExcept(d), level(false, d)) << "step " << step << " driver " << d;
      ASSERT_EQ(bus.SdaExcept(d), level(true, d)) << "step " << step << " driver " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// Waveform analysis
// ---------------------------------------------------------------------------

TEST(Waveform, EdgeDetectionAndFrequency) {
  std::vector<sim::I2cBus::Sample> samples;
  // A clean 400 kHz clock: edges every 1250 ns.
  bool level = true;
  double t = 0;
  samples.push_back({0, true, true});
  for (int i = 0; i < 20; ++i) {
    t += 1250;
    level = !level;
    samples.push_back({t, level, true});
  }
  auto rising = sim::SclRisingEdges(samples);
  EXPECT_EQ(rising.size(), 10u);
  sim::FrequencyStats stats = sim::AnalyzeSclFrequency(samples);
  EXPECT_NEAR(stats.mean_khz, 400.0, 0.5);
  EXPECT_NEAR(stats.stddev_khz, 0.0, 0.01);
}

TEST(Waveform, AsciiRendering) {
  std::vector<sim::I2cBus::Sample> samples = {{0, true, true}, {500, false, true}};
  std::string art = sim::RenderAsciiWaveform(samples, 1000, 10);
  EXPECT_NE(art.find("SCL #####_____"), std::string::npos);
  EXPECT_NE(art.find("SDA ##########"), std::string::npos);
}

// ---------------------------------------------------------------------------
// RtlModule handshake between two generated FSMs
// ---------------------------------------------------------------------------

// A sends two requests and halts; B answers each with twice its value.
std::unique_ptr<ir::Compilation> CompilePingPong() {
  DiagnosticEngine diag;
  auto comp = ir::Compile(
      "layer A; layer B; interface <A, B> { => { i32 v; }, <= { i32 r; } };",
      R"esm(
void A() {
  BToA r;
  r = ATalkB(21);
  r = ATalkB(r.r);
}
void B() {
  AToB q;
  end_init:
  q = BReadA();
  end_reply:
  q = BTalkA(q.v * 2);
  goto end_reply;
}
)esm",
      diag);
  EXPECT_NE(comp, nullptr) << diag.RenderAll();
  return comp;
}

// Records the wires as a peer sees them during Evaluate(), i.e. the values
// committed at the previous clock edge.
class WireProbe : public rtl::RtlComponent {
 public:
  explicit WireProbe(std::vector<const rtl::HsWire*> wires) : wires_(std::move(wires)) {}
  void Evaluate() override {
    seen_.clear();
    for (const rtl::HsWire* wire : wires_) {
      seen_.push_back(*wire);
    }
  }
  void Commit() override {}
  const std::vector<rtl::HsWire>& seen() const { return seen_; }

 private:
  std::vector<const rtl::HsWire*> wires_;
  std::vector<rtl::HsWire> seen_;
};

TEST(RtlModule, TwoModulesHandshakeOverWires) {
  auto comp = CompilePingPong();
  ASSERT_NE(comp, nullptr);

  rtl::RtlSystem system;
  rtl::RtlModule a(comp->FindModule("A"), "A");
  rtl::RtlModule b(comp->FindModule("B"), "B");
  const esi::ChannelInfo* to_b = comp->system().FindChannel("A", "B");
  const esi::ChannelInfo* to_a = comp->system().FindChannel("B", "A");
  rtl::HsWire* down = system.CreateWire(to_b->flat_size);
  rtl::HsWire* up = system.CreateWire(to_a->flat_size);
  a.BindPort(a.module().FindPort(to_b, true), down);
  a.BindPort(a.module().FindPort(to_a, false), up);
  b.BindPort(b.module().FindPort(to_b, false), down);
  b.BindPort(b.module().FindPort(to_a, true), up);
  system.AddComponent(&a);
  system.AddComponent(&b);

  for (int i = 0; i < 200 && !a.halted(); ++i) {
    system.Tick();
  }
  EXPECT_TRUE(a.halted());
  // The second talk sent 42 down; B is parked waiting for the next request.
  EXPECT_FALSE(b.halted());
}

// A handshake that waits publishes nothing: Commit() writes a port only in
// the cycle its flag changes. A sentinel poked into the waiting sender's
// payload (never sampled, valid is up but nobody is ready) survives every
// wait cycle, as does a ready flag pulled away under a waiting receiver.
TEST(RtlModule, WaitingHandshakeLeavesItsWireUntouched) {
  auto comp = CompilePingPong();
  ASSERT_NE(comp, nullptr);
  const esi::ChannelInfo* to_b = comp->system().FindChannel("A", "B");
  const esi::ChannelInfo* to_a = comp->system().FindChannel("B", "A");

  rtl::RtlSystem system;
  rtl::RtlModule a(comp->FindModule("A"), "A");
  rtl::HsWire* down = system.CreateWire(to_b->flat_size);
  rtl::HsWire* up = system.CreateWire(to_a->flat_size);
  a.BindPort(a.module().FindPort(to_b, true), down);
  a.BindPort(a.module().FindPort(to_a, false), up);
  system.AddComponent(&a);
  for (int i = 0; i < 20 && !down->valid; ++i) {
    system.Tick();
  }
  ASSERT_TRUE(down->valid);
  EXPECT_EQ(down->data[0], 21);
  down->data[0] = -5;
  const uint64_t busy = a.busy_cycles();
  const std::vector<int32_t> frame(a.frame().begin(), a.frame().end());
  for (int i = 0; i < 50; ++i) {
    system.Tick();
  }
  EXPECT_TRUE(down->valid);
  EXPECT_EQ(down->data[0], -5);
  EXPECT_EQ(a.busy_cycles(), busy);
  EXPECT_TRUE(std::equal(frame.begin(), frame.end(), a.frame().begin()));

  // B alone: its receive raises ready once, then waits without a sender.
  rtl::RtlSystem system_b;
  rtl::RtlModule b(comp->FindModule("B"), "B");
  rtl::HsWire* req = system_b.CreateWire(to_b->flat_size);
  rtl::HsWire* reply = system_b.CreateWire(to_a->flat_size);
  b.BindPort(b.module().FindPort(to_b, false), req);
  b.BindPort(b.module().FindPort(to_a, true), reply);
  system_b.AddComponent(&b);
  for (int i = 0; i < 20 && !req->ready; ++i) {
    system_b.Tick();
  }
  ASSERT_TRUE(req->ready);
  req->ready = false;
  const rtl::HsWire reply_before = *reply;
  for (int i = 0; i < 50; ++i) {
    system_b.Tick();
  }
  EXPECT_FALSE(req->ready);
  EXPECT_EQ(reply->valid, reply_before.valid);
  EXPECT_EQ(reply->data, reply_before.data);
}

// After a mid-handshake Reset() plus RtlSystem::ResetWires(), a peer sampling
// the first post-reset edge sees deasserted flags and a zero payload, and the
// pair then replays the exchange from the start.
TEST(RtlModule, ResetShowsDeassertedWiresOnTheFirstEdge) {
  auto comp = CompilePingPong();
  ASSERT_NE(comp, nullptr);
  const esi::ChannelInfo* to_b = comp->system().FindChannel("A", "B");
  const esi::ChannelInfo* to_a = comp->system().FindChannel("B", "A");

  rtl::RtlSystem system;
  rtl::RtlModule a(comp->FindModule("A"), "A");
  rtl::RtlModule b(comp->FindModule("B"), "B");
  rtl::HsWire* down = system.CreateWire(to_b->flat_size);
  rtl::HsWire* up = system.CreateWire(to_a->flat_size);
  a.BindPort(a.module().FindPort(to_b, true), down);
  a.BindPort(a.module().FindPort(to_a, false), up);
  b.BindPort(b.module().FindPort(to_b, false), down);
  b.BindPort(b.module().FindPort(to_a, true), up);
  // The probe evaluates first, so it sees exactly what the last edge left.
  WireProbe probe({down, up});
  system.AddComponent(&probe);
  system.AddComponent(&a);
  system.AddComponent(&b);

  // Run until B's reply (42) is on the wire, mid-handshake.
  for (int i = 0; i < 50 && !(up->valid && up->data[0] == 42); ++i) {
    system.Tick();
  }
  ASSERT_TRUE(up->valid);
  ASSERT_EQ(up->data[0], 42);

  a.Reset();
  b.Reset();
  system.ResetWires();
  system.Tick();
  ASSERT_EQ(probe.seen().size(), 2u);
  for (const rtl::HsWire& wire : probe.seen()) {
    EXPECT_FALSE(wire.valid);
    EXPECT_FALSE(wire.ready);
    EXPECT_TRUE(std::all_of(wire.data.begin(), wire.data.end(), [](int32_t w) { return w == 0; }));
  }
  for (int i = 0; i < 200 && !a.halted(); ++i) {
    system.Tick();
  }
  EXPECT_TRUE(a.halted());
  EXPECT_EQ(down->data[0], 42);
}

// ---------------------------------------------------------------------------
// MMIO register file semantics
// ---------------------------------------------------------------------------

TEST(Regfile, AutoResetDeliversExactlyOnce) {
  rtl::RtlSystem system;
  rtl::MmioRegfile regfile(1, 1);
  rtl::HsWire* down = system.CreateWire(1);
  rtl::HsWire* up = system.CreateWire(1);
  regfile.BindDown(down);
  regfile.BindUp(up);
  system.AddComponent(&regfile);

  regfile.WriteDownWord(0, 77);
  regfile.SetDownValid();
  // Nobody ready yet: valid stays pending.
  system.Tick();
  system.Tick();
  EXPECT_TRUE(regfile.DownPending());
  EXPECT_TRUE(down->valid);
  // Peer asserts ready: one transfer, then the flag auto-resets.
  down->ready = true;
  system.Tick();
  system.Tick();
  down->ready = false;
  system.Tick();
  EXPECT_FALSE(regfile.DownPending());
  EXPECT_FALSE(down->valid);
  EXPECT_EQ(down->data[0], 77);
}

TEST(Regfile, UpLatchRaisesIrqOnceArmed) {
  rtl::RtlSystem system;
  rtl::MmioRegfile regfile(1, 1);
  rtl::HsWire* down = system.CreateWire(1);
  rtl::HsWire* up = system.CreateWire(1);
  regfile.BindDown(down);
  regfile.BindUp(up);
  system.AddComponent(&regfile);

  // Hardware offers a message; not armed yet: nothing happens.
  up->valid = true;
  up->data[0] = 9;
  system.Tick();
  system.Tick();
  EXPECT_FALSE(regfile.UpFull());
  // Arm, then the packet lands, ready auto-resets, irq raises.
  regfile.ArmUp();
  for (int i = 0; i < 4; ++i) {
    system.Tick();
  }
  EXPECT_TRUE(regfile.UpFull());
  EXPECT_TRUE(regfile.irq());
  EXPECT_FALSE(up->ready);  // auto-reset: no second packet can land
  EXPECT_EQ(regfile.ReadUpWord(0), 9);
  regfile.ConsumeUp();
  EXPECT_FALSE(regfile.irq());
}

TEST(Regfile, AblatedAutoResetRedelivers) {
  rtl::RtlSystem system;
  rtl::MmioRegfile regfile(1, 1);
  rtl::HsWire* down = system.CreateWire(1);
  rtl::HsWire* up = system.CreateWire(1);
  regfile.BindDown(down);
  regfile.BindUp(up);
  regfile.set_disable_auto_reset(true);
  system.AddComponent(&regfile);

  regfile.WriteDownWord(0, 5);
  regfile.SetDownValid();
  down->ready = true;
  for (int i = 0; i < 4; ++i) {
    system.Tick();
  }
  // Without the auto-reset the message stays published: double delivery.
  EXPECT_TRUE(down->valid);
  EXPECT_TRUE(regfile.DownPending());
}

// ---------------------------------------------------------------------------
// Bus adapter pacing
// ---------------------------------------------------------------------------

TEST(BusAdapter, HoldsLevelsForHalfCycle) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::BusAdapter adapter(&bus, /*half_cycle_ticks=*/50);
  rtl::HsWire* down = system.CreateWire(2);
  rtl::HsWire* up = system.CreateWire(2);
  adapter.BindDown(down);
  adapter.BindUp(up);
  system.AddComponent(&adapter);

  // Offer (scl=0, sda=1).
  down->data = {0, 1};
  down->valid = true;
  up->ready = true;
  uint64_t start = system.cycles();
  // Run until the adapter answers with the sample.
  int guard = 0;
  while (!up->valid && guard++ < 500) {
    system.Tick();
  }
  ASSERT_TRUE(up->valid);
  // The sample reflects the driven levels.
  EXPECT_EQ(up->data[0], 0);
  EXPECT_EQ(up->data[1], 1);
  EXPECT_FALSE(bus.scl());
  // A full (late-requester) half cycle elapsed.
  EXPECT_GE(system.cycles() - start, 50u);
}

// ---------------------------------------------------------------------------
// EEPROM model driven by the Xilinx IP engine (bit-level cross-check)
// ---------------------------------------------------------------------------

TEST(Eeprom, XilinxEngineReadsAndWrites) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.write_cycle_ns = 1000;
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  engine.StartWrite(0x50, 0x0123, {0xAA, 0xBB, 0xCC});
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_FALSE(engine.ack_failure());
  EXPECT_EQ(eeprom.MemoryAt(0x0123), 0xAA);
  EXPECT_EQ(eeprom.MemoryAt(0x0125), 0xCC);
  EXPECT_TRUE(eeprom.busy());
  while (eeprom.busy()) {
    system.Tick();
  }

  engine.StartRead(0x50, 0x0123, 3);
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_FALSE(engine.ack_failure());
  ASSERT_EQ(engine.read_data().size(), 3u);
  EXPECT_EQ(engine.read_data()[0], 0xAA);
  EXPECT_EQ(engine.read_data()[2], 0xCC);
}

TEST(Eeprom, NacksWrongAddress) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  engine.StartRead(0x31, 0, 1);  // nobody home at 0x31
  while (!engine.done()) {
    system.Tick();
  }
  EXPECT_TRUE(engine.ack_failure());
}

TEST(Eeprom, NacksWhileBusy) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.write_cycle_ns = 1e6;  // long write cycle
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  engine.StartWrite(0x50, 0, {1});
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_TRUE(eeprom.busy());
  engine.StartRead(0x50, 0, 1);
  while (!engine.done()) {
    system.Tick();
  }
  EXPECT_TRUE(engine.ack_failure());  // device stops responding while busy
}

TEST(Eeprom, SequentialReadWrapsPointer) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.memory_bytes = 256;  // wrap quickly
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);
  eeprom.Preload(254, 0x11);
  eeprom.Preload(255, 0x22);
  eeprom.Preload(0, 0x33);

  engine.StartRead(0x50, 254, 3);
  while (!engine.done()) {
    system.Tick();
  }
  ASSERT_EQ(engine.read_data().size(), 3u);
  EXPECT_EQ(engine.read_data()[0], 0x11);
  EXPECT_EQ(engine.read_data()[1], 0x22);
  EXPECT_EQ(engine.read_data()[2], 0x33);
}

TEST(Eeprom, PageWriteWrapsWithinPage) {
  sim::I2cBus bus;
  rtl::RtlSystem system;
  sim::XilinxIpEngine engine(&bus, 25, 0);
  sim::EepromConfig config;
  config.page_bytes = 4;
  config.write_cycle_ns = 100;
  sim::Eeprom24aa512 eeprom(&bus, config);
  system.AddComponent(&engine);
  system.AddComponent(&eeprom);

  // Write 6 bytes starting at offset 2 of a 4-byte page: wraps to offset 0.
  engine.StartWrite(0x50, 2, {1, 2, 3, 4, 5, 6});
  while (!engine.done()) {
    system.Tick();
  }
  // Pointer sequence: 2,3,0,1,2,3 — the later bytes overwrite the earlier
  // ones after wrapping within the page, as on the real device.
  EXPECT_EQ(eeprom.MemoryAt(0), 3);
  EXPECT_EQ(eeprom.MemoryAt(1), 4);
  EXPECT_EQ(eeprom.MemoryAt(2), 5);
  EXPECT_EQ(eeprom.MemoryAt(3), 6);
}

}  // namespace
}  // namespace efeu
