// Equivalence and regression tests for the state-space reductions: ample-set
// partial-order reduction (CheckerOptions::por) and COLLAPSE-style compressed
// state storage (CheckerOptions::collapse).
//
// The equivalence suite runs every shipped i2c and spi verifier configuration
// (passing, quirk-violating, and fault-injection) under all four
// {por, collapse} x {on, off} combinations, sequentially and with
// num_threads > 1, and requires identical verdicts. COLLAPSE additionally
// must not change state or transition counts at all — it is pure storage.
//
// The targeted regressions pin the soundness obligations of the reduction on
// synthetic systems: the cycle proviso (a naive ample set would orbit a
// reduced rendezvous cycle forever and hide a third process's violation),
// deadlock detection through reduced states, and non-progress cycles whose
// every edge is a reduced transfer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/check/checker.h"
#include "src/check/state_codec.h"
#include "src/i2c/verify.h"
#include "src/ir/compile.h"
#include "src/spi/verify.h"
#include "src/support/hash.h"

namespace efeu {
namespace {

check::CheckerOptions Combo(bool por, bool collapse) {
  check::CheckerOptions options;
  options.por = por;
  options.collapse = collapse;
  return options;
}

void ExpectValidTrace(const check::CheckResult& result, const std::string& context) {
  if (result.ok || !result.violation.has_value()) {
    return;
  }
  for (const std::string& step : result.violation->trace) {
    EXPECT_FALSE(step.empty()) << context << ": empty trace line";
  }
  if (result.violation->kind == check::ViolationKind::kAssertionFailed ||
      result.violation->kind == check::ViolationKind::kNonProgressCycle) {
    EXPECT_FALSE(result.violation->trace.empty())
        << context << ": counterexample trace missing";
  }
}

// -- Equivalence suite over the shipped verifiers ----------------------------

struct I2cCase {
  const char* name;
  i2c::VerifyConfig config;
};

std::vector<I2cCase> I2cCases() {
  std::vector<I2cCase> cases;
  {
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kSymbol;
    c.num_ops = 2;
    cases.push_back({"symbol/full", c});
  }
  {
    // Raspberry Pi quirk: the no-clock-stretching controller against a
    // stretching input space — a violating configuration.
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kSymbol;
    c.num_ops = 2;
    c.stretch_input = true;
    c.no_clock_stretching = true;
    cases.push_back({"symbol/no-stretch-quirk", c});
  }
  {
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kByte;
    c.num_ops = 2;
    cases.push_back({"byte/full", c});
  }
  {
    // KS0127 responder with the standard controller: deadlocks (invalid end
    // state, paper section 4.5).
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kByte;
    c.num_ops = 1;
    c.ks0127_responder = true;
    cases.push_back({"byte/ks0127-deadlock", c});
  }
  {
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kTransaction;
    c.abstraction = i2c::VerifyAbstraction::kByte;
    c.num_ops = 2;
    c.max_len = 3;
    cases.push_back({"transaction/byte-abs", c});
  }
  {
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kEepDriver;
    c.abstraction = i2c::VerifyAbstraction::kTransaction;
    c.num_ops = 2;
    c.max_len = 3;
    cases.push_back({"eep/txn", c});
  }
  {
    // Fault injection: every schedule of up to 2 NACKed bus events.
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kEepDriver;
    c.abstraction = i2c::VerifyAbstraction::kTransaction;
    c.num_ops = 2;
    c.max_len = 4;
    c.fault_events = 2;
    cases.push_back({"eep/txn/faults2", c});
  }
  {
    // Soft reset as a nondeterministic event: reset convergence must survive
    // both reductions.
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kEepDriver;
    c.abstraction = i2c::VerifyAbstraction::kTransaction;
    c.num_ops = 2;
    c.max_len = 3;
    c.reset_events = 1;
    cases.push_back({"eep/txn/resets1", c});
  }
  {
    // A fault and a reset composed in one schedule.
    i2c::VerifyConfig c;
    c.level = i2c::VerifyLevel::kEepDriver;
    c.abstraction = i2c::VerifyAbstraction::kTransaction;
    c.num_ops = 2;
    c.max_len = 2;
    c.fault_events = 1;
    c.reset_events = 1;
    cases.push_back({"eep/txn/faults1-resets1", c});
  }
  return cases;
}

TEST(PorCollapseEquivalence, I2cVerifiersAgreeAcrossAllCombos) {
  for (const I2cCase& entry : I2cCases()) {
    DiagnosticEngine diag;
    i2c::VerifyRunResult baseline =
        i2c::RunVerification(entry.config, diag, Combo(false, false));
    ASSERT_FALSE(diag.HasErrors()) << entry.name << "\n" << diag.RenderAll();
    ExpectValidTrace(baseline.safety, std::string(entry.name) + " baseline");

    for (bool por : {false, true}) {
      for (bool collapse : {false, true}) {
        if (!por && !collapse) {
          continue;
        }
        DiagnosticEngine d;
        i2c::VerifyRunResult r =
            i2c::RunVerification(entry.config, d, Combo(por, collapse));
        std::string context = std::string(entry.name) + " por=" +
                              (por ? "1" : "0") + " collapse=" + (collapse ? "1" : "0");
        EXPECT_EQ(r.ok, baseline.ok) << context;
        EXPECT_EQ(r.safety.ok, baseline.safety.ok) << context;
        if (!baseline.safety.ok && !r.safety.ok) {
          ASSERT_TRUE(r.safety.violation.has_value()) << context;
          EXPECT_EQ(r.safety.violation->kind, baseline.safety.violation->kind)
              << context;
        }
        ExpectValidTrace(r.safety, context);
        // COLLAPSE is pure storage: with the same por setting, counts match
        // the uncompressed search exactly, and reduced searches never store
        // more states than the baseline.
        EXPECT_LE(r.safety.states_stored, baseline.safety.states_stored) << context;
      }
    }

    // collapse on/off with matching por: identical exploration.
    for (bool por : {false, true}) {
      DiagnosticEngine d1;
      i2c::VerifyRunResult plain =
          i2c::RunVerification(entry.config, d1, Combo(por, false));
      DiagnosticEngine d2;
      i2c::VerifyRunResult compressed =
          i2c::RunVerification(entry.config, d2, Combo(por, true));
      EXPECT_EQ(plain.safety.states_stored, compressed.safety.states_stored)
          << entry.name << " por=" << por;
      EXPECT_EQ(plain.safety.transitions, compressed.safety.transitions)
          << entry.name << " por=" << por;
      EXPECT_EQ(plain.ok, compressed.ok) << entry.name << " por=" << por;
    }
  }
}

TEST(PorCollapseEquivalence, I2cParallelVerdictsMatchSequential) {
  for (const I2cCase& entry : I2cCases()) {
    DiagnosticEngine diag;
    i2c::VerifyRunResult sequential =
        i2c::RunVerification(entry.config, diag, Combo(true, true));
    check::CheckerOptions parallel_options = Combo(true, true);
    parallel_options.num_threads = 4;
    DiagnosticEngine diag2;
    i2c::VerifyRunResult parallel =
        i2c::RunVerification(entry.config, diag2, parallel_options);
    EXPECT_EQ(sequential.ok, parallel.ok) << entry.name;
    EXPECT_EQ(sequential.safety.ok, parallel.safety.ok) << entry.name;
    ExpectValidTrace(parallel.safety, std::string(entry.name) + " parallel");
  }
}

struct SpiCase {
  const char* name;
  spi::SpiVerifyConfig config;
};

std::vector<SpiCase> SpiCases() {
  std::vector<SpiCase> cases;
  {
    spi::SpiVerifyConfig c;
    c.level = spi::SpiVerifyLevel::kByte;
    c.num_ops = 2;
    cases.push_back({"spi-byte", c});
  }
  {
    spi::SpiVerifyConfig c;
    c.level = spi::SpiVerifyLevel::kDriver;
    c.num_ops = 2;
    cases.push_back({"spi-driver", c});
  }
  {
    // Clock-phase mismatch: mode-1 controller against the mode-0 device.
    spi::SpiVerifyConfig c;
    c.level = spi::SpiVerifyLevel::kByte;
    c.num_ops = 1;
    c.mode1_controller = true;
    cases.push_back({"spi-byte/mode1", c});
  }
  {
    spi::SpiVerifyConfig c;
    c.level = spi::SpiVerifyLevel::kDriver;
    c.num_ops = 2;
    c.mode1_controller = true;
    cases.push_back({"spi-driver/mode1", c});
  }
  return cases;
}

TEST(PorCollapseEquivalence, SpiVerifiersAgreeAcrossAllCombos) {
  for (const SpiCase& entry : SpiCases()) {
    DiagnosticEngine diag;
    spi::SpiVerifyResult baseline =
        spi::RunSpiVerification(entry.config, diag, Combo(false, false));
    ASSERT_FALSE(diag.HasErrors()) << entry.name << "\n" << diag.RenderAll();

    for (bool por : {false, true}) {
      for (bool collapse : {false, true}) {
        if (!por && !collapse) {
          continue;
        }
        DiagnosticEngine d;
        spi::SpiVerifyResult r =
            spi::RunSpiVerification(entry.config, d, Combo(por, collapse));
        std::string context = std::string(entry.name) + " por=" +
                              (por ? "1" : "0") + " collapse=" + (collapse ? "1" : "0");
        EXPECT_EQ(r.ok, baseline.ok) << context;
        EXPECT_EQ(r.safety.ok, baseline.safety.ok) << context;
        if (!baseline.safety.ok && !r.safety.ok) {
          ASSERT_TRUE(r.safety.violation.has_value()) << context;
          EXPECT_EQ(r.safety.violation->kind, baseline.safety.violation->kind)
              << context;
        }
        ExpectValidTrace(r.safety, context);
        EXPECT_LE(r.safety.states_stored, baseline.safety.states_stored) << context;
      }
    }

    // Parallel engine, reductions on: same verdict as the sequential search.
    check::CheckerOptions parallel_options = Combo(true, true);
    parallel_options.num_threads = 4;
    DiagnosticEngine diag2;
    spi::SpiVerifyResult parallel =
        spi::RunSpiVerification(entry.config, diag2, parallel_options);
    EXPECT_EQ(parallel.ok, baseline.ok) << entry.name << " parallel";
    EXPECT_EQ(parallel.safety.ok, baseline.safety.ok) << entry.name << " parallel";
  }
}

// COLLAPSE memory claim on the fault-injection configuration the benches
// record: component-id tuples plus the component pool must come in at least
// 3x below the uncompressed state vectors.
TEST(PorCollapseEquivalence, CollapseCutsBytesPerStateAtLeast3x) {
  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kEepDriver;
  config.abstraction = i2c::VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 4;
  config.fault_events = 2;
  DiagnosticEngine diag;
  i2c::VerifyRunResult plain = i2c::RunVerification(config, diag, Combo(false, false));
  DiagnosticEngine diag2;
  i2c::VerifyRunResult compressed =
      i2c::RunVerification(config, diag2, Combo(false, true));
  ASSERT_TRUE(plain.ok);
  ASSERT_TRUE(compressed.ok);
  ASSERT_EQ(plain.safety.states_stored, compressed.safety.states_stored);
  uint64_t compressed_total =
      compressed.safety.state_bytes + compressed.safety.component_bytes;
  EXPECT_GE(plain.safety.state_bytes, 3 * compressed_total)
      << "plain=" << plain.safety.state_bytes << " compressed=" << compressed_total;
}

// -- Targeted regressions on synthetic systems -------------------------------

constexpr const char* kEsi = R"esi(
layer Up;
layer Down;
interface <Up, Down> {
  => { i32 v; },
  <= { i32 r; }
};
)esi";

std::unique_ptr<ir::Compilation> Compile(const std::string& esm) {
  DiagnosticEngine diag;
  ir::CompileOptions options;
  options.allow_nondet = true;
  auto comp = ir::Compile(kEsi, esm, diag, options);
  EXPECT_NE(comp, nullptr) << diag.RenderAll();
  return comp;
}

void Wire(check::CheckedSystem& system, const ir::Compilation& comp, int up, int down) {
  system.ConnectByChannel(up, down, comp.system().FindChannel("Up", "Down"));
  system.ConnectByChannel(down, up, comp.system().FindChannel("Down", "Up"));
}

// The forced-run sampling rule hashes the full snapshot, which the COLLAPSE
// codec maintains and rehashes only from the first rewritten process on.
// Random walks that jump back to earlier keys must always agree with a hash
// of a fresh snapshot of every process.
TEST(StateCodec, FullStateHashMatchesFreshSnapshot) {
  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kEepDriver;
  config.abstraction = i2c::VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 3;
  config.fault_events = 1;
  DiagnosticEngine diag;
  auto verifier = i2c::BuildVerifier(config, diag);
  ASSERT_NE(verifier, nullptr) << diag.RenderAll();
  check::CheckedSystem& system = verifier->system();
  check::CollapseTable table(system.SnapshotSizes());
  check::StateCodec codec(system, &table);

  auto fresh_hash = [&system] {
    std::vector<int32_t> full;
    for (int p = 0; p < system.process_count(); ++p) {
      std::vector<int32_t> words(static_cast<size_t>(system.process(p).SnapshotSize()));
      system.process(p).Snapshot(words);
      full.insert(full.end(), words.begin(), words.end());
    }
    return HashWords(full);
  };

  uint64_t rng = 12345;
  auto next_random = [&rng](size_t bound) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<size_t>(rng >> 33) % bound;
  };
  std::vector<std::vector<int32_t>> seen;
  std::vector<int32_t> key;
  std::vector<check::CheckedSystem::Transition> enabled;
  int checked = 0;
  for (int walk = 0; walk < 40; ++walk) {
    system.ResetAll();
    check::Violation violation;
    bool progress = false;
    ASSERT_TRUE(system.Closure(&violation, &progress));
    codec.EncodeFull(&key);
    if (!seen.empty() && walk % 2 == 1) {
      codec.Restore(seen[next_random(seen.size())]);  // Resume from an earlier state.
    }
    for (int step = 0; step < 60; ++step) {
      system.EnabledTransitions(&enabled);
      if (enabled.empty()) {
        break;
      }
      const check::CheckedSystem::Transition t = enabled[next_random(enabled.size())];
      codec.NoteStep(t);
      system.Apply(t);
      if (!system.Closure(&violation, &progress)) {
        break;
      }
      codec.EncodeStep(&key);
      ASSERT_EQ(codec.FullStateHash(0), fresh_hash()) << "walk " << walk << " step " << step;
      ++checked;
      seen.push_back(key);
      if (next_random(4) == 0) {
        // Jump to an earlier state mid-walk, as the DFS does on backtrack.
        codec.Restore(seen[next_random(seen.size())]);
        ASSERT_EQ(codec.FullStateHash(0), fresh_hash()) << "restore, walk " << walk;
      }
    }
  }
  EXPECT_GT(checked, 200);
}

// A rendezvous pair that exchanges forever on its exclusive channel. Every
// state on that orbit has the transfer as an ample candidate, so a naive
// reduction would explore only the A<->B cycle — closing it against the
// visited set — and never expand the third process, hiding its assertion
// failure. The cycle proviso (ample edge hits the DFS stack -> full
// expansion) must recover it.
TEST(PorRegression, CycleProvisoRecoversHiddenViolation) {
  auto pair = Compile(R"esm(
void Up() {
  DownToUp r;
  spin:
  r = UpTalkDown(1);
  goto spin;
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(2);
  goto end_reply;
}
)esm");
  auto bystander = Compile(R"esm(
void Up() {
  int x;
  x = nondet(2);
  assert(x != 1);
}
)esm");
  for (bool por : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(pair->FindModule("Up"), "Up");
    int down = system.AddModule(pair->FindModule("Down"), "Down");
    system.AddModule(bystander->FindModule("Up"), "Bystander");
    Wire(system, *pair, up, down);
    check::CheckerOptions options = Combo(por, true);
    check::CheckResult result = system.Check(options);
    ASSERT_FALSE(result.ok) << "por=" << por;
    EXPECT_EQ(result.violation->kind, check::ViolationKind::kAssertionFailed)
        << "por=" << por;
    EXPECT_FALSE(result.violation->trace.empty()) << "por=" << por;
  }
}

// Deadlock behind reduced states: the pair exchanges once over the exclusive
// channel, then the receiver parks at a non-end label, while a bystander's
// choices keep the early states multi-transition (so the reduction actually
// engages). The invalid end state must be reported either way.
TEST(PorRegression, DeadlockDetectedThroughReducedStates) {
  auto pair = Compile(R"esm(
void Up() {
  DownToUp r;
  r = UpTalkDown(1);
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  stuck:
  q = DownReadUp();
}
)esm");
  auto bystander = Compile(R"esm(
void Up() {
  int x;
  x = nondet(3);
}
)esm");
  for (bool por : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(pair->FindModule("Up"), "Up");
    int down = system.AddModule(pair->FindModule("Down"), "Down");
    system.AddModule(bystander->FindModule("Up"), "Bystander");
    system.ConnectByChannel(up, down, pair->system().FindChannel("Up", "Down"));
    check::CheckerOptions options = Combo(por, true);
    check::CheckResult result = system.Check(options);
    ASSERT_FALSE(result.ok) << "por=" << por;
    EXPECT_EQ(result.violation->kind, check::ViolationKind::kInvalidEndState)
        << "por=" << por;
  }
}

// A non-progress cycle whose every edge is a reducible exclusive-channel
// transfer, with a bystander keeping the states multi-transition. The
// livelock-sensitive ample check plus the stack proviso must still surface
// the cycle.
TEST(PorRegression, LivelockAcrossReducedEdgesDetected) {
  auto pair = Compile(R"esm(
void Up() {
  DownToUp r;
  spin:
  r = UpTalkDown(1);
  goto spin;
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(2);
  goto end_reply;
}
)esm");
  auto bystander = Compile(R"esm(
void Up() {
  int x;
  x = nondet(3);
}
)esm");
  for (bool por : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(pair->FindModule("Up"), "Up");
    int down = system.AddModule(pair->FindModule("Down"), "Down");
    system.AddModule(bystander->FindModule("Up"), "Bystander");
    Wire(system, *pair, up, down);
    check::CheckerOptions options = Combo(por, true);
    options.check_deadlock = false;
    options.check_livelock = true;
    check::CheckResult result = system.Check(options);
    ASSERT_FALSE(result.ok) << "por=" << por;
    EXPECT_EQ(result.violation->kind, check::ViolationKind::kNonProgressCycle)
        << "por=" << por;
  }
}

// Counterpart: the same orbit with a progress label is NOT a livelock, and
// progress visibility (transfers whose participants may pass a progress
// label are never reduced in the livelock-sensitive search) must keep the
// verdict clean rather than hiding the label behind a reduced edge.
TEST(PorRegression, ProgressLabelSurvivesReduction) {
  auto pair = Compile(R"esm(
void Up() {
  DownToUp r;
  progress_spin:
  r = UpTalkDown(1);
  goto progress_spin;
}
void Down() {
  UpToDown q;
  end_init:
  q = DownReadUp();
  end_reply:
  q = DownTalkUp(2);
  goto end_reply;
}
)esm");
  auto bystander = Compile(R"esm(
void Up() {
  int x;
  x = nondet(3);
}
)esm");
  for (bool por : {true, false}) {
    check::CheckedSystem system;
    int up = system.AddModule(pair->FindModule("Up"), "Up");
    int down = system.AddModule(pair->FindModule("Down"), "Down");
    system.AddModule(bystander->FindModule("Up"), "Bystander");
    Wire(system, *pair, up, down);
    check::CheckerOptions options = Combo(por, true);
    options.check_deadlock = false;
    options.check_livelock = true;
    EXPECT_TRUE(system.Check(options).ok) << "por=" << por;
  }
}

// Forced-run chain compression must actually bite on the serialized
// fault-injection pipeline (the configs BENCH_check.json records): those
// state spaces are dominated by singleton-transition states that classic
// ample sets never touch (PickAmple refuses to reduce a singleton set).
// Tripwire for the regression where por_reduced_states was 0 on every
// EEPROM fault config and por=on stored exactly as many states as por=off.
TEST(PorCollapseEquivalence, FaultConfigsReportPorReduction) {
  i2c::VerifyConfig config;
  config.level = i2c::VerifyLevel::kEepDriver;
  config.abstraction = i2c::VerifyAbstraction::kTransaction;
  config.num_ops = 2;
  config.max_len = 4;
  config.fault_events = 2;

  DiagnosticEngine diag;
  i2c::VerifyRunResult reduced = i2c::RunVerification(config, diag, Combo(true, true));
  ASSERT_FALSE(diag.HasErrors()) << diag.RenderAll();
  ASSERT_TRUE(reduced.ok);
  EXPECT_GT(reduced.safety.por_reduced_states, 0u)
      << "POR elided nothing on a fault config (ample starvation regression)";

  DiagnosticEngine diag2;
  i2c::VerifyRunResult baseline = i2c::RunVerification(config, diag2, Combo(false, true));
  ASSERT_FALSE(diag2.HasErrors()) << diag2.RenderAll();
  ASSERT_TRUE(baseline.ok);
  EXPECT_LT(reduced.safety.states_stored, baseline.safety.states_stored)
      << "por=on should store strictly fewer states than por=off here";

  // The parallel engine applies the same sampling rule and must agree on the
  // stored set exactly.
  check::CheckerOptions parallel_options = Combo(true, true);
  parallel_options.num_threads = 4;
  DiagnosticEngine diag3;
  i2c::VerifyRunResult parallel =
      i2c::RunVerification(config, diag3, parallel_options);
  ASSERT_TRUE(parallel.ok);
  EXPECT_EQ(parallel.safety.states_stored, reduced.safety.states_stored);
}

}  // namespace
}  // namespace efeu
