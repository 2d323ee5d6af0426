// The hardware FSM table (src/ir/fsm.h) and the Verilog printed from it.
//
//   - A golden pins the emitted Verilog of every hardware layer byte-for-byte
//     (tests/goldens/verilog_modules.txt) together with each module's FPGA
//     resource estimate: both shipped I2C stacks and every layer of the
//     committed fuzz corpus. Refresh with `efeu_tests --update-goldens` only
//     for a deliberate change to the printed FSM.
//   - A round trip reads the `case (state)` arms back out of the printed text
//     (no Verilog simulator is needed) and checks the rebuilt control
//     skeleton against the table the printer was given.
//   - Halt means "body once" in the table, the Verilog and the RTL simulator;
//     nondet() has no hardware FSM.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "src/codegen/verilog/verilog_backend.h"
#include "src/driver/resources.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/generator.h"
#include "src/i2c/stack.h"
#include "src/ir/compile.h"
#include "src/ir/fsm.h"
#include "src/rtl/rtl_module.h"
#include "src/rtl/system.h"
#include "src/vm/executor.h"

namespace efeu {
namespace {

std::string GoldenPath(const std::string& name) {
  return std::string(EFEU_GOLDEN_DIR) + "/" + name;
}

// Reports the first differing line instead of dumping both texts.
void CheckGolden(const std::string& name, const std::string& generated) {
  const std::string path = GoldenPath(name);
  if (std::getenv("EFEU_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << generated;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " — run `efeu_tests --update-goldens` to create it";
  std::ostringstream golden;
  golden << in.rdbuf();
  if (generated == golden.str()) {
    return;
  }
  std::istringstream want(golden.str());
  std::istringstream got(generated);
  std::string want_line;
  std::string got_line;
  std::string section;
  for (int line = 1;; ++line) {
    bool have_want = static_cast<bool>(std::getline(want, want_line));
    bool have_got = static_cast<bool>(std::getline(got, got_line));
    if (have_want && want_line.rfind("==== ", 0) == 0) {
      section = want_line;
    }
    if (!have_want || !have_got || want_line != got_line) {
      ADD_FAILURE() << name << " differs at line " << line << " (in " << section
                    << ")\n  golden: " << (have_want ? want_line : "<eof>")
                    << "\n  output: " << (have_got ? got_line : "<eof>")
                    << "\nif intended, refresh with `efeu_tests --update-goldens`";
      return;
    }
  }
}

void AppendModules(const std::string& origin, const ir::Compilation& compilation,
                   std::string* out) {
  for (const ir::Module& module : compilation.modules()) {
    driver::ResourceEstimate estimate = driver::EstimateModule(module);
    *out += "==== " + origin + " " + module.layer_name + " ffs=" + std::to_string(estimate.ffs) +
            " luts=" + std::to_string(estimate.luts) + " ====\n";
    *out += codegen::GenerateVerilogModule(module);
  }
}

TEST(VerilogGolden, EmittedModulesMatchGolden) {
  std::string text;
  DiagnosticEngine diag;
  auto controller = i2c::CompileControllerStack(diag);
  auto responder = i2c::CompileResponderStack(diag);
  ASSERT_NE(controller, nullptr) << diag.RenderAll();
  ASSERT_NE(responder, nullptr) << diag.RenderAll();
  AppendModules("controller", *controller, &text);
  AppendModules("responder", *responder, &text);

  std::vector<fuzz::CorpusEntry> entries;
  std::string error;
  ASSERT_TRUE(fuzz::LoadCorpusDir(EFEU_FUZZ_CORPUS_DIR, &entries, &error)) << error;
  for (const fuzz::CorpusEntry& entry : entries) {
    DiagnosticEngine entry_diag;
    auto compilation = ir::Compile(entry.esi, entry.esm, entry_diag);
    ASSERT_NE(compilation, nullptr) << entry.name << ": " << entry_diag.RenderAll();
    AppendModules("corpus/" + entry.name, *compilation, &text);
  }
  CheckGolden("verilog_modules.txt", text);
}

// ---------------------------------------------------------------------------
// A reader for the emitted FSM subset
// ---------------------------------------------------------------------------

// The control skeleton of one `case (state)` arm. For a handshake arm,
// `guard_lines` counts the plain assignments in the transfer branch and
// `entry_lines` those in the entry branch; every other arm counts all of
// them in `entry_lines`.
struct Arm {
  int number = -1;
  std::string kind;           // goto, branch, send, recv, deassert, halt
  int port = -1;              // handshake port named by the guard or flag writes
  std::vector<int> targets;   // every `state = N;`, in print order
  std::vector<std::string> flag_writes;  // "valid=1", "ready=0", ... in order
  int guard_lines = 0;
  int entry_lines = 0;

  bool operator==(const Arm&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Arm& arm) {
  os << arm.number << ":" << arm.kind << " port=" << arm.port << " targets=[";
  for (int t : arm.targets) {
    os << " " << t;
  }
  os << " ] flags=[";
  for (const std::string& w : arm.flag_writes) {
    os << " " << w;
  }
  return os << " ] lines=" << arm.guard_lines << "/" << arm.entry_lines;
}

struct ReadModule {
  int state_bits = 0;
  std::vector<Arm> arms;
  bool has_default = false;
};

std::string Trim(const std::string& line) {
  size_t b = line.find_first_not_of(' ');
  size_t e = line.find_last_not_of(' ');
  return b == std::string::npos ? "" : line.substr(b, e - b + 1);
}

// Parses the state register and every arm of the module's `case (state)`.
// Fails the test (and returns what it has) on a line it does not expect.
ReadModule ReadVerilogFsm(const std::string& text) {
  static const std::regex kStateReg(R"(reg \[(\d+):0\] state;)");
  static const std::regex kScalarReg(R"(reg \[\d+:0\] (\w+);)");
  static const std::regex kArmStart(R"((\d+): begin(  // \w+)?)");
  static const std::regex kGuard(
      R"(if \(p(\d+)_\w+_(valid|ready) && p(\d+)_\w+_(valid|ready)\) begin)");
  static const std::regex kEntry(R"(end else if \(!p(\d+)_\w+_(valid|ready)\) begin)");
  static const std::regex kFlag(R"(p(\d+)_\w+_(valid|ready) = ([01]);)");
  static const std::regex kTarget(R"(state = (\d+);)");
  static const std::regex kCond(R"(if \(\w+(\[\d+\])? != 0\) begin)");
  static const std::regex kAssign(R"([\w\[\]]+ = .*;)");
  ReadModule read;
  std::istringstream in(text);
  std::string raw;
  bool in_case = false;
  Arm arm;
  bool in_arm = false;
  bool in_guard = false;
  int depth = 0;
  std::smatch m;
  std::string scalars;  // "a|b|...": plain registers, where an index selects a bit
  std::regex scalar_index;
  auto note_port = [&](int port) {
    EXPECT_TRUE(arm.port < 0 || arm.port == port) << "arm " << arm.number << " names two ports";
    arm.port = port;
  };
  while (std::getline(in, raw)) {
    const std::string line = Trim(raw);
    if (!in_case) {
      if (std::regex_match(line, m, kStateReg)) {
        read.state_bits = std::stoi(m[1]) + 1;
      }
      if (std::regex_match(line, m, kScalarReg)) {
        scalars += (scalars.empty() ? "" : "|") + m[1].str();
      }
      if (line == "case (state)") {
        in_case = true;
        scalar_index = std::regex("\\b(" + scalars + ")\\[");
      }
      continue;
    }
    if (!in_arm) {
      if (line == "default: state = 0;") {
        read.has_default = true;
      } else if (line == "endcase") {
        break;
      } else if (std::regex_match(line, m, kArmStart)) {
        arm = Arm();
        arm.number = std::stoi(m[1]);
        in_arm = true;
        in_guard = false;
        depth = 1;
      } else {
        ADD_FAILURE() << "unexpected line between arms: " << line;
      }
      continue;
    }
    if (line == "end") {
      if (--depth == 0) {
        in_arm = false;
        read.arms.push_back(arm);
      }
    } else if (std::regex_match(line, m, kGuard)) {
      EXPECT_EQ(m[1], m[3]) << "guard of arm " << arm.number << " mixes ports";
      const bool send = m[2] == "valid";
      EXPECT_EQ(m[4], send ? "ready" : "valid");
      note_port(std::stoi(m[1]));
      arm.kind = send ? "send" : "recv";
      in_guard = true;
      ++depth;
    } else if (std::regex_match(line, m, kEntry)) {
      EXPECT_TRUE(in_guard) << "entry branch without a guard in arm " << arm.number;
      EXPECT_EQ(m[2], arm.kind == "send" ? "valid" : "ready");
      note_port(std::stoi(m[1]));
      in_guard = false;
    } else if (std::regex_match(line, m, kCond)) {
      arm.kind = "branch";
      ++depth;
    } else if (line == "end else begin") {
      EXPECT_EQ(arm.kind, "branch");
    } else if (std::regex_match(line, m, kFlag)) {
      note_port(std::stoi(m[1]));
      arm.flag_writes.push_back(m[2].str() + "=" + m[3].str());
    } else if (std::regex_match(line, m, kTarget)) {
      arm.targets.push_back(std::stoi(m[1]));
    } else if (line == "state = state;  // halt") {
      arm.kind = "halt";
      arm.targets.push_back(arm.number);
    } else if (std::regex_match(line, kAssign) || line.rfind("// assert(", 0) == 0) {
      ++(in_guard ? arm.guard_lines : arm.entry_lines);
      EXPECT_FALSE(std::regex_search(line, m, scalar_index))
          << "arm " << arm.number << " indexes a plain register: " << line;
    } else {
      ADD_FAILURE() << "unexpected line in arm " << arm.number << ": " << line;
    }
  }
  for (Arm& a : read.arms) {
    if (a.kind.empty()) {
      a.kind = a.flag_writes == std::vector<std::string>{"ready=0"} ? "deassert" : "goto";
    }
  }
  return read;
}

// The skeleton the printer must produce for each table state.
std::vector<Arm> ExpectedArms(const ir::Module& module, const ir::FsmTable& table) {
  std::vector<Arm> arms;
  for (size_t s = 0; s < table.states.size(); ++s) {
    const ir::FsmState& state = table.states[s];
    const ir::Inst* ender =
        state.ender >= 0 ? &module.blocks[state.block].insts[state.ender] : nullptr;
    Arm arm;
    arm.number = static_cast<int>(s);
    arm.port = state.port;
    arm.targets = {state.next};
    arm.entry_lines = state.last - state.first;
    switch (state.kind) {
      case ir::FsmKind::kGoto:
        arm.kind = "goto";
        break;
      case ir::FsmKind::kBranch:
        arm.kind = "branch";
        arm.targets.push_back(state.next_else);
        break;
      case ir::FsmKind::kSend:
        arm.kind = "send";
        arm.flag_writes = {"valid=0", "valid=1"};
        arm.entry_lines += ender->count > 0 ? 1 : 0;  // data staging
        break;
      case ir::FsmKind::kRecv:
        arm.kind = "recv";
        arm.flag_writes = {"ready=1"};
        arm.guard_lines = ender->count;  // data save
        break;
      case ir::FsmKind::kRecvDeassert:
        arm.kind = "deassert";
        arm.flag_writes = {"ready=0"};
        break;
      case ir::FsmKind::kHalt:
        arm.kind = "halt";
        break;
    }
    arms.push_back(arm);
  }
  return arms;
}

void ExpectRoundTrip(const std::string& origin, const ir::Module& module) {
  SCOPED_TRACE(origin + " " + module.layer_name);
  const ir::FsmTable table = ir::BuildFsmTable(module);
  const ReadModule read = ReadVerilogFsm(codegen::GenerateVerilogModule(module));
  EXPECT_EQ(read.state_bits, table.state_bits);
  EXPECT_LE(table.states.size(), size_t{1} << table.state_bits);
  EXPECT_TRUE(read.has_default);
  const std::vector<Arm> expected = ExpectedArms(module, table);
  ASSERT_EQ(read.arms.size(), expected.size());
  for (size_t s = 0; s < expected.size(); ++s) {
    EXPECT_EQ(read.arms[s], expected[s]);
  }
}

TEST(VerilogRoundTrip, ShippedStacksMatchTheirTables) {
  DiagnosticEngine diag;
  auto controller = i2c::CompileControllerStack(diag);
  auto responder = i2c::CompileResponderStack(diag);
  ASSERT_NE(controller, nullptr) << diag.RenderAll();
  ASSERT_NE(responder, nullptr) << diag.RenderAll();
  for (const ir::Compilation* compilation : {controller.get(), responder.get()}) {
    for (const ir::Module& module : compilation->modules()) {
      ExpectRoundTrip("stack", module);
    }
  }
}

TEST(VerilogRoundTrip, FuzzCorpusMatchesTables) {
  std::vector<fuzz::CorpusEntry> entries;
  std::string error;
  ASSERT_TRUE(fuzz::LoadCorpusDir(EFEU_FUZZ_CORPUS_DIR, &entries, &error)) << error;
  for (const fuzz::CorpusEntry& entry : entries) {
    DiagnosticEngine diag;
    auto compilation = ir::Compile(entry.esi, entry.esm, diag);
    ASSERT_NE(compilation, nullptr) << entry.name << ": " << diag.RenderAll();
    for (const ir::Module& module : compilation->modules()) {
      ExpectRoundTrip(entry.name, module);
    }
  }
}

TEST(VerilogRoundTrip, GeneratedSpecsMatchTheirTables) {
  int modules = 0;
  for (uint64_t seed = 1; modules < 50; ++seed) {
    fuzz::SpecModel model = fuzz::GenerateSpec(seed);
    DiagnosticEngine diag;
    auto compilation = ir::Compile(model.RenderEsi(), model.RenderEsm(), diag);
    ASSERT_NE(compilation, nullptr) << "seed " << seed << ": " << diag.RenderAll();
    for (const ir::Module& module : compilation->modules()) {
      ExpectRoundTrip("seed " + std::to_string(seed), module);
      ++modules;
    }
  }
}

// ---------------------------------------------------------------------------
// Halt and nondet
// ---------------------------------------------------------------------------

// B's body ends in assignments before an implicit halt. The printed halt arm
// must hold without re-running them, and the RTL frame after halt must equal
// the VM's, however long the FSM sits in its halt state.
TEST(FsmTable, HaltBodyRunsOnce) {
  DiagnosticEngine diag;
  auto comp = ir::Compile("layer A; layer B; interface <A, B> { => { i32 v; }, <= { i32 r; } };",
                          R"esm(
void B() {
  AToB q;
  int x;
  x = 3;
  q = BReadA();
  x = x + q.v;
  x = x * 2;
}
)esm",
                          diag);
  ASSERT_NE(comp, nullptr) << diag.RenderAll();
  const ir::Module* module = comp->FindModule("B");

  const ReadModule read = ReadVerilogFsm(codegen::GenerateVerilogModule(*module));
  int halts = 0;
  for (const Arm& arm : read.arms) {
    if (arm.kind == "halt") {
      ++halts;
      EXPECT_EQ(arm.entry_lines, 0) << "halt arm " << arm.number << " re-runs a body";
    }
  }
  EXPECT_GT(halts, 0);
  ExpectRoundTrip("halt", *module);

  vm::IrExecutor executor(module);
  executor.Run();
  const std::vector<int32_t> request = {5};
  executor.CompleteRecv(request);
  ASSERT_EQ(executor.Run(), vm::RunState::kHalted);

  const esi::ChannelInfo* in = comp->system().FindChannel("A", "B");
  rtl::RtlSystem system;
  rtl::RtlModule hardware(module, "B");
  rtl::HsWire* down = system.CreateWire(in->flat_size);
  hardware.BindPort(0, down);
  system.AddComponent(&hardware);
  down->data = request;
  down->valid = true;
  for (int i = 0; i < 100 && !hardware.halted(); ++i) {
    system.Tick();
  }
  ASSERT_TRUE(hardware.halted());
  for (int i = 0; i < 20; ++i) {
    system.Tick();
  }
  EXPECT_TRUE(std::equal(executor.frame().begin(), executor.frame().end(),
                         hardware.frame().begin(), hardware.frame().end()));
  const ir::SlotInfo* x = nullptr;
  for (const ir::SlotInfo& slot : module->slots) {
    if (slot.name == "x") {
      x = &slot;
    }
  }
  ASSERT_NE(x, nullptr);
  EXPECT_EQ(hardware.frame()[x->offset], 16);
}

TEST(FsmTableDeathTest, NondetModuleHasNoHardwareFsm) {
  DiagnosticEngine diag;
  ir::CompileOptions options;
  options.allow_nondet = true;
  auto comp = ir::Compile("layer A; layer B; interface <A, B> { => { i32 v; }, <= { i32 r; } };",
                          R"esm(
void B() {
  AToB q;
  int x;
  end_init:
  q = BReadA();
  x = nondet(3);
  end_reply:
  q = BTalkA(x);
  goto end_reply;
}
)esm",
                          diag, options);
  ASSERT_NE(comp, nullptr) << diag.RenderAll();
  const ir::Module* module = comp->FindModule("B");
  EXPECT_DEATH(ir::BuildFsmTable(*module), "nondet");
}

}  // namespace
}  // namespace efeu
