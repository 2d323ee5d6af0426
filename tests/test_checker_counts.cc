// Exactness tripwire for the model checker's storage and search loop. Any
// change to how visited states are stored, how COLLAPSE components are
// interned or how forced runs are walked must explore exactly the same
// states; this test pins the sequential engine's counts against a committed
// golden (tests/goldens/checker_counts.txt, refreshed with
// `efeu_tests --update-goldens` only for a deliberate change to the search):
//
//   - five verify_frontier configs (the EepDriver full stack, a fault budget,
//     a reset budget and the two known-FAIL quirks), each under safety and
//     liveness with por/collapse on and off and with fingerprint_only;
//   - per run: verdict, states_stored, transitions, por_reduced_states,
//     state_bytes, component_bytes and max_depth_reached;
//   - the full counterexample trace of every failing run, so a change to
//     how trace lines are built must reproduce them exactly.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/i2c/verify.h"

namespace efeu {
namespace {

struct Config {
  const char* name;
  i2c::VerifyConfig config;
};

std::vector<Config> Configs() {
  std::vector<Config> configs;
  i2c::VerifyConfig full;
  full.level = i2c::VerifyLevel::kEepDriver;
  full.num_ops = 2;
  full.max_len = 3;
  configs.push_back({"eepdrv_full", full});

  i2c::VerifyConfig faults;
  faults.level = i2c::VerifyLevel::kEepDriver;
  faults.abstraction = i2c::VerifyAbstraction::kTransaction;
  faults.num_ops = 2;
  faults.max_len = 4;
  faults.num_eeproms = 2;
  faults.fault_events = 2;
  configs.push_back({"eep2_faults2", faults});

  i2c::VerifyConfig reset = faults;
  reset.num_eeproms = 1;
  reset.fault_events = 0;
  reset.reset_events = 2;
  configs.push_back({"reset2", reset});

  i2c::VerifyConfig ks0127;
  ks0127.level = i2c::VerifyLevel::kByte;
  ks0127.num_ops = 1;
  ks0127.ks0127_responder = true;
  configs.push_back({"ks0127_std", ks0127});

  i2c::VerifyConfig rpi;
  rpi.level = i2c::VerifyLevel::kSymbol;
  rpi.num_ops = 2;
  rpi.stretch_input = true;
  rpi.no_clock_stretching = true;
  configs.push_back({"rpi_stretch", rpi});
  return configs;
}

struct Mode {
  const char* name;
  bool por;
  bool collapse;
  bool fingerprint_only;
};

constexpr Mode kModes[] = {
    {"por+collapse", true, true, false},
    {"por", true, false, false},
    {"collapse", false, true, false},
    {"plain", false, false, false},
    {"por+collapse+fp", true, true, true},
};

void AppendResult(const char* pass, const check::CheckResult& r, std::ostringstream& out) {
  out << "  " << pass << " ok=" << r.ok << " states=" << r.states_stored
      << " transitions=" << r.transitions << " por_reduced=" << r.por_reduced_states
      << " state_bytes=" << r.state_bytes << " component_bytes=" << r.component_bytes
      << " max_depth=" << r.max_depth_reached << " exhausted=" << r.budget_exhausted << "\n";
  if (r.violation.has_value()) {
    out << "    violation kind=" << static_cast<int>(r.violation->kind) << " "
        << r.violation->message << "\n";
    for (const std::string& line : r.violation->trace) {
      out << "      " << line << "\n";
    }
  }
}

std::string Render(const Config& config) {
  std::ostringstream out;
  for (const Mode& mode : kModes) {
    check::CheckerOptions options;
    options.por = mode.por;
    options.collapse = mode.collapse;
    options.fingerprint_only = mode.fingerprint_only;
    DiagnosticEngine diag;
    i2c::VerifyRunResult run = i2c::RunVerification(config.config, diag, options);
    EXPECT_FALSE(diag.HasErrors()) << config.name << ": " << diag.RenderAll();
    out << config.name << " " << mode.name << "\n";
    AppendResult("safety", run.safety, out);
    AppendResult("liveness", run.liveness, out);
  }
  return out.str();
}

TEST(CheckerCounts, MatchGolden) {
  std::string generated;
  for (const Config& config : Configs()) {
    generated += Render(config);
  }
  const std::string path = std::string(EFEU_GOLDEN_DIR) + "/checker_counts.txt";
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
      << "the checker explored a different state space; if that is intended, review and run "
      << "`efeu_tests --update-goldens` and commit the diff";
}

}  // namespace
}  // namespace efeu
