// verify_frontier: a fixed set of i2c::RunVerification configs, safety plus
// liveness on the sequential engine with the default por/collapse: the
// other user path, time to a verdict. No RTL and no VM run here.
//
// The set spans the EepDriver full stack, two Figure 9 frontier points, a
// fault budget, a reset budget, and two quirk configs whose known answer is
// FAIL, so the counterexample path runs and verdicts are checked in both
// directions. Gates: every verdict equals its known answer, and state and
// transition counts repeat exactly across passes.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "speed_probe.h"
#include "src/i2c/verify.h"

namespace perfbench {
namespace {

using efeu::i2c::VerifyAbstraction;
using efeu::i2c::VerifyConfig;
using efeu::i2c::VerifyLevel;

struct Case {
  const char* name;
  VerifyConfig config;
  bool expect_ok;
};

std::vector<Case> MakeCases() {
  std::vector<Case> cases;
  {
    // Table 2's EepDriver row, no abstraction: the full stack below.
    VerifyConfig c;
    c.level = VerifyLevel::kEepDriver;
    c.num_ops = 2;
    c.max_len = 3;
    cases.push_back({"eepdrv_full", c, true});
  }
  {
    // Figure 9 frontier: 3 EEPROMs at len 5, 1 EEPROM variable payload len 8.
    VerifyConfig c;
    c.level = VerifyLevel::kEepDriver;
    c.abstraction = VerifyAbstraction::kTransaction;
    c.num_ops = 3;
    c.num_eeproms = 3;
    c.max_len = 5;
    cases.push_back({"eep3_len5", c, true});
    c.num_eeproms = 1;
    c.max_len = 8;
    c.variable_payload = true;
    cases.push_back({"eep1var_len8", c, true});
  }
  {
    VerifyConfig c;
    c.level = VerifyLevel::kEepDriver;
    c.abstraction = VerifyAbstraction::kTransaction;
    c.num_ops = 2;
    c.max_len = 4;
    c.num_eeproms = 2;
    c.fault_events = 2;
    cases.push_back({"eep2_faults2", c, true});
    c.num_eeproms = 1;
    c.fault_events = 0;
    c.reset_events = 2;
    cases.push_back({"reset2", c, true});
  }
  {
    // Section 4.5 quirks: KS0127 behind the standard controller, and the
    // Raspberry Pi controller facing a stretching responder. Both FAIL.
    VerifyConfig c;
    c.level = VerifyLevel::kByte;
    c.num_ops = 1;
    c.ks0127_responder = true;
    cases.push_back({"ks0127_std", c, false});
    VerifyConfig rpi;
    rpi.level = VerifyLevel::kSymbol;
    rpi.num_ops = 2;
    rpi.stretch_input = true;
    rpi.no_clock_stretching = true;
    cases.push_back({"rpi_stretch", rpi, false});
  }
  return cases;
}

struct Outcome {
  efeu::i2c::VerifyRunResult run;
  double start = 0;  // host time the RunVerification call began
  double host_s = 0;
  std::string error;
};

std::string Counts(const efeu::i2c::VerifyRunResult& r) {
  return std::to_string(r.safety.states_stored) + "/" + std::to_string(r.safety.transitions) +
         "/" + std::to_string(r.liveness.states_stored) + "/" +
         std::to_string(r.liveness.transitions);
}

}  // namespace

Result RunVerifyFrontier(const RunOptions& options, Tracer& tracer, SpeedProbe& probe) {
  Result result;
  std::vector<Case> cases = MakeCases();
  if (options.smoke) {
    cases = {cases[5], cases[6]};  // the two quick FAIL configs
  }
  if (options.break_gate) {
    cases.front().expect_ok = !cases.front().expect_ok;
  }
  // The seed only orders the set; every verdict and count is order-free.
  Rng rng(options.seed);
  for (size_t i = cases.size(); i > 1; --i) {
    std::swap(cases[i - 1], cases[rng.Below(i)]);
  }

  // Set-up: building every verifier (spec compile + process wiring).
  std::string setup_error;
  SetupTimer setup([&cases, &setup_error](Tracer& t) {
    for (const Case& c : cases) {
      Scope scope(t, "i2c.build_verifier");
      efeu::DiagnosticEngine diag;
      if (efeu::i2c::BuildVerifier(c.config, diag) == nullptr) {
        setup_error = std::string(c.name) + ": verifier failed to build: " + diag.RenderAll();
        return false;
      }
    }
    return true;
  });
  probe.Sample();
  if (!setup.RunFirst(tracer)) {
    result.Fail(setup_error);
    return result;
  }

  // Passes over the whole set (see PassLoop).
  std::vector<std::vector<Outcome>> passes, untraced_passes;
  PassLoop loop(options, tracer);
  while (loop.Next()) {
    Tracer& t = loop.tracer();
    std::vector<Outcome> pass;
    {
      Scope pass_scope(t, "bench.pass");
      for (const Case& c : cases) {
        Outcome outcome;
        efeu::DiagnosticEngine diag;
        probe.SampleIfDue(kProbeInterval);
        setup.RunIfDue(t);
        outcome.start = HostSeconds();
        {
          Scope scope(t, "check.run_verification");
          outcome.run = efeu::i2c::RunVerification(c.config, diag);
          outcome.host_s = HostSeconds() - outcome.start;
          // RunVerification builds its verifier first; the checker's own
          // timers give the exploration, the rest is the i2c build.
          scope.Attribute("i2c", outcome.host_s - outcome.run.total_seconds);
        }
        if (diag.HasErrors()) {
          outcome.error = diag.RenderAll();
        }
        pass.push_back(std::move(outcome));
      }
    }
    (loop.counted() ? passes : untraced_passes).push_back(std::move(pass));
  }
  result.untraced_s = loop.untraced_seconds();
  probe.Sample();

  const std::vector<Outcome>& first = passes.front();
  for (const auto* group : {&passes, &untraced_passes}) {
    for (const std::vector<Outcome>& pass : *group) {
      for (size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[i];
        const Outcome& o = pass[i];
        ++result.attempted;
        std::string wrong;
        if (!o.error.empty()) {
          wrong = "did not build: " + o.error;
        } else if (o.run.safety.budget_exhausted || o.run.liveness.budget_exhausted) {
          wrong = "search incomplete";
        } else if (o.run.ok != c.expect_ok) {
          wrong = std::string("verdict ") + (o.run.ok ? "PASS" : "FAIL") + ", known answer " +
                  (c.expect_ok ? "PASS" : "FAIL");
        } else if (Counts(o.run) != Counts(first[i].run)) {
          wrong = "state/transition counts " + Counts(o.run) + " differ from " +
                  Counts(first[i].run);
        }
        if (!wrong.empty()) {
          ++result.failed;
          result.Fail(std::string(c.name) + ": " + wrong);
        }
      }
    }
  }

  // End-to-end figures at reference host speed; the rest raw. Pass time
  // is the RunVerification calls only.
  auto pass_seconds = [](const std::vector<std::vector<Outcome>>& group) {
    std::vector<double> out;
    for (const std::vector<Outcome>& pass : group) {
      double seconds = 0;
      for (const Outcome& o : pass) {
        seconds += o.host_s;
      }
      out.push_back(seconds);
    }
    return out;
  };
  const std::vector<double> pass_s = pass_seconds(passes);
  std::vector<double> configs_per_s, setup_reference_s, setup_s;
  for (const std::vector<Outcome>& pass : passes) {
    double seconds = 0;
    for (const Outcome& o : pass) {
      seconds += probe.Normalize(o.start, o.start + o.host_s);
    }
    configs_per_s.push_back(static_cast<double>(cases.size()) / seconds);
  }
  for (const auto& [start, end] : setup.spans()) {
    setup_reference_s.push_back(probe.Normalize(start, end));
    setup_s.push_back(end - start);
  }
  result.Add("setup_s", Median(setup_reference_s), "s");
  result.Add("ops_per_host_s", Median(configs_per_s), "1/s");
  if (options.trace) {
    result.Add("trace.overhead_share",
               Median(pass_s) / Median(pass_seconds(untraced_passes)) - 1.0, "ratio");
  }
  result.Add("check.verify_s", Median(pass_s), "s");
  result.Add("i2c.build_verifier_s", Median(setup_s), "s");

  for (size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> safety_s, liveness_s;
    for (const std::vector<Outcome>& pass : passes) {
      safety_s.push_back(pass[i].run.safety.seconds);
      liveness_s.push_back(pass[i].run.liveness.seconds);
    }
    const efeu::check::CheckResult& safety = first[i].run.safety;
    const efeu::check::CheckResult& liveness = first[i].run.liveness;
    const std::string suffix = std::string(".") + cases[i].name;
    const double safety_states = static_cast<double>(safety.states_stored);
    result.Add("check.safety_s" + suffix, Median(safety_s), "s");
    result.Add("check.liveness_s" + suffix, Median(liveness_s), "s");
    result.Add("check.safety_states" + suffix, safety_states, "count");
    result.Add("check.liveness_states" + suffix, static_cast<double>(liveness.states_stored),
               "count");
    result.Add("check.liveness_transitions" + suffix, static_cast<double>(liveness.transitions),
               "count");
    result.Add("check.transitions_per_s" + suffix,
               static_cast<double>(safety.transitions + liveness.transitions) /
                   (Median(safety_s) + Median(liveness_s)),
               "1/s");
    result.Add("check.bytes_per_state" + suffix,
               safety_states > 0
                   ? static_cast<double>(safety.state_bytes + safety.component_bytes) /
                         safety_states
                   : 0,
               "B");
    result.Add("check.por_reduced_per_state" + suffix,
               safety_states > 0 ? static_cast<double>(safety.por_reduced_states) / safety_states
                                 : 0,
               "ratio");
  }
  return result;
}

}  // namespace perfbench
