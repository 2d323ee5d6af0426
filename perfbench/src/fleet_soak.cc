// fleet_soak: one single-threaded sim::Fleet::Run over MakeSoakStack(i, seed)
// stacks: all four stack classes in both wait modes, seeded faults,
// monitors and the full supervision ladder, at the Byte split with a 50 us
// write cycle. The ROADMAP's headline number (stacks/s) comes from here.
//
// Gates: no failed and no wedged stack, and one CounterSignature for every
// pass of a seed. The traced run also replays every stack through
// RunStackStandalone to split Fleet::Run into per-stack work and engine
// overhead.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "speed_probe.h"
#include "src/sim/fleet.h"

namespace perfbench {
namespace {

using efeu::sim::Fleet;
using efeu::sim::FleetReport;

// A multiple of 24 stacks puts the same number of stacks on every class x
// wait-mode pair and on every scripted topology schedule (chosen by stack
// seed mod 3) for any base seed, so seeds differ only in their random fault
// plans.
constexpr int kStacks = 96;
constexpr int kSmokeStacks = 8;
// A pass runs the stacks as consecutive single-threaded fleets of this many
// (stacks 0-7, 8-15, ...): every class in both wait modes. The host-speed
// probe runs between fleets, so each ~2 s fleet is normalized by probes
// taken right around it. Stacks are isolated, so the per-stack work is that
// of one big fleet.
constexpr int kStacksPerFleet = 8;

struct Pass {
  double host_s = 0;  // raw, summed over the pass's fleets
  std::vector<std::pair<double, double>> fleet_spans;
  std::vector<FleetReport> reports;
  std::string signature;
};

}  // namespace

Result RunFleetSoak(const RunOptions& options, Tracer& tracer, SpeedProbe& probe) {
  Result result;
  const int stacks = options.smoke ? kSmokeStacks : kStacks;

  // Set-up as one fleet stack pays it: compile the shared controller stack,
  // construct a supervised stack's driver.
  DriverSetup driver_setup(
      Fleet::BuildStackHybridConfig(efeu::sim::MakeSoakStack(0, options.seed), nullptr));
  SetupTimer setup([&driver_setup](Tracer& t) { return driver_setup(t); });
  probe.Sample();
  if (!setup.RunFirst(tracer)) {
    result.Fail(driver_setup.error());
    return result;
  }

  std::vector<Pass> passes, untraced_passes;
  PassLoop loop(options, tracer);
  while (loop.Next()) {
    Pass pass;
    for (int first = 0; first < stacks; first += kStacksPerFleet) {
      efeu::sim::FleetOptions fleet_options;
      fleet_options.num_threads = 1;
      Fleet fleet(fleet_options);
      for (int i = first; i < first + kStacksPerFleet; ++i) {
        fleet.AddStack(efeu::sim::MakeSoakStack(i, options.seed));
      }
      probe.Sample();
      setup.RunIfDue(loop.tracer());
      const double t0 = HostSeconds();
      {
        Scope scope(loop.tracer(), "fleet.run");
        pass.reports.push_back(fleet.Run());
      }
      const double t1 = HostSeconds();
      pass.host_s += t1 - t0;
      pass.fleet_spans.emplace_back(t0, t1);
      pass.signature += pass.reports.back().CounterSignature() + "\n";
    }
    (loop.counted() ? passes : untraced_passes).push_back(std::move(pass));
  }
  result.untraced_s = loop.untraced_seconds();
  probe.Sample();

  std::string signature = passes.front().signature;
  if (options.break_gate) {
    signature += " tampered";
  }
  for (const std::vector<Pass>* group : {&passes, &untraced_passes}) {
    for (const Pass& pass : *group) {
      for (const FleetReport& r : pass.reports) {
        result.attempted += static_cast<uint64_t>(r.num_stacks);
        const uint64_t bad = r.failures.size() + static_cast<uint64_t>(r.wedged);
        result.failed += bad;
        if (bad > 0) {
          result.Fail(std::to_string(r.failures.size()) + " failed and " +
                      std::to_string(r.wedged) + " wedged stacks:\n" +
                      (r.failures.empty() ? r.Format() : r.failures.front()));
        }
      }
      if (pass.signature != signature) {
        result.Fail("CounterSignature differs between passes of one seed:\n" + signature +
                    "---\n" + pass.signature);
      }
    }
  }

  // Deterministic totals of one pass (identical in every pass, gated above).
  const std::vector<FleetReport>& reports = passes.front().reports;
  uint64_t ops_completed = 0, events = 0, trips = 0, soft_resets = 0, retries = 0, faults = 0;
  double makespan_ns = 0, backoff_ns = 0;
  for (const FleetReport& r : reports) {
    ops_completed += r.ops_completed;
    events += r.events_processed;
    trips += r.monitor.total;
    soft_resets += r.recovery.soft_resets;
    retries += r.recovery.retries;
    faults += r.faults_injected;
    backoff_ns += r.recovery.backoff_ns;
    makespan_ns = std::max(makespan_ns, r.makespan_ns);
  }
  const double ops = static_cast<double>(ops_completed);

  // End-to-end throughput at reference host speed; the rest raw. The
  // spread between seeds is their fault plans: per-stack cost is
  // heavy-tailed (a fault that ends in a hardware-wait timeout costs
  // milliseconds of modeled time).
  std::vector<double> ops_per_s, stacks_per_s, run_s, untraced_run_s;
  for (const Pass& pass : passes) {
    double seconds = 0;
    for (const auto& [start, end] : pass.fleet_spans) {
      seconds += probe.Normalize(start, end);
    }
    ops_per_s.push_back(ops / seconds);
    stacks_per_s.push_back(stacks / pass.host_s);
    run_s.push_back(pass.host_s);
  }
  for (const Pass& pass : untraced_passes) {
    untraced_run_s.push_back(pass.host_s);
  }
  std::vector<double> setup_reference_s;
  for (const auto& [start, end] : setup.spans()) {
    setup_reference_s.push_back(probe.Normalize(start, end));
  }
  result.Add("setup_s", Median(setup_reference_s), "s");
  result.Add("ops_per_host_s", Median(ops_per_s), "1/s");
  if (options.trace) {
    result.Add("trace.overhead_share", Median(run_s) / Median(untraced_run_s) - 1.0, "ratio");
  }
  result.Add("fleet.stacks_per_s", Median(stacks_per_s), "1/s");
  result.Add("fleet.run_s", Median(run_s), "s");
  result.Add("fleet.events", static_cast<double>(events), "count");
  result.Add("fleet.makespan_ms", makespan_ns / 1e6, "sim_ms");
  result.Add("monitor.trips", static_cast<double>(trips), "count");
  result.Add("fleet.soft_resets", static_cast<double>(soft_resets), "count");
  result.Add("fleet.retries", static_cast<double>(retries), "count");
  result.Add("sim.faults_injected", static_cast<double>(faults), "count");
  result.Add("driver.retries_per_op", static_cast<double>(retries) / ops, "count");
  result.Add("ir.compile_s", Median(driver_setup.compile_s()), "s");
  result.Add("driver.construct_s", Median(driver_setup.construct_s()), "s");

  if (!options.trace) {
    return result;
  }
  // Per-stack work outside the engine: the same stacks, one at a time, on
  // the set-up's compilation (Fleet::Run compiles its own).
  std::map<std::string, std::vector<double>> class_ms;
  double standalone_s = 0;
  double stack_model_ns = 0;
  for (int i = 0; i < stacks; ++i) {
    const efeu::sim::StackConfig config = efeu::sim::MakeSoakStack(i, options.seed);
    efeu::sim::StackReport stack;
    const double t0 = HostSeconds();
    {
      Scope scope(tracer, "fleet.stack_standalone");
      stack = efeu::sim::RunStackStandalone(i, config, driver_setup.compilation());
    }
    const double host = HostSeconds() - t0;
    standalone_s += host;
    stack_model_ns += stack.finished_at_ns;
    class_ms[efeu::sim::StackClassName(config.stack_class)].push_back(host * 1e3);
    if (!stack.completed) {
      result.Fail("standalone replay of stack " + std::to_string(i) + " failed: " +
                  stack.failure);
    }
  }
  for (const char* name : {"eeprom", "muxed", "multimaster", "mfd"}) {
    result.Add(std::string("fleet.stack_host_ms_p50.") + name, Median(class_ms[name]), "ms");
  }
  // Each Fleet::Run's own compile is engine-side cost too, so only
  // per-stack work is subtracted.
  result.Add("fleet.engine_overhead_s", Median(run_s) - standalone_s, "s");
  const double cycles = stack_model_ns / 10.0;  // 100 MHz fabric clock
  result.Add("rtl.host_ns_per_cycle", standalone_s * 1e9 / cycles, "ns");
  result.Add("rtl.cycles_per_op", cycles / ops, "count");
  result.Add("driver.backoff_share", backoff_ns / stack_model_ns, "ratio");
  return result;
}

}  // namespace perfbench
