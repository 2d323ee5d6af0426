// eeprom_rw_hw / eeprom_rw_sw: one HybridDriver serving a seeded closed-loop
// stream of 14-byte page writes and 14-byte reads against the 24AA512, at
// the two ends of the hardware/software split.
//
//   hw: EepDriver split, interrupt-driven. All four protocol layers are RTL;
//       the VM is idle. Writes leave the bus idle for the 5 ms write cycle,
//       reads keep it busy, so idle-skipping wins on one half of the stream.
//   sw: Electrical split, polling. Only the bus adapter is RTL; software
//       syncs the RTL every few cycles, so spans are short and per-sync cost
//       shows.
//
// Recovery is on, so the operation after a write polls the device through
// its write cycle by NACKed retries (datasheet ACK polling). Every read is
// checked against a shadow copy of the memory; every modeled figure must be
// identical across the passes of one run.

#include <cstdio>
#include <utility>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "speed_probe.h"
#include "src/driver/hybrid.h"
#include "src/sim/waveform.h"

namespace perfbench {
namespace {

using efeu::driver::HybridConfig;
using efeu::driver::HybridDriver;

constexpr int kLen = 14;
// 32 pages of 128 bytes: writes stay inside one page (a page write wraps at
// the page boundary); reads may span pages.
constexpr int kPageBytes = 128;
constexpr int kPages = 32;
// 100 operations give the p90 tail ten samples beyond it.
constexpr int kOpsPerPass = 100;
constexpr int kSmokeOpsPerPass = 12;

// Figure 10 of the paper, as recorded in bench/bench_fig10_speed_cpu.cc.
struct PaperPoint {
  double khz;
  double cpu;
};
constexpr PaperPoint kPaperEepDriverInterrupt = {396.01, 0.04};
constexpr PaperPoint kPaperElectricalPolling = {154.44, 1.00};

struct Op {
  bool write = false;
  int offset = 0;
  std::vector<uint8_t> data;  // write payload
};

// One write per three reads, in seeded order, at seeded offsets, with seeded
// data. The write count is fixed and the stream ends with a read, so every
// write's 5 ms write cycle is polled through exactly once and each seed
// costs the same modeled work; the seed moves where it falls.
std::vector<Op> MakeStream(uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<Op> ops(static_cast<size_t>(count));
  for (int i = 0; i < count / 4; ++i) {
    ops[static_cast<size_t>(i)].write = true;
  }
  // Fisher-Yates over all but the last slot, which stays a read.
  for (size_t i = ops.size() - 1; i > 1; --i) {
    std::swap(ops[i - 1], ops[rng.Below(i)]);
  }
  for (Op& op : ops) {
    if (op.write) {
      op.offset = static_cast<int>(rng.Below(kPages) * kPageBytes +
                                   rng.Below(kPageBytes - kLen + 1));
      for (int i = 0; i < kLen; ++i) {
        op.data.push_back(static_cast<uint8_t>(rng.Below(256)));
      }
    } else {
      op.offset = static_cast<int>(rng.Below(kPages * kPageBytes - kLen + 1));
    }
  }
  return ops;
}

// Everything one pass over the stream measured. Host figures are from
// steady_clock around each driver call; modeled ones from the driver's
// virtual timeline and counters.
struct Pass {
  double host_s = 0;  // sum of driver-call host time
  // Driver-call intervals, for normalization once the pass has ended.
  std::vector<std::pair<double, double>> op_spans;
  double vm_s = 0;
  std::vector<double> read_host_ms;
  std::vector<double> write_host_ms;
  std::vector<double> op_model_us;
  double model_ns = 0;
  // First-attempt reads, the paper's continuous-read steady state: the sum
  // and count of instantaneous SCL frequencies (kept as a sum so a pass
  // holds no per-edge data and peak RSS does not grow with the pass count).
  double steady_khz_sum = 0;
  uint64_t steady_khz_count = 0;
  double steady_read_busy_ns = 0;
  double steady_read_model_ns = 0;
  double busy_ns = 0;
  uint64_t scl_edges = 0;
  uint64_t irqs = 0;
  uint64_t retries = 0;
  double backoff_ns = 0;
  uint64_t instructions = 0;
  int failed_ops = 0;
  std::string first_failure;
  // Digest of every modeled figure, compared across passes.
  std::string signature;
};

Pass RunPass(const HybridConfig& config, const std::vector<Op>& ops, bool break_gate,
             Tracer& tracer, SpeedProbe& probe, SetupTimer& setup) {
  Pass pass;
  std::unique_ptr<HybridDriver> hybrid;
  {
    Scope scope(tracer, "driver.construct");
    hybrid = std::make_unique<HybridDriver>(config);
  }
  // The driver's VM timer calibrates on first use; keep that out of the ops.
  (void)hybrid->vm_host_seconds();
  std::vector<uint8_t> shadow(static_cast<size_t>(kPages * kPageBytes + kLen), 0);
  if (break_gate) {
    // The last operation is always a read.
    shadow[static_cast<size_t>(ops.back().offset)] ^= 0x5A;
  }
  std::vector<uint8_t> data;
  char buf[96];
  for (size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const double model0 = hybrid->now_ns();
    const double busy0 = hybrid->cpu_busy_ns();
    const double vm0 = hybrid->vm_host_seconds();
    const uint64_t irq0 = hybrid->irq_count();
    const uint64_t instr0 = hybrid->instructions_retired();
    const efeu::driver::RecoveryCounters rc0 = hybrid->recovery_counters();
    hybrid->bus().ClearSamples();
    probe.SampleIfDue(kProbeInterval);
    setup.RunIfDue(tracer);
    bool ok = false;
    const double t0 = HostSeconds();
    {
      Scope scope(tracer, op.write ? "driver.write" : "driver.read");
      ok = op.write ? hybrid->Write(op.offset, op.data) : hybrid->Read(op.offset, kLen, &data);
      scope.Attribute("vm", hybrid->vm_host_seconds() - vm0);
    }
    const double t1 = HostSeconds();
    const double host = t1 - t0;
    pass.op_spans.emplace_back(t0, t1);
    const double model = hybrid->now_ns() - model0;
    const double busy = hybrid->cpu_busy_ns() - busy0;
    const uint64_t retries = hybrid->recovery_counters().retries - rc0.retries;
    const std::vector<efeu::sim::I2cBus::Sample>& samples = hybrid->bus().samples();
    const std::vector<double> rising = efeu::sim::SclRisingEdges(samples);
    pass.scl_edges += rising.size() + efeu::sim::SclFallingEdges(samples).size();

    pass.host_s += host;
    pass.vm_s += hybrid->vm_host_seconds() - vm0;
    pass.model_ns += model;
    pass.busy_ns += busy;
    pass.op_model_us.push_back(model / 1e3);
    pass.irqs += hybrid->irq_count() - irq0;
    pass.retries += retries;
    pass.backoff_ns += hybrid->recovery_counters().backoff_ns - rc0.backoff_ns;
    pass.instructions += hybrid->instructions_retired() - instr0;

    bool correct = ok;
    if (ok && op.write) {
      std::copy(op.data.begin(), op.data.end(), shadow.begin() + op.offset);
      pass.write_host_ms.push_back(host * 1e3);
    } else if (ok) {
      correct = std::equal(data.begin(), data.end(), shadow.begin() + op.offset) &&
                data.size() == static_cast<size_t>(kLen);
      pass.read_host_ms.push_back(host * 1e3);
      if (retries == 0) {
        for (size_t e = 1; e < rising.size(); ++e) {
          pass.steady_khz_sum += 1e6 / (rising[e] - rising[e - 1]);
          ++pass.steady_khz_count;
        }
        pass.steady_read_busy_ns += busy;
        pass.steady_read_model_ns += model;
      }
    }
    if (!correct) {
      ++pass.failed_ops;
      if (pass.first_failure.empty()) {
        std::snprintf(buf, sizeof(buf), "op %zu (%s @%d) %s", i, op.write ? "write" : "read",
                      op.offset, ok ? "read back wrong data" : "failed");
        pass.first_failure = buf;
      }
    }
    std::snprintf(buf, sizeof(buf), "%.1f/%llu/%llu/%zu;", model,
                  static_cast<unsigned long long>(hybrid->irq_count() - irq0),
                  static_cast<unsigned long long>(retries), rising.size());
    pass.signature += buf;
  }
  hybrid->bus().ClearSamples();
  return pass;
}

}  // namespace

Result RunEepromRw(const RunOptions& options, Tracer& tracer, SpeedProbe& probe,
                   bool hardware_split) {
  Result result;
  const PaperPoint paper = hardware_split ? kPaperEepDriverInterrupt : kPaperElectricalPolling;
  HybridConfig config;
  config.split = hardware_split ? efeu::driver::SplitPoint::kEepDriver
                                : efeu::driver::SplitPoint::kElectrical;
  config.interrupt_driven = hardware_split;
  config.capture_waveform = true;
  config.recovery.enabled = true;

  // Set-up: compile the controller stack and construct the driver.
  DriverSetup driver_setup(config);
  SetupTimer setup([&driver_setup](Tracer& t) { return driver_setup(t); });
  probe.Sample();
  if (!setup.RunFirst(tracer)) {
    result.Fail(driver_setup.error());
    return result;
  }
  config.shared_compilation = driver_setup.compilation();

  const std::vector<Op> ops =
      MakeStream(options.seed, options.smoke ? kSmokeOpsPerPass : kOpsPerPass);
  // Closed loop over the stream, pass after pass (see PassLoop).
  std::vector<Pass> passes, untraced_passes;
  PassLoop loop(options, tracer);
  while (loop.Next()) {
    Pass pass;
    {
      Scope scope(loop.tracer(), "bench.pass");
      pass = RunPass(config, ops, options.break_gate, loop.tracer(), probe, setup);
    }
    (loop.counted() ? passes : untraced_passes).push_back(std::move(pass));
  }
  result.untraced_s = loop.untraced_seconds();
  probe.Sample();

  const std::string& signature = passes.front().signature;
  for (const std::vector<Pass>* group : {&passes, &untraced_passes}) {
    for (const Pass& pass : *group) {
      result.attempted += ops.size();
      result.failed += static_cast<uint64_t>(pass.failed_ops);
      if (pass.failed_ops > 0) {
        result.Fail(std::to_string(pass.failed_ops) + " operations failed or read wrong data, " +
                    "first: " + pass.first_failure);
      }
      if (pass.signature != signature) {
        result.Fail("modeled timeline differs between passes of one seed");
      }
    }
  }

  // End-to-end figures at reference host speed; the rest raw.
  auto normalized = [&probe](const std::vector<std::pair<double, double>>& spans) {
    std::vector<double> out;
    for (const auto& [start, end] : spans) {
      out.push_back(probe.Normalize(start, end));
    }
    return out;
  };
  auto ops_per_s_at_reference = [&](const Pass& pass) {
    double seconds = 0;
    for (double s : normalized(pass.op_spans)) {
      seconds += s;
    }
    return static_cast<double>(pass.op_spans.size()) / seconds;
  };
  std::vector<double> ops_per_s, read_ms, write_ms;
  for (const Pass& pass : passes) {
    ops_per_s.push_back(ops_per_s_at_reference(pass));
    read_ms.insert(read_ms.end(), pass.read_host_ms.begin(), pass.read_host_ms.end());
    write_ms.insert(write_ms.end(), pass.write_host_ms.begin(), pass.write_host_ms.end());
  }
  result.Add("setup_s", Median(normalized(setup.spans())), "s");
  result.Add("ops_per_host_s", Median(ops_per_s), "1/s");
  if (options.trace) {
    std::vector<double> untraced_ops_per_s;
    for (const Pass& pass : untraced_passes) {
      untraced_ops_per_s.push_back(ops_per_s_at_reference(pass));
    }
    result.Add("trace.overhead_share",
               Median(untraced_ops_per_s) / Median(ops_per_s) - 1.0, "ratio");
  }

  // Modeled figures are identical in every pass (gated above).
  const Pass& p = passes.front();
  const double n = static_cast<double>(ops.size());
  const double cycles = p.model_ns / config.timing.clock_ns;
  // The paper's oscilloscope method: mean instantaneous frequency over the
  // rising-edge gaps of each steady-state read.
  const double steady_khz =
      p.steady_khz_count > 0 ? p.steady_khz_sum / static_cast<double>(p.steady_khz_count) : 0;
  const double steady_cpu =
      p.steady_read_model_ns > 0 ? p.steady_read_busy_ns / p.steady_read_model_ns : 0;
  // 90 for a full pass; a smoke pass is too short for an honest tail.
  const int tail = options.smoke ? 90 : TailPercentile(ops.size());
  result.Add("driver.op_model_us_p50", Percentile(p.op_model_us, 50), "sim_us");
  result.Add("driver.op_model_us_p90", Percentile(p.op_model_us, tail), "sim_us");
  result.Add("sim.scl_khz", steady_khz, "kHz");
  result.Add("sim.scl_khz_err", steady_khz / paper.khz - 1.0, "ratio");
  result.Add("driver.cpu_util", steady_cpu, "ratio");
  result.Add("driver.cpu_util_err", steady_cpu / paper.cpu - 1.0, "ratio");
  result.Add("driver.cpu_util_stream", p.busy_ns / p.model_ns, "ratio");

  result.Add("ir.compile_s", Median(driver_setup.compile_s()), "s");
  result.Add("driver.construct_s", Median(driver_setup.construct_s()), "s");
  result.Add("driver.read_host_ms_p50", Median(read_ms), "ms");
  result.Add("driver.write_host_ms_p50", Median(write_ms), "ms");
  result.Add("driver.retries_per_op", static_cast<double>(p.retries) / n, "count");
  result.Add("driver.backoff_share", p.backoff_ns / p.model_ns, "ratio");
  result.Add("driver.irqs_per_op", static_cast<double>(p.irqs) / n, "count");
  double host_s = 0, vm_s = 0;
  for (const Pass& pass : passes) {
    host_s += pass.host_s;
    vm_s += pass.vm_s;
  }
  const double per_pass = 1.0 / static_cast<double>(passes.size());
  result.Add("rtl.host_ns_per_cycle", (host_s - vm_s) * per_pass * 1e9 / cycles, "ns");
  result.Add("rtl.cycles_per_op", cycles / n, "count");
  result.Add("rtl.cycles_per_scl_edge", cycles / static_cast<double>(p.scl_edges), "count");
  result.Add("vm.host_s", vm_s * per_pass, "s");
  result.Add("vm.host_share", vm_s / host_s, "ratio");
  result.Add("vm.instr_per_op", static_cast<double>(p.instructions) / n, "count");
  return result;
}

}  // namespace perfbench
