// perfbench: runs one benchmark workload against the efeu libraries and
// prints every figure it measured, one "metric <name> <value> <unit>" line
// each, then a last line of JSON with the correctness verdict and all
// metrics. perfbench/run.py builds this program and selects, from that
// line, the metrics BENCHMARK.json names for the run's mode.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>] [--smoke] [--break-gate]
//
// Exit status: 0 when every correctness gate held, 1 when one failed,
// 2 on a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "speed_probe.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<fleet_soak|eeprom_rw_hw|eeprom_rw_sw|verify_frontier> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] [--smoke] [--break-gate]\n",
               why);
  return 2;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  RunOptions options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
      have_seconds = options.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--break-gate") {
      options.break_gate = true;
    } else {
      return Usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (> 0) and --trace are required");
  }

  // One id for every span of this workload run.
  const uint64_t run_id = Rng(options.seed ^ std::hash<std::string>{}(options.workload)).Next();
  Tracer tracer(options.trace, run_id);
  SpeedProbe probe;
  const double run_start = HostSeconds();
  Result result;
  if (options.workload == "fleet_soak") {
    result = RunFleetSoak(options, tracer, probe);
  } else if (options.workload == "eeprom_rw_hw") {
    result = RunEepromRw(options, tracer, probe, /*hardware_split=*/true);
  } else if (options.workload == "eeprom_rw_sw") {
    result = RunEepromRw(options, tracer, probe, /*hardware_split=*/false);
  } else if (options.workload == "verify_frontier") {
    result = RunVerifyFrontier(options, tracer, probe);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  result.Add("peak_rss_mb", PeakRssMb(), "MB");
  result.Add("bench.host_speed", probe.MedianSpeed(), "ratio");

  if (options.trace) {
    // Self time per layer over the traced part of the run. The layers
    // partition the spanned time; trace.spanned_share says how much of the
    // traced wall time (all but the untraced passes) the spans cover.
    double spanned = 0;
    for (const auto& [layer, seconds] : tracer.LayerSelfSeconds()) {
      result.Add("self_s." + layer, seconds, "s");
      spanned += seconds;
    }
    result.Add("trace.spanned_s", spanned, "s");
    result.Add("trace.spanned_share",
               spanned / (HostSeconds() - run_start - result.untraced_s), "ratio");
    if (!options.trace_out.empty() && !tracer.WriteChromeTrace(options.trace_out)) {
      result.Fail("cannot write trace to " + options.trace_out);
    }
  }

  for (Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.Fail("metric " + m.name + " is not finite");
      m.value = 0;
    }
  }
  for (const std::string& failure : result.gate_failures) {
    std::printf("gate FAIL %s\n", failure.c_str());
  }
  std::string metrics;
  for (const Metric& m : result.metrics) {
    std::printf("metric %s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    metrics += (metrics.empty() ? "" : ",") + JsonString(m.name) + ":{\"value\":" + value +
               ",\"unit\":" + JsonString(m.unit) + "}";
  }
  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics.c_str());
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
