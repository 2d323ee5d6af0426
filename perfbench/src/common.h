// Shared pieces of the perfbench driver: run options, the result every
// workload returns, order statistics, the seeded input generator and the
// span recorder that times each layer from outside its public calls.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/driver/hybrid.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Tiny input sizes for the benchmark's own smoke check.
  bool smoke = false;
  // Corrupts one expected output so the correctness gate must fire.
  bool break_gate = false;
  // Chrome trace-event JSON destination of a traced run (empty: none).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What one workload run returns: every figure it produced (run.py picks
// the set BENCHMARK.json names for the run's mode) and the correctness
// gates that failed.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Wall seconds a traced run spent in its untraced passes (not spanned).
  double untraced_s = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> gate_failures;

  bool correct() const { return gate_failures.empty(); }
  void Fail(std::string why) { gate_failures.push_back(std::move(why)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// Host time in seconds since an arbitrary epoch.
double HostSeconds();

// Peak resident set of this process image in MiB (VmHWM).
double PeakRssMb();

double Median(std::vector<double> values);
// Nearest-rank percentile (0 < p <= 100) of unsorted values.
double Percentile(std::vector<double> values, double p);
// The highest whole percentile (>= 50) with at least ten of `n` samples
// beyond it; 0 when there is none (n < 20).
int TailPercentile(size_t n);

// SplitMix64: the workload input generator (inputs are a pure function of
// the --seed argument).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  // Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }

 private:
  uint64_t state_;
};

// Spans recorded around calls into the program's layers. Kept in memory and
// written once at exit; a disabled tracer records nothing, so untraced runs
// pay one branch per call site.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    // Host seconds of the span that the program's own counters place in
    // another layer (the driver's VM time, RunVerification's verifier
    // build): credited to that layer instead of the span's.
    std::vector<std::pair<std::string, double>> attributed;
  };

  Tracer(bool enabled, uint64_t run_id) : enabled_(enabled), run_id_(run_id) {}

  // Opens a span under the innermost open one; returns its id (-1 when
  // disabled).
  int Begin(const std::string& name);
  void End(int id, std::vector<std::pair<std::string, double>> attributed = {});

  // Self time per layer (the span name up to its first '.'), in seconds:
  // span time minus the time its child spans cover.
  std::vector<std::pair<std::string, double>> LayerSelfSeconds() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  uint64_t run_id_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; counter-derived shares of it are attributed before it closes.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name) : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~Scope() { tracer_.End(id_, std::move(attributed_)); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void Attribute(std::string layer, double seconds) {
    attributed_.emplace_back(std::move(layer), seconds);
  }

 private:
  Tracer& tracer_;
  int id_;
  std::vector<std::pair<std::string, double>> attributed_;
};

// Times a workload's set-up, everything before its first operation, over
// the whole run: kSetupFirstRepeats times before the first pass, then about
// kSetupSliceSeconds of repeats between measurements, at most every
// kSetupInterval. setup_s is the median, so it samples the same stretch of
// host time as the operations and one slow repeat cannot move it.
inline constexpr int kSetupFirstRepeats = 5;
inline constexpr double kSetupSliceSeconds = 0.005;
inline constexpr double kSetupInterval = 0.2;

class SetupTimer {
 public:
  // `setup` performs one set-up under the given tracer; false on error.
  explicit SetupTimer(std::function<bool(Tracer&)> setup) : setup_(std::move(setup)) {}

  // One repeat, spanned as bench.setup.
  bool Run(Tracer& tracer);
  bool RunFirst(Tracer& tracer);
  // A slice of repeats unless one ran in the last kSetupInterval.
  void RunIfDue(Tracer& tracer);
  // [start, end] of every repeat.
  const std::vector<std::pair<double, double>>& spans() const { return spans_; }

 private:
  std::function<bool(Tracer&)> setup_;
  std::vector<std::pair<double, double>> spans_;
};

// Schedules a run's passes over its fixed input: at least two, and until
// `seconds` are spent. A traced run spends the first half untraced, as the
// baseline for the tracing overhead, and traces the rest (at least one).
class PassLoop {
 public:
  PassLoop(const RunOptions& options, Tracer& tracer)
      : options_(options), tracer_(tracer), start_(HostSeconds()) {}

  // Starts the next pass; false once the run is done.
  bool Next();
  // The tracer for the current pass: the run's, or a disabled one.
  Tracer& tracer() { return traced_ ? tracer_ : untraced_; }
  // Whether the current pass gives the run's figures: every pass of an
  // untraced run, the traced passes of a traced run.
  bool counted() const { return traced_ || !options_.trace; }
  double untraced_seconds() const { return untraced_s_; }

 private:
  const RunOptions& options_;
  Tracer& tracer_;
  Tracer untraced_{false, 0};
  double start_;
  double pass_start_ = 0;
  int passes_ = 0;
  int counted_passes_ = 0;
  bool traced_ = false;
  double untraced_s_ = 0;
};

class SpeedProbe;

// The set-up of the driver workloads, one repeat per call: compile the
// controller stack, then construct one driver from `config` on it.
class DriverSetup {
 public:
  explicit DriverSetup(efeu::driver::HybridConfig config) : config_(std::move(config)) {}

  bool operator()(Tracer& tracer);
  // The first repeat's compilation, shared by the workload's drivers.
  std::shared_ptr<const efeu::ir::Compilation> compilation() const { return compilation_; }
  const std::vector<double>& compile_s() const { return compile_s_; }
  const std::vector<double>& construct_s() const { return construct_s_; }
  const std::string& error() const { return error_; }

 private:
  efeu::driver::HybridConfig config_;
  std::shared_ptr<const efeu::ir::Compilation> compilation_;
  std::vector<double> compile_s_, construct_s_;
  std::string error_;
};

// The workloads. End-to-end host times are normalized with `probe` (see
// speed_probe.h); per-layer host times are raw.
Result RunFleetSoak(const RunOptions& options, Tracer& tracer, SpeedProbe& probe);
Result RunEepromRw(const RunOptions& options, Tracer& tracer, SpeedProbe& probe,
                   bool hardware_split);
Result RunVerifyFrontier(const RunOptions& options, Tracer& tracer, SpeedProbe& probe);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
