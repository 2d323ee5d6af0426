#include "common.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>

#include "src/i2c/stack.h"

namespace perfbench {

double HostSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: ru_maxrss keeps the peak of the
  // image that exec'd this one (the Python launcher).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

int TailPercentile(size_t n) {
  for (int p = 99; p >= 50; --p) {
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (n >= rank + 10) {
      return p;
    }
  }
  return 0;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool DriverSetup::operator()(Tracer& tracer) {
  const double t0 = HostSeconds();
  std::shared_ptr<const efeu::ir::Compilation> compilation;
  {
    Scope scope(tracer, "ir.compile");
    efeu::DiagnosticEngine diag;
    compilation = efeu::i2c::CompileControllerStack(diag);
    if (compilation == nullptr) {
      error_ = "controller stack failed to compile: " + diag.RenderAll();
      return false;
    }
  }
  const double t1 = HostSeconds();
  efeu::driver::HybridConfig config = config_;
  config.shared_compilation = compilation;
  {
    Scope scope(tracer, "driver.construct");
    efeu::driver::HybridDriver hybrid(config);
  }
  compile_s_.push_back(t1 - t0);
  construct_s_.push_back(HostSeconds() - t1);
  if (compilation_ == nullptr) {
    compilation_ = std::move(compilation);
  }
  return true;
}

bool SetupTimer::Run(Tracer& tracer) {
  Scope scope(tracer, "bench.setup");
  const double start = HostSeconds();
  const bool ok = setup_(tracer);
  spans_.emplace_back(start, HostSeconds());
  return ok;
}

bool SetupTimer::RunFirst(Tracer& tracer) {
  for (int i = 0; i < kSetupFirstRepeats; ++i) {
    if (!Run(tracer)) {
      return false;
    }
  }
  return true;
}

void SetupTimer::RunIfDue(Tracer& tracer) {
  const double now = HostSeconds();
  if (!spans_.empty() && now - spans_.back().second < kSetupInterval) {
    return;
  }
  while (Run(tracer) && HostSeconds() - now < kSetupSliceSeconds) {
  }
}

bool PassLoop::Next() {
  const double now = HostSeconds();
  if (passes_ > 0 && !counted()) {
    untraced_s_ += now - pass_start_;
  }
  const bool more = passes_ < 2 || now - start_ < options_.seconds ||
                    (options_.trace && counted_passes_ == 0);
  if (!more) {
    return false;
  }
  traced_ = options_.trace && passes_ > 0 && now - start_ >= options_.seconds / 2;
  ++passes_;
  counted_passes_ += counted() ? 1 : 0;
  pass_start_ = now;
  return true;
}

int Tracer::Begin(const std::string& name) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start = HostSeconds();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int id, std::vector<std::pair<std::string, double>> attributed) {
  if (id < 0) {
    return;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = HostSeconds();
  span.attributed = std::move(attributed);
  // Spans close in LIFO order: every caller holds them in scopes.
  open_.pop_back();
}

std::vector<std::pair<std::string, double>> Tracer::LayerSelfSeconds() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::string layer = span.name.substr(0, span.name.find('.'));
    double own = span.end - span.start - child_time[i];
    for (const auto& [other, seconds] : span.attributed) {
      self[other] += seconds;
      own -= seconds;
    }
    self[layer] += own;
  }
  return {self.begin(), self.end()};
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const double origin = spans_.empty() ? 0 : spans_.front().start;
  std::fprintf(out, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::string attributed;
    for (const auto& [layer, seconds] : span.attributed) {
      attributed += ",\"" + layer + "_s\":" + std::to_string(seconds);
    }
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
                 "\"run_id\":\"%016llx\"%s}}\n",
                 i == 0 ? "" : ",", span.name.c_str(),
                 span.name.substr(0, span.name.find('.')).c_str(),
                 (span.start - origin) * 1e6, (span.end - span.start) * 1e6, i, span.parent,
                 static_cast<unsigned long long>(run_id_), attributed.c_str());
  }
  std::fprintf(out, "],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
