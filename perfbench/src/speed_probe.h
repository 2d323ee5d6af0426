// Host-speed control for the end-to-end host-time figures.
//
// On the shared 4-vCPU Xeon virtual machine where the baseline was taken,
// each vCPU flips every few seconds between a fast state and one ~1.45x
// slower (other tenants share the physical cores; the guest sees no steal
// time), and the level of both drifts over minutes. Raw host times of one
// seed spread by +-15 % between runs. Two measures narrow that:
//
//  - Between measurements SpeedProbe times a fixed piece of reference work
//    on every vCPU the process may use and moves the process to the
//    fastest one.
//  - A measured host interval is scaled by kReferenceProbeSeconds over the
//    probe time around it: "host seconds at the reference speed".
//
// The reference work is shaped like the program's hot paths: per-module
// frame copies through virtual calls with a per-tick std::function hook, as
// in the RTL co-simulation, and hash-table inserts and lookups of state
// vectors, as in the checker. It allocates nothing, so it does not depend on
// the state the program left the heap in. It is benchmark code, not program
// code, so a change to the program cannot move it. Changing the work or the
// constant re-bases every normalized figure.

#ifndef PERFBENCH_SRC_SPEED_PROBE_H_
#define PERFBENCH_SRC_SPEED_PROBE_H_

#include <sched.h>

#include <memory>
#include <vector>

namespace perfbench {

struct Reference;  // the reference work (speed_probe.cc)

// Probe time of the fastest vCPU on the reference host (RelWithDebInfo).
inline constexpr double kReferenceProbeSeconds = 0.00034;
// Probes between fine-grained measurements at most this often; a probe
// costs ~0.7 ms per vCPU.
inline constexpr double kProbeInterval = 0.2;

class SpeedProbe {
 public:
  SpeedProbe();
  // Restores the CPU affinity the process started with.
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Probes every allowed vCPU and moves the process to the fastest.
  void Sample();
  // Samples unless one was taken in the last `interval` seconds.
  void SampleIfDue(double interval);
  // Host seconds of [start, end] at reference speed, scaled by the probes
  // taken nearest before `start` and after `end` (Sample after the last
  // measured interval before resolving).
  double Normalize(double start, double end) const;
  // Median of reference over probe time: > 1 when the host ran faster than
  // the reference.
  double MedianSpeed() const;

 private:
  struct Point {
    double at = 0;       // host time the sample finished
    double seconds = 0;  // probe time on the chosen vCPU
  };
  std::unique_ptr<Reference> reference_;  // the work, allocated once
  cpu_set_t allowed_;
  bool have_allowed_ = false;
  std::vector<Point> points_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPEED_PROBE_H_
