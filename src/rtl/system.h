// The RTL clock domain: owns the handshake wires and ticks every component
// with two-phase (evaluate, then commit) semantics at a fixed clock.

#ifndef SRC_RTL_SYSTEM_H_
#define SRC_RTL_SYSTEM_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <vector>

#include "src/rtl/component.h"

namespace efeu::rtl {

class RtlSystem {
 public:
  explicit RtlSystem(double clock_ns = 10.0) : clock_ns_(clock_ns) {}

  // Wires live as long as the system (deque keeps pointers stable).
  HsWire* CreateWire(int words) {
    wires_.emplace_back(words);
    return &wires_.back();
  }

  // Non-owning; the caller keeps components alive.
  void AddComponent(RtlComponent* component) { components_.push_back(component); }

  // Invoked after every clock edge (waveform capture etc.).
  void SetPostTickHook(std::function<void(double now_ns)> hook) { hook_ = std::move(hook); }

  void Tick() {
    for (RtlComponent* component : components_) {
      component->Evaluate();
    }
    for (RtlComponent* component : components_) {
      component->Commit();
    }
    ++cycles_;
    if (hook_) {
      hook_(time_ns());
    }
  }

  void TickUntil(double target_ns) {
    while (time_ns() < target_ns) {
      Tick();
    }
  }

  // Synchronous soft reset of the interconnect: deasserts valid/ready and
  // zeroes the payload on every wire. Run with the component resets, so the
  // first post-reset edge shows no pre-reset handshake or payload.
  void ResetWires() {
    for (HsWire& wire : wires_) {
      wire.valid = false;
      wire.ready = false;
      std::fill(wire.data.begin(), wire.data.end(), 0);
    }
  }

  // Every wire, in creation order (tracing and differential tests).
  const std::deque<HsWire>& wires() const { return wires_; }

  uint64_t cycles() const { return cycles_; }
  double time_ns() const { return static_cast<double>(cycles_) * clock_ns_; }
  double clock_ns() const { return clock_ns_; }

 private:
  double clock_ns_;
  uint64_t cycles_ = 0;
  std::deque<HsWire> wires_;
  std::vector<RtlComponent*> components_;
  std::function<void(double)> hook_;
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_SYSTEM_H_
