// The cycle-accurate RTL simulation substrate: handshake wires and the
// two-phase (evaluate/commit) component interface. Every hardware entity —
// generated layer FSMs, the MMIO register file, the bus adapter, I2C device
// models — implements RtlComponent; RtlSystem clocks them all at 100 MHz.

#ifndef SRC_RTL_COMPONENT_H_
#define SRC_RTL_COMPONENT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace efeu::rtl {

// One ready/valid handshake channel: the sender owns data+valid, the
// receiver owns ready. Components read peer-owned fields during Evaluate()
// (they then hold the values committed at the previous clock edge) and write
// their own flags during Commit(). A sender may place its payload during
// Evaluate() while its registered valid is still low: a receiver samples the
// payload only in a cycle that shows valid high.
struct HsWire {
  std::vector<int32_t> data;
  bool valid = false;
  bool ready = false;

  explicit HsWire(int words = 0) : data(static_cast<size_t>(words), 0) {}
};

// Two-phase clocking: only peer-visible outputs wait for Commit() — the
// HsWire fields a component owns and its I2cBus drive. Private state that
// no other component reads updates in place during Evaluate(). Commit()
// publishes only outputs that changed this cycle; an idle clock edge copies
// nothing.
class RtlComponent {
 public:
  virtual ~RtlComponent() = default;

  // Phase 1: compute this clock's outputs from the currently visible wire
  // values and bus levels; stage the peer-visible ones.
  virtual void Evaluate() = 0;
  // Phase 2: publish the staged outputs.
  virtual void Commit() = 0;
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_COMPONENT_H_
