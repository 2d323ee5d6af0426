// Cycle-accurate execution of one generated layer FSM: an interpreter of the
// layer's ir::FsmTable (src/ir/fsm.h), the same table the Verilog backend
// prints. One table state per clock; its body of straight-line instructions
// runs as blocking assignments, and ready/valid handshakes take the same
// edges as in the emitted Verilog.

#ifndef SRC_RTL_RTL_MODULE_H_
#define SRC_RTL_RTL_MODULE_H_

#include <span>
#include <string>
#include <vector>

#include "src/ir/ir.h"
#include "src/ir/fsm.h"
#include "src/rtl/component.h"

namespace efeu::rtl {

class RtlModule : public RtlComponent {
 public:
  RtlModule(const ir::Module* module, std::string instance_name);

  // Binds IR port `port` to a wire. Send ports drive data/valid and sample
  // ready; receive ports sample data/valid and drive ready. Every port must
  // be bound before the first clock.
  void BindPort(int port, HsWire* wire);

  void Evaluate() override;
  void Commit() override;

  const std::string& name() const { return name_; }
  const ir::Module& module() const { return *module_; }
  // True once the FSM evaluated its halt state (it then holds forever).
  bool halted() const { return halted_; }
  // Cumulative clock cycles in which the FSM did useful (non-waiting) work.
  uint64_t busy_cycles() const { return busy_cycles_; }
  // Frame contents after the last clock edge (differential comparison
  // against the VM/checker frames; layouts are identical because both
  // execute the same ir::Module).
  std::span<const int32_t> frame() const { return frame_; }

  // Back to the initial state, publishing the deasserted handshake flags
  // and a zero send payload on the bound wires immediately.
  void Reset();

 private:
  struct PortState {
    HsWire* wire = nullptr;
    bool is_send = false;
    // The registered handshake output the peer currently sees: valid for a
    // send port, ready for a receive port.
    bool out = false;
  };

  const ir::Module* module_;
  std::string name_;
  ir::FsmTable table_;
  std::vector<PortState> ports_;
  std::vector<int32_t> frame_;
  // The Verilog `state` register: an index into table_.states.
  int state_ = 0;
  // The port whose handshake flag toggles at this clock edge's Commit(), or
  // -1. A state drives at most one handshake per cycle.
  int toggle_port_ = -1;
  bool halted_ = false;
  uint64_t busy_cycles_ = 0;
};

}  // namespace efeu::rtl

#endif  // SRC_RTL_RTL_MODULE_H_
