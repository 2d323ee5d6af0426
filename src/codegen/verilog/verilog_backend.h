// The Verilog backend (paper section 3.4): each layer's IR becomes one
// Verilog module that prints the layer's cycle-level FSM table
// (src/ir/fsm.h) as a `case (state)` with one arm per table entry;
// instructions become blocking assignments (the EDA tool extracts
// parallelism) and talk/read become ready/valid handshakes.

#ifndef SRC_CODEGEN_VERILOG_VERILOG_BACKEND_H_
#define SRC_CODEGEN_VERILOG_VERILOG_BACKEND_H_

#include <map>
#include <string>

#include "src/ir/compile.h"
#include "src/ir/ir.h"

namespace efeu::codegen {

struct VerilogOutput {
  // One Verilog module per layer, keyed by layer name.
  std::map<std::string, std::string> modules;

  std::string Combined() const;
};

// Generates one module.
std::string GenerateVerilogModule(const ir::Module& module);

// Generates the per-stack supervision watchdog: a cycle counter that pulses
// the layers' shared soft_rst when the programmed limit elapses without a
// kick, with a sticky fired flag for software.
std::string GenerateVerilogWatchdog();

// Generates the runtime assertion monitor (the hardware half of the
// ESM-derived monitors): a passive bus watcher that observes SCL/SDA and the
// MMIO doorbell/up-full handshake flags and latches a sticky assert_trip
// (with the trip kind) when a line sticks low or a handshake stalls past its
// programmed limit. assert_trip feeds STATUS bit 3 and the IRQ line of the
// generated MMIO bridge.
std::string GenerateVerilogBusWatcher();

// Generates every module of the compilation.
VerilogOutput GenerateVerilog(const ir::Compilation& compilation);

}  // namespace efeu::codegen

#endif  // SRC_CODEGEN_VERILOG_VERILOG_BACKEND_H_
