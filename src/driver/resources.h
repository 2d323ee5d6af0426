// FPGA resource estimation (paper section 5.4): Look-Up Table and Flip-Flop
// counts per generated module, derived from the same IR the Verilog backend
// prints — register bits from the frame slots, port registers and the state
// register, logic from the instruction mix and the decode of the FSM table
// (src/ir/fsm.h) the backend prints. The coefficients are calibrated
// against the paper's Vivado reports (Figures 12 and 13); EXPERIMENTS.md
// records the calibration.

#ifndef SRC_DRIVER_RESOURCES_H_
#define SRC_DRIVER_RESOURCES_H_

#include <map>
#include <string>
#include <vector>

#include "src/driver/recovery.h"
#include "src/ir/ir.h"

namespace efeu::driver {

struct ResourceEstimate {
  int luts = 0;
  int ffs = 0;

  ResourceEstimate& operator+=(const ResourceEstimate& other) {
    luts += other.luts;
    ffs += other.ffs;
    return *this;
  }
};

ResourceEstimate EstimateModule(const ir::Module& module);

// The generated MMIO-AXI Lite register file for a boundary with the given
// message sizes (in 32-bit words).
ResourceEstimate EstimateAxiLiteDriver(int down_words, int up_words);

// The hand-written bus adapter (106 lines of VHDL in the paper).
ResourceEstimate EstimateBusAdapter();

// The Xilinx AXI IIC IP baseline (0.33% LUTs / 0.16% FFs of the XCZU devices
// per the paper).
ResourceEstimate EstimateXilinxIp();

// The hardware-side recovery watchdog a robust split needs: a deadline
// counter on the up-message path plus the 9-pulse bus-recovery sequencer
// (roughly the i2c_recover_bus portion of a Linux adapter, in logic).
ResourceEstimate EstimateRecoveryWatchdog(int up_words);

// One-line human-readable rendering of the recovery counters for benchmark
// tables and demos.
std::string FormatRecoveryCounters(const RecoveryCounters& counters);

// Total programmable-logic resources of the evaluation MPSoC (ZU9EG class).
inline constexpr int kFpgaTotalLuts = 117120;
inline constexpr int kFpgaTotalFfs = 234240;

}  // namespace efeu::driver

#endif  // SRC_DRIVER_RESOURCES_H_
