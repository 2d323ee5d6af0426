#include "src/rtl/rtl_module.h"

#include <algorithm>
#include <cassert>

#include "src/ir/opcode_info.h"
#include "src/support/check.h"

namespace efeu::rtl {

RtlModule::RtlModule(const ir::Module* module, std::string instance_name)
    : module_(module), name_(std::move(instance_name)), table_(ir::BuildFsmTable(*module)) {
  ports_.resize(module->ports.size());
  for (size_t p = 0; p < ports_.size(); ++p) {
    ports_[p].is_send = module->ports[p].is_send;
  }
  Reset();
}

void RtlModule::BindPort(int port, HsWire* wire) {
  EFEU_CHECK(port >= 0 && port < static_cast<int>(ports_.size()),
             "BindPort: port id out of range (channel not used by this layer?)");
  ports_[port].wire = wire;
}

void RtlModule::Reset() {
  frame_.assign(module_->frame_size, 0);
  state_ = 0;
  toggle_port_ = -1;
  halted_ = false;
  busy_cycles_ = 0;
  for (PortState& port : ports_) {
    port.out = false;
    if (port.wire == nullptr) {
      continue;
    }
    if (port.is_send) {
      port.wire->valid = false;
      std::fill(port.wire->data.begin(), port.wire->data.end(), 0);
    } else {
      port.wire->ready = false;
    }
  }
}

// Private state (frame, state register) updates in place; only the
// handshake flag waits for Commit(). A send's payload goes onto its wire on
// the entry edge, while the registered valid is still low, so no peer can
// sample it early.
void RtlModule::Evaluate() {
  const ir::FsmState& state = table_.states[state_];
  const ir::Block& block = module_->blocks[state.block];

  // The state's plain instructions (blocking assignments). A handshake
  // state runs them once, on its entry cycle, like the emitted Verilog.
  auto run_body = [&]() {
    for (int i = state.first; i < state.last; ++i) {
      const ir::Inst& inst = block.insts[i];
      switch (inst.op) {
        case ir::Opcode::kConst:
          frame_[inst.dst] = inst.type.Truncate(inst.imm);
          break;
        case ir::Opcode::kCopy:
          frame_[inst.dst] = inst.type.Truncate(frame_[inst.a]);
          break;
        case ir::Opcode::kUnOp:
          frame_[inst.dst] = ir::EvalUnOp(inst.unop, frame_[inst.a]);
          break;
        case ir::Opcode::kBinOp:
          frame_[inst.dst] = ir::EvalBinOpTotal(inst.binop, frame_[inst.a], frame_[inst.b]);
          break;
        case ir::Opcode::kLoadIdx: {
          int32_t index = frame_[inst.b];
          frame_[inst.dst] =
              (index >= 0 && index < inst.imm) ? inst.type.Truncate(frame_[inst.a + index]) : 0;
          break;
        }
        case ir::Opcode::kStoreIdx: {
          int32_t index = frame_[inst.b];
          if (index >= 0 && index < inst.imm) {
            frame_[inst.dst + index] = inst.type.Truncate(frame_[inst.a]);
          }
          break;
        }
        case ir::Opcode::kAssert:
          // Checked by the model checker; not synthesizable behaviour.
          break;
        default:
          assert(false && "unexpected instruction in a state body");
          break;
      }
    }
  };

  switch (state.kind) {
    case ir::FsmKind::kGoto:
      run_body();
      state_ = state.next;
      ++busy_cycles_;
      break;
    case ir::FsmKind::kBranch:
      run_body();
      state_ = frame_[block.insts[state.ender].a] != 0 ? state.next : state.next_else;
      ++busy_cycles_;
      break;
    case ir::FsmKind::kSend: {
      PortState& port = ports_[state.port];
      assert(port.wire != nullptr);
      if (port.out && port.wire->ready) {
        // Transfer edge: both registered flags were visible this cycle.
        toggle_port_ = state.port;
        state_ = state.next;
        ++busy_cycles_;
      } else if (!port.out) {
        // Entry cycle: run the body once, stage the data, raise valid.
        run_body();
        const ir::Inst& inst = block.insts[state.ender];
        std::copy_n(frame_.begin() + inst.a, inst.count, port.wire->data.begin());
        toggle_port_ = state.port;
      }
      break;
    }
    case ir::FsmKind::kRecv: {
      PortState& port = ports_[state.port];
      assert(port.wire != nullptr);
      if (port.out && port.wire->valid) {
        const ir::Inst& inst = block.insts[state.ender];
        std::copy_n(port.wire->data.begin(), inst.count, frame_.begin() + inst.dst);
        state_ = state.next;
        ++busy_cycles_;
      } else if (!port.out) {
        // Entry cycle: body once, then raise ready and wait.
        run_body();
        toggle_port_ = state.port;
      }
      break;
    }
    case ir::FsmKind::kRecvDeassert:
      toggle_port_ = state.port;
      state_ = state.next;
      ++busy_cycles_;
      break;
    case ir::FsmKind::kHalt:
      halted_ = true;
      break;
  }
}

void RtlModule::Commit() {
  if (toggle_port_ < 0) {
    return;
  }
  PortState& port = ports_[toggle_port_];
  port.out = !port.out;
  (port.is_send ? port.wire->valid : port.wire->ready) = port.out;
  toggle_port_ = -1;
}

}  // namespace efeu::rtl
