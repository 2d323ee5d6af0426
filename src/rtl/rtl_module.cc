#include "src/rtl/rtl_module.h"

#include <algorithm>
#include <cassert>

#include "src/ir/opcode_info.h"
#include "src/support/check.h"

namespace efeu::rtl {

RtlModule::RtlModule(const ir::Module* module, std::string instance_name)
    : module_(module), name_(std::move(instance_name)), segmentation_(ir::SegmentModule(*module)) {
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
  segment_ = 0;
  in_recv_deassert_ = false;
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

// Private state (frame, segment) updates in place; only the handshake flag
// waits for Commit(). A send's payload goes onto its wire on the entry edge,
// while the registered valid is still low, so no peer can sample it early.
void RtlModule::Evaluate() {
  if (halted_) {
    return;
  }

  const ir::Segment& segment = segmentation_.segments[segment_];
  const ir::Block& block = module_->blocks[segment.block];

  if (in_recv_deassert_) {
    // De-assert-ready state after a receive.
    toggle_port_ = block.insts[segment.ender].port;
    in_recv_deassert_ = false;
    ++segment_;  // Blocking insts never end a block.
    ++busy_cycles_;
    return;
  }

  // The segment's plain instructions (blocking assignments). For a segment
  // ended by a handshake the body must run exactly once — on the entry
  // cycle, when the registered valid/ready is still low — and not again on
  // the wait or completion cycles; re-running it every cycle repeats its
  // side effects (found by differential fuzzing: `v = v + 14;` before a
  // talk incremented once per wait cycle). Mirrors the generated Verilog.
  auto run_body = [&]() {
    for (int i = segment.first; i < segment.last; ++i) {
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
        case ir::Opcode::kNondet:
          // Checked by the model checker; not synthesizable behaviour.
          break;
        default:
          assert(false && "unexpected instruction in segment body");
          break;
      }
    }
  };

  if (segment.ender < 0) {
    run_body();
    ++segment_;
    ++busy_cycles_;
    return;
  }

  const ir::Inst& inst = block.insts[segment.ender];
  switch (inst.op) {
    case ir::Opcode::kSend: {
      PortState& port = ports_[inst.port];
      assert(port.wire != nullptr);
      if (port.out && port.wire->ready) {
        // Transfer edge: both registered flags were visible this cycle.
        toggle_port_ = inst.port;
        ++segment_;
        ++busy_cycles_;
      } else if (!port.out) {
        // Entry cycle: run the body once, stage the data, raise valid.
        run_body();
        std::copy_n(frame_.begin() + inst.a, inst.count, port.wire->data.begin());
        toggle_port_ = inst.port;
      }
      break;
    }
    case ir::Opcode::kRecv: {
      PortState& port = ports_[inst.port];
      assert(port.wire != nullptr);
      if (port.out && port.wire->valid) {
        std::copy_n(port.wire->data.begin(), inst.count, frame_.begin() + inst.dst);
        in_recv_deassert_ = true;
        ++busy_cycles_;
      } else if (!port.out) {
        // Entry cycle: body once, then raise ready and wait.
        run_body();
        toggle_port_ = inst.port;
      }
      break;
    }
    case ir::Opcode::kJump:
      run_body();
      segment_ = segmentation_.block_entry[inst.target];
      ++busy_cycles_;
      break;
    case ir::Opcode::kBranch:
      run_body();
      segment_ = frame_[inst.a] != 0 ? segmentation_.block_entry[inst.target]
                                     : segmentation_.block_entry[inst.target2];
      ++busy_cycles_;
      break;
    case ir::Opcode::kHalt:
      run_body();
      halted_ = true;
      break;
    default:
      assert(false && "unexpected segment ender");
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
