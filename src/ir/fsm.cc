#include "src/ir/fsm.h"

#include "src/support/check.h"

namespace efeu::ir {

FsmTable BuildFsmTable(const Module& module) {
  FsmTable table;
  std::vector<FsmState>& states = table.states;
  std::vector<int> block_entry(module.blocks.size());
  // States whose next/next_else still hold block ids (jumps and branches).
  std::vector<int> block_targets;
  for (size_t b = 0; b < module.blocks.size(); ++b) {
    const Block& block = module.blocks[b];
    const int size = static_cast<int>(block.insts.size());
    block_entry[b] = static_cast<int>(states.size());
    int i = 0;
    while (i < size) {
      FsmState state;
      state.block = static_cast<int>(b);
      state.first = i;
      while (i < size && !block.insts[i].IsBlocking() && !block.insts[i].IsTerminator()) {
        ++i;
      }
      EFEU_CHECK(i < size, "BuildFsmTable: block without a terminator");
      state.last = i;
      const Inst& ender = block.insts[i];
      EFEU_CHECK(ender.op != Opcode::kNondet,
                 "BuildFsmTable: nondet() is verifier-only and has no hardware FSM");
      const int self = static_cast<int>(states.size());
      switch (ender.op) {
        case Opcode::kSend:
        case Opcode::kRecv:
          // A blocking instruction never ends a block, so the state after
          // the handshake is the next cut of the same block.
          state.kind = ender.op == Opcode::kSend ? FsmKind::kSend : FsmKind::kRecv;
          state.ender = i;
          state.port = ender.port;
          state.next = self + 1;
          states.push_back(state);
          if (ender.op == Opcode::kRecv) {
            FsmState deassert;
            deassert.kind = FsmKind::kRecvDeassert;
            deassert.block = state.block;
            deassert.first = deassert.last = i + 1;
            deassert.port = ender.port;
            deassert.next = self + 2;
            states.push_back(deassert);
          }
          break;
        case Opcode::kJump:
        case Opcode::kBranch:
          state.kind = ender.op == Opcode::kJump ? FsmKind::kGoto : FsmKind::kBranch;
          state.ender = ender.op == Opcode::kBranch ? i : -1;
          state.next = ender.target;
          state.next_else = ender.target2;
          block_targets.push_back(self);
          states.push_back(state);
          break;
        default:  // kHalt
          if (state.first < state.last) {
            // Run the body once, then hold in an empty halt state.
            state.kind = FsmKind::kGoto;
            state.next = self + 1;
            states.push_back(state);
            state.first = state.last;
          }
          state.kind = FsmKind::kHalt;
          state.next = static_cast<int>(states.size());
          states.push_back(state);
          break;
      }
      ++i;
    }
  }
  for (int s : block_targets) {
    FsmState& state = states[s];
    state.next = block_entry[state.next];
    if (state.kind == FsmKind::kBranch) {
      state.next_else = block_entry[state.next_else];
    }
  }
  while ((1 << table.state_bits) < static_cast<int>(states.size())) {
    ++table.state_bits;
  }
  return table;
}

}  // namespace efeu::ir
