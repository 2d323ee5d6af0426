// The cycle-level hardware FSM of one layer (paper section 3.4): the single
// lowering of an ir::Module that the Verilog backend prints, the RTL
// simulator interprets and the resource estimator counts. Entry `s` of the
// table is the Verilog `state` value `s`.
//
// Each block is cut at blocking instructions; every cut becomes one state
// whose body (a run of plain instructions) executes in one clock. A send
// adds no extra state (assert valid, wait for ready); a receive adds one
// de-assert-ready state after it (assert ready, wait for valid and save;
// de-assert). So the paper's four handshake phases fold into one state per
// send and two per receive. A handshake state runs its body once, on entry,
// while its registered valid/ready is still low; wait cycles only hold.
//
// Halt means "body once": a halt with a non-empty body becomes a goto state
// running that body, followed by an empty halt state that holds forever.
// kNondet is verifier-only and has no hardware meaning; building the table
// of a module that uses it is a caller bug.

#ifndef SRC_IR_FSM_H_
#define SRC_IR_FSM_H_

#include <cstdint>
#include <vector>

#include "src/ir/ir.h"

namespace efeu::ir {

enum class FsmKind : uint8_t {
  kGoto,          // body, then `next` (a jump, printed `state = next;`)
  kBranch,        // body, then `next` if frame[ender.a] != 0, else `next_else`
  kSend,          // entry: body, stage ender's data, raise valid; valid && ready: `next`
  kRecv,          // entry: body, raise ready; ready && valid: save data, `next`
  kRecvDeassert,  // drop ready, then `next`
  kHalt,          // hold forever; the body is always empty
};

struct FsmState {
  FsmKind kind = FsmKind::kHalt;
  // Body: blocks[block].insts[first .. last), plain instructions only.
  int block = 0;
  int first = 0;
  int last = 0;
  // The send/recv/branch instruction ending the body (blocks[block].insts
  // index): data offset and word count of a handshake, condition of a
  // branch; -1 for the other kinds.
  int ender = -1;
  // Handshake port of kSend/kRecv/kRecvDeassert, else -1.
  int port = -1;
  // Successor state(s); a halt state names itself.
  int next = -1;
  int next_else = -1;
};

struct FsmTable {
  std::vector<FsmState> states;
  // Width of the Verilog `state` register.
  int state_bits = 1;
};

FsmTable BuildFsmTable(const Module& module);

}  // namespace efeu::ir

#endif  // SRC_IR_FSM_H_
