#include "src/check/checker.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <memory>

#include "src/support/check.h"

#include "src/check/forced_run.h"
#include "src/check/ir_process.h"
#include "src/check/parallel.h"
#include "src/check/state_codec.h"
#include "src/support/hash.h"
#include "src/support/probe_table.h"
#include "src/support/state_table.h"

namespace efeu::check {

namespace {

struct Frame {
  std::vector<int32_t> key;
  uint64_t hash = 0;  // HashWords(key).
  std::vector<CheckedSystem::Transition> transitions;
  size_t next = 0;
  // Progress transitions taken on the stack up to and including this frame.
  uint64_t progress_count = 0;
  // >= 0: partial-order reduction is active and only transitions[ample] is
  // explored (`next` then just counts 0 -> 1). Reset to -1 with next = 0
  // when the cycle proviso or progress visibility forces full expansion.
  int ample = -1;
  // Index of the edge this frame most recently descended through (for
  // counterexample traces).
  int taken = -1;
  // Forced-run transitions walked inline between the parent's `taken` edge
  // and this frame's state (see kPorChainSampleMask).
  std::vector<CheckedSystem::Transition> chain;
};

// Index from state key to the depth of the DFS-stack frame holding it. A
// slot holds only the key's hash and the depth; keys are compared against
// the frames themselves, so pushing a frame copies no key. Map semantics:
// inserting a key already present moves it to the new depth, and erasing a
// key removes it whatever depth it points at.
class StackIndex {
 public:
  explicit StackIndex(const std::vector<Frame>& frames) : frames_(frames) {}

  // Depth of the frame holding `key`, or -1.
  int Find(uint64_t hash, std::span<const int32_t> key) const {
    return slots_[Locate(hash, key)].depth;
  }

  void Insert(uint64_t hash, std::span<const int32_t> key, int depth) {
    const size_t i = Locate(hash, key);
    if (slots_[i].empty()) {
      slots_.InsertAt(i, Slot{hash, depth});
    } else {
      slots_[i].depth = depth;
    }
  }

  void Erase(uint64_t hash, std::span<const int32_t> key) {
    const size_t i = Locate(hash, key);
    if (!slots_[i].empty()) {
      slots_.EraseAt(i);
    }
  }

 private:
  struct Slot {
    uint64_t fingerprint = 0;  // HashWords of the key.
    int depth = -1;            // -1 marks an empty slot.

    bool empty() const { return depth < 0; }
  };

  size_t Locate(uint64_t hash, std::span<const int32_t> key) const {
    return slots_.Find(hash, [&](const Slot& slot) {
      return std::ranges::equal(frames_[static_cast<size_t>(slot.depth)].key, key);
    });
  }

  const std::vector<Frame>& frames_;
  ProbeTable<Slot> slots_{64};
};

}  // namespace

std::string CheckedSystem::Transition::Describe(const CheckedSystem& system) const {
  if (kind == Kind::kChoice) {
    return system.entries_[process].process->name() + ": nondet -> " + std::to_string(choice);
  }
  return system.entries_[process].process->name() + " -> " +
         system.entries_[peer].process->name();
}

int CheckedSystem::AddProcess(std::unique_ptr<Process> process) {
  Entry entry;
  entry.links.resize(process->ports().size());
  entry.process = std::move(process);
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

int CheckedSystem::AddModule(const ir::Module* module, std::string instance_name) {
  return AddProcess(std::make_unique<IrProcess>(module, std::move(instance_name)));
}

void CheckedSystem::Connect(vm::PortRef sender, vm::PortRef receiver) {
  EFEU_CHECK(sender.process >= 0 && sender.process < static_cast<int>(entries_.size()) &&
                 receiver.process >= 0 && receiver.process < static_cast<int>(entries_.size()),
             "Connect: process id out of range");
  EFEU_CHECK(sender.port >= 0 &&
                 sender.port < static_cast<int>(entries_[sender.process].links.size()) &&
                 receiver.port >= 0 &&
                 receiver.port < static_cast<int>(entries_[receiver.process].links.size()),
             "Connect: port id out of range");
  const PortDecl& send_port = entries_[sender.process].process->ports()[sender.port];
  const PortDecl& recv_port = entries_[receiver.process].process->ports()[receiver.port];
  EFEU_CHECK(send_port.is_send && !recv_port.is_send, "Connect: sender/receiver direction");
  EFEU_CHECK(send_port.channel == recv_port.channel,
             "Connect: ports must carry the same channel");
  EFEU_CHECK(!entries_[sender.process].links[sender.port].has_value() &&
                 !entries_[receiver.process].links[receiver.port].has_value(),
             "Connect: port already connected");
  entries_[sender.process].links[sender.port] = receiver;
  entries_[receiver.process].links[receiver.port] = sender;
  channel_links_ready_ = false;
}

void CheckedSystem::ConnectByChannel(int from_process, int to_process,
                                     const esi::ChannelInfo* channel) {
  auto find_free = [&](int process, bool is_send) {
    const Entry& entry = entries_[process];
    const std::vector<PortDecl>& decls = entry.process->ports();
    for (size_t i = 0; i < decls.size(); ++i) {
      if (decls[i].channel == channel && decls[i].is_send == is_send &&
          !entry.links[i].has_value()) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  int send_port = find_free(from_process, /*is_send=*/true);
  int recv_port = find_free(to_process, /*is_send=*/false);
  EFEU_CHECK(send_port >= 0, "ConnectByChannel: sender has no free port for this channel");
  EFEU_CHECK(recv_port >= 0, "ConnectByChannel: receiver has no free port for this channel");
  Connect(vm::PortRef{from_process, send_port}, vm::PortRef{to_process, recv_port});
}

void CheckedSystem::ResetAll() {
  for (Entry& entry : entries_) {
    entry.process->Reset();
  }
}

std::unique_ptr<CheckedSystem> CheckedSystem::Clone() const {
  auto clone = std::make_unique<CheckedSystem>();
  for (const Entry& entry : entries_) {
    clone->AddProcess(entry.process->Clone());
    // Links are (process id, port id) pairs; ids are identical in the clone.
    clone->entries_.back().links = entry.links;
  }
  return clone;
}

std::vector<int> CheckedSystem::SnapshotSizes() const {
  std::vector<int> sizes;
  sizes.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    sizes.push_back(entry.process->SnapshotSize());
  }
  return sizes;
}

void CheckedSystem::RestoreAll(const std::vector<int32_t>& state) {
  int offset = 0;
  for (Entry& entry : entries_) {
    int size = entry.process->SnapshotSize();
    entry.process->Restore(std::span<const int32_t>(state).subspan(offset, size));
    offset += size;
  }
}

bool CheckedSystem::Closure(Violation* violation, bool* progress) {
  for (Entry& entry : entries_) {
    Process& process = *entry.process;
    if (process.state() != vm::RunState::kRunnable) {
      continue;
    }
    std::string error;
    vm::RunState state = process.RunToBlock(&error);
    if (process.TakeProgressFlag()) {
      *progress = true;
    }
    switch (state) {
      case vm::RunState::kAssertFailed:
        violation->kind = ViolationKind::kAssertionFailed;
        violation->message = error;
        return false;
      case vm::RunState::kRuntimeError:
        violation->kind = ViolationKind::kRuntimeError;
        violation->message = error;
        return false;
      default:
        break;
    }
  }
  return true;
}

void CheckedSystem::EnabledTransitions(std::vector<Transition>* out) const {
  std::vector<Transition>& transitions = *out;
  transitions.clear();
  for (size_t p = 0; p < entries_.size(); ++p) {
    const Process& process = *entries_[p].process;
    if (process.state() == vm::RunState::kBlockedSend) {
      int port = process.blocked_port();
      const std::optional<vm::PortRef>& link = entries_[p].links[port];
      if (!link.has_value()) {
        continue;  // Unconnected port can never fire; shows up as deadlock.
      }
      const Process& peer = *entries_[link->process].process;
      if (peer.state() == vm::RunState::kBlockedRecv && peer.blocked_port() == link->port) {
        Transition t;
        t.kind = Transition::Kind::kTransfer;
        t.process = static_cast<int>(p);
        t.peer = link->process;
        transitions.push_back(t);
      }
    } else if (process.state() == vm::RunState::kBlockedNondet) {
      for (int choice = 0; choice < process.NondetArity(); ++choice) {
        Transition t;
        t.kind = Transition::Kind::kChoice;
        t.process = static_cast<int>(p);
        t.choice = choice;
        transitions.push_back(t);
      }
    }
  }
}

void CheckedSystem::Apply(const Transition& t) {
  Process& process = *entries_[t.process].process;
  if (t.kind == Transition::Kind::kChoice) {
    process.CompleteNondet(t.choice);
    return;
  }
  Process& peer = *entries_[t.peer].process;
  // PendingMessage borrows the sender's staging buffer, so deliver to the
  // receiver before completing the send invalidates it.
  std::span<const int32_t> message = process.PendingMessage();
  peer.CompleteRecv(message);
  process.CompleteSend();
}

bool CheckedSystem::TransferOnExclusiveChannel(const Transition& t) const {
  if (!channel_links_ready_) {
    channel_links_.clear();
    for (const Entry& entry : entries_) {
      const std::vector<PortDecl>& decls = entry.process->ports();
      for (size_t port = 0; port < decls.size(); ++port) {
        if (decls[port].is_send && entry.links[port].has_value()) {
          ++channel_links_[decls[port].channel];
        }
      }
    }
    channel_links_ready_ = true;
  }
  const Process& sender = *entries_[t.process].process;
  const esi::ChannelInfo* channel = sender.ports()[sender.blocked_port()].channel;
  auto it = channel_links_.find(channel);
  return it != channel_links_.end() && it->second == 1;
}

int CheckedSystem::PickAmple(const std::vector<Transition>& transitions,
                             bool livelock_sensitive) const {
  if (transitions.size() < 2) {
    return -1;  // Nothing to reduce (and never shrink a singleton: keeps the
                // reduced graph a subgraph with identical verdict structure).
  }
  int fallback = -1;
  for (size_t i = 0; i < transitions.size(); ++i) {
    const Transition& t = transitions[i];
    if (t.kind != Transition::Kind::kTransfer || !TransferOnExclusiveChannel(t)) {
      continue;
    }
    // Both endpoints are blocked on a 1:1 channel no other process touches:
    // the transfer stays enabled and unchanged along any interleaving of the
    // other transitions, and firing it cannot enable, disable, or alter any
    // of them — a persistent singleton. Its closure only moves the two
    // participants, so assertions/end-state changes in other processes are
    // impossible (invisibility), leaving only progress labels (below) and
    // the caller's cycle proviso.
    NextStepSummary sender = entries_[static_cast<size_t>(t.process)].process->PeekNextStep();
    NextStepSummary receiver = entries_[static_cast<size_t>(t.peer)].process->PeekNextStep();
    if (livelock_sensitive && (sender.may_pass_progress || receiver.may_pass_progress)) {
      continue;  // Might pass a progress label: visible to the NPC search.
    }
    if (fallback < 0) {
      fallback = static_cast<int>(i);
    }
    // Prefer a transfer whose endpoints continue deterministically to at most
    // one port each: those chain into further forced rendezvous, giving the
    // longest reduced runs.
    if (!sender.may_choose && !receiver.may_choose &&
        std::popcount(sender.port_mask) <= 1 && std::popcount(receiver.port_mask) <= 1) {
      return static_cast<int>(i);
    }
  }
  return fallback;
}

bool CheckedSystem::AllAtValidEnd() const {
  for (const Entry& entry : entries_) {
    if (!entry.process->AtValidEndState()) {
      return false;
    }
  }
  return true;
}

std::string CheckedSystem::DescribeBlockedProcesses() const {
  std::string out;
  for (const Entry& entry : entries_) {
    if (entry.process->AtValidEndState()) {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += entry.process->name();
    switch (entry.process->state()) {
      case vm::RunState::kBlockedSend:
        out += " (blocked sending)";
        break;
      case vm::RunState::kBlockedRecv:
        out += " (blocked receiving outside an end label)";
        break;
      case vm::RunState::kBlockedNondet:
        out += " (blocked at nondet)";
        break;
      default:
        out += " (not at end)";
        break;
    }
  }
  return out;
}

CheckResult CheckedSystem::Check(const CheckerOptions& options) {
  // Safety checking with dedup parallelizes; non-progress-cycle detection
  // needs the DFS stack and stays sequential (same restriction as SPIN's
  // multi-core mode), as does the dedup-disabled tree search.
  if (options.num_threads > 1 && !options.check_livelock && !options.disable_state_dedup) {
    ParallelCheckerOptions parallel;
    parallel.num_threads = options.num_threads;
    parallel.fingerprint_only = options.fingerprint_only;
    parallel.base = options;
    parallel.base.num_threads = 1;
    return CheckParallel(*this, parallel);
  }

  auto start_time = std::chrono::steady_clock::now();
  CheckResult result;

  // COLLAPSE storage (see state_codec.h): visited keys become one component
  // id per process; the codec also gives the incremental snapshot/restore
  // hot path. Without collapse the codec degrades to full-vector mode.
  std::unique_ptr<CollapseTable> components;
  if (options.collapse) {
    components = std::make_unique<CollapseTable>(SnapshotSizes());
  }
  StateCodec codec(*this, components.get());

  // Frames [0, depth) are the DFS stack. Frames past it keep their buffers
  // and are refilled by later pushes, so a DFS step allocates nothing once
  // the stack has been this deep before.
  std::vector<Frame> frames;
  size_t depth = 0;

  // Builds the counterexample trace from the DFS stack, plus the transition
  // currently being applied and the forced run walked after it.
  auto report = [&](ViolationKind kind, std::string message, const Transition* current,
                    const std::vector<Transition>* chain = nullptr) {
    Violation v;
    v.kind = kind;
    v.message = std::move(message);
    for (size_t i = 0; i + 1 < depth; ++i) {
      const Frame& frame = frames[i];
      assert(frame.taken >= 0);
      v.trace.push_back(frame.transitions[static_cast<size_t>(frame.taken)].Describe(*this));
      DescribePath(*this, frames[i + 1].chain, &v.trace);
    }
    if (depth > 0 && current != nullptr) {
      v.trace.push_back(current->Describe(*this));
    }
    if (chain != nullptr) {
      DescribePath(*this, *chain, &v.trace);
    }
    result.violation = std::move(v);
  };

  // Initial closure.
  ResetAll();
  Violation violation;
  bool progress = false;
  if (!Closure(&violation, &progress)) {
    result.violation = std::move(violation);
    result.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
    return result;
  }

  // With livelock checking the table tracks the minimum progress credit each
  // state was reached with, and re-admits a state reached with strictly lower
  // credit. Without this, a non-progress cycle entered through a cross edge
  // is missed: the cycle's states can all be first visited on paths with
  // higher credit (e.g. via a progress-labeled detour), so plain dedup prunes
  // the low-credit re-traversal before it can close the equal-credit back
  // edge below. Credits only shrink toward zero, so the re-exploration
  // terminates.
  StateTableOptions table_options;
  table_options.num_shards = 1;
  table_options.fingerprint_only = options.fingerprint_only;
  table_options.track_progress = options.check_livelock;
  ShardedStateTable visited(table_options);
  StackIndex on_stack(frames);
  ForcedRunWalker walker(*this, codec, visited);

  frames.emplace_back();
  {
    Frame& initial = frames[0];
    codec.EncodeFull(&initial.key);
    initial.hash = HashWords(initial.key);
    EnabledTransitions(&initial.transitions);
    visited.ClaimHashed(initial.hash, initial.key, 0);
    on_stack.Insert(initial.hash, initial.key, 0);

    if (initial.transitions.empty() && options.check_deadlock && !AllAtValidEnd()) {
      report(ViolationKind::kInvalidEndState, "invalid end state: " + DescribeBlockedProcesses(),
             nullptr);
      result.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
      return result;
    }
    if (options.por) {
      initial.ample = PickAmple(initial.transitions, options.check_livelock);
    }
  }
  depth = 1;

  auto out_of_budget = [&]() {
    if (options.max_states != 0 && visited.size() >= options.max_states) {
      return true;
    }
    if (options.max_transitions != 0 && result.transitions >= options.max_transitions) {
      return true;
    }
    if (options.time_budget_seconds > 0) {
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
      if (elapsed > options.time_budget_seconds) {
        return true;
      }
    }
    return false;
  };

  // Reused per-step scratch: the would-be child key is encoded here and only
  // copied when the child is actually pushed.
  std::vector<int32_t> next_key;

  while (depth > 0 && !result.violation.has_value()) {
    if (frames.size() == depth) {
      frames.emplace_back();  // Before taking references into `frames`.
    }
    Frame& frame = frames[depth - 1];
    bool frame_done =
        frame.ample >= 0 ? frame.next > 0 : frame.next >= frame.transitions.size();
    if (frame_done) {
      if (frame.ample >= 0) {
        ++result.por_reduced_states;
      }
      on_stack.Erase(frame.hash, frame.key);
      --depth;
      continue;
    }
    if (out_of_budget()) {
      result.budget_exhausted = true;
      break;
    }
    if (static_cast<int>(depth) > options.max_depth) {
      // Depth prune. The budget flag means "a reachable subtree was actually
      // skipped", so probe the frame's successors: only an unvisited one (or
      // a violating closure we are not reporting) marks the run incomplete.
      // Under an active reduction every edge is still unexplored.
      if (!result.budget_exhausted) {
        size_t probe_begin = frame.ample >= 0 ? 0 : frame.next;
        for (size_t i = probe_begin; i < frame.transitions.size(); ++i) {
          codec.Restore(frame.key);
          codec.NoteStep(frame.transitions[i]);
          Apply(frame.transitions[i]);
          Violation probe_violation;
          bool probe_progress = false;
          if (!Closure(&probe_violation, &probe_progress)) {
            result.budget_exhausted = true;
            break;
          }
          codec.EncodeStep(&next_key);
          uint64_t probe_credit = frame.progress_count + (probe_progress ? 1 : 0);
          if (options.disable_state_dedup ||
              visited.WouldClaimHashed(HashWords(next_key), next_key, probe_credit)) {
            result.budget_exhausted = true;
            break;
          }
        }
      }
      on_stack.Erase(frame.hash, frame.key);
      --depth;
      continue;
    }
    // Pruned frames above are not counted: with depth pruning active,
    // max_depth_reached never exceeds max_depth.
    result.max_depth_reached = std::max(result.max_depth_reached, static_cast<int>(depth));

    size_t index = frame.ample >= 0 ? static_cast<size_t>(frame.ample) : frame.next;
    frame.taken = static_cast<int>(index);
    ++frame.next;
    const Transition t = frame.transitions[index];
    uint64_t parent_progress = frame.progress_count;

    codec.Restore(frame.key);
    codec.NoteStep(t);
    Apply(t);
    ++result.transitions;
    bool step_progress = false;
    if (!Closure(&violation, &step_progress)) {
      report(violation.kind, violation.message, &t);
      break;
    }

    codec.EncodeStep(&next_key);
    uint64_t next_hash = HashWords(next_key);

    int stack_depth = -1;
    if (options.check_livelock || frame.ample >= 0) {
      stack_depth = on_stack.Find(next_hash, next_key);
    }

    // Non-progress cycle: a back edge to an on-stack state with no progress
    // transition anywhere along the cycle.
    if (options.check_livelock && stack_depth >= 0) {
      uint64_t progress_at_entry = frames[static_cast<size_t>(stack_depth)].progress_count;
      uint64_t progress_now = parent_progress + (step_progress ? 1 : 0);
      if (progress_now == progress_at_entry) {
        report(ViolationKind::kNonProgressCycle,
               "non-progress cycle (livelock): a reachable cycle passes no progress label",
               &t);
        break;
      }
    }

    // Cycle proviso + progress visibility: abandon the reduction and
    // re-expand this frame in full when the ample edge closes a DFS-stack
    // cycle (otherwise the postponed transitions could be ignored forever
    // around that cycle), or when it dynamically passed a progress label the
    // static lookahead missed.
    if (frame.ample >= 0 && (stack_depth >= 0 || step_progress)) {
      frame.ample = -1;
      frame.next = 0;
    }

    uint64_t next_progress = parent_progress + (step_progress ? 1 : 0);
    if (!options.disable_state_dedup &&
        !visited.ClaimHashed(next_hash, next_key, next_progress)) {
      continue;  // Already explored (at this progress credit or lower).
    }

    Frame& child = frames[depth];
    EnabledTransitions(&child.transitions);
    child.progress_count = next_progress;
    child.next = 0;
    child.ample = -1;
    child.taken = -1;
    child.chain.clear();

    // Forced-run compression (see kPorChainSampleMask in checker.h): walk a
    // run of singleton-transition states inline, closure-checking each one,
    // storing only the sampled states, and land the DFS on the first state
    // that branches, ends, or is already stored. Disabled for the livelock
    // search (progress credits are tracked per stack frame) and for the
    // dedup-free tree search (no table to sample into).
    if (options.por && !options.check_livelock && !options.disable_state_dedup &&
        child.transitions.size() == 1) {
      ForcedRunWalker::End end = walker.Walk(
          &next_key, &next_hash, &child.transitions, &child.chain, &violation,
          [&] { ++result.transitions; }, [&] { ++result.por_reduced_states; },
          [&] {
            if (!out_of_budget()) {
              return false;
            }
            result.budget_exhausted = true;
            return true;
          });
      if (end == ForcedRunWalker::End::kViolated) {
        report(violation.kind, violation.message, &t, &child.chain);
        break;
      }
      if (end == ForcedRunWalker::End::kStopped) {
        break;
      }
      if (end == ForcedRunWalker::End::kAbandoned) {
        continue;
      }
      // Claim the landing state like any other fresh child.
      if (!visited.ClaimHashed(next_hash, next_key, child.progress_count)) {
        continue;
      }
    }

    if (child.transitions.empty()) {
      if (options.check_deadlock && !AllAtValidEnd()) {
        report(ViolationKind::kInvalidEndState,
               "invalid end state: " + DescribeBlockedProcesses(), &t, &child.chain);
        break;
      }
      continue;  // Valid end state; no successors.
    }

    if (options.por) {
      child.ample = PickAmple(child.transitions, options.check_livelock);
    }
    child.key = next_key;
    child.hash = next_hash;
    on_stack.Insert(child.hash, child.key, static_cast<int>(depth));
    ++depth;
  }

  result.states_stored = visited.size();
  result.state_bytes = visited.payload_bytes();
  result.component_bytes = components != nullptr ? components->payload_bytes() : 0;
  result.ok = !result.violation.has_value();
  result.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time).count();
  return result;
}

}  // namespace efeu::check
