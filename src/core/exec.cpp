#include "core/exec.hpp"

#include <cassert>

#include "isa/alu.hpp"

namespace ultra::core {

namespace {

void Finish(Station& st, std::uint64_t cycle) {
  st.finished = true;
  st.complete_cycle = cycle;
}

}  // namespace

bool NeedsAlu(isa::Opcode op) {
  switch (isa::ClassOf(op)) {
    case isa::OpClass::kIntSimple:
    case isa::OpClass::kIntMul:
    case isa::OpClass::kIntDiv:
    case isa::OpClass::kBranch:
    case isa::OpClass::kJump:
      return true;
    default:
      return false;
  }
}

bool WantsAlu(const Station& st, const datapath::ResolvedArgs& args) {
  if (!st.valid || st.issued || st.finished) return false;
  const isa::Instruction& inst = st.inst();
  if (!NeedsAlu(inst.op)) return false;
  const bool a_ready = !isa::ReadsRs1(inst.op) || args.arg1.ready;
  const bool b_ready = !isa::ReadsRs2(inst.op) || args.arg2.ready;
  return a_ready && b_ready;
}

bool StepStation(Station& st, const datapath::ResolvedArgs& args,
                 const StepContext& ctx, const isa::LatencyModel& latencies,
                 memory::MemorySystem& mem, std::uint64_t cycle, int leaf,
                 std::uint64_t tag, InflightMap& inflight, RunStats& stats) {
  if (!st.valid || st.finished) return false;
  const isa::Instruction& inst = st.inst();
  const isa::OpClass cls = isa::ClassOf(inst.op);

  switch (cls) {
    case isa::OpClass::kNop:
    case isa::OpClass::kHalt:
    case isa::OpClass::kIntSimple:
    case isa::OpClass::kIntMul:
    case isa::OpClass::kIntDiv:
    case isa::OpClass::kBranch:
    case isa::OpClass::kJump: {
      if (!st.issued) {
        const bool a_ready = !isa::ReadsRs1(inst.op) || args.arg1.ready;
        const bool b_ready = !isa::ReadsRs2(inst.op) || args.arg2.ready;
        if (!a_ready || !b_ready) return false;
        if (NeedsAlu(inst.op) && !ctx.alu_granted) return false;
        st.issued = true;
        st.arg_a = args.arg1.value;
        st.arg_b = args.arg2.value;
        st.busy_remaining = latencies.Cycles(inst.op);
        st.issue_cycle = cycle;
      }
      assert(st.busy_remaining > 0);
      if (--st.busy_remaining > 0) return false;
      // The ALU delivers at the end of this cycle.
      if (cls == isa::OpClass::kBranch || cls == isa::OpClass::kJump) {
        st.resolved = true;
        st.actual_taken = isa::BranchTaken(inst, st.arg_a, st.arg_b);
        st.actual_next_pc = st.actual_taken
                                ? static_cast<std::size_t>(inst.imm)
                                : st.fetched.pc + 1;
        if (inst.op == isa::Opcode::kJal) {
          st.result.value = static_cast<isa::Word>(st.fetched.pc + 1);
          st.result.ready = true;
        }
        Finish(st, cycle);
        return st.actual_next_pc != st.fetched.predicted_next_pc;
      }
      if (isa::WritesRd(inst.op)) {
        st.result.value = isa::AluResult(inst, st.arg_a, st.arg_b);
        st.result.ready = true;
      }
      Finish(st, cycle);
      return false;
    }

    case isa::OpClass::kLoad: {
      if (st.mem_submitted || !args.arg1.ready) return false;
      if (ctx.forwarding_enabled) {
        // Memory renaming: issue once every preceding store address is
        // known; forward when the nearest same-address store has its data.
        if (!ctx.load_can_proceed) return false;
        if (ctx.load_forward) {
          st.arg_a = args.arg1.value;
          st.result.value = ctx.forward_value;
          st.result.ready = true;
          st.mem_submitted = true;  // No memory traffic.
          st.mem_done = true;
          st.issue_cycle = cycle;
          ++stats.forwarded_loads;
          Finish(st, cycle);
          return false;
        }
      } else if (!ctx.prev_stores_done) {
        // "A station cannot load from memory until all preceding stores
        // have finished."
        return false;
      }
      st.arg_a = args.arg1.value;
      const isa::Word addr = isa::EffectiveAddress(inst, st.arg_a);
      st.mem_id = mem.SubmitLoad(leaf, addr);
      st.mem_submitted = true;
      st.issue_cycle = cycle;
      inflight[st.mem_id] = MemTag{tag, st.generation};
      ++stats.load_count;
      return false;  // Completion arrives via ApplyMemResponse.
    }

    case isa::OpClass::kStore: {
      // "A station cannot store to memory until all preceding loads and
      // stores have finished", and it "cannot modify memory ... until all
      // preceding stations have committed."
      if (!st.mem_submitted && args.arg1.ready && args.arg2.ready &&
          ctx.prev_loads_done && ctx.prev_stores_done && ctx.committed_ok) {
        st.arg_a = args.arg1.value;
        st.arg_b = args.arg2.value;
        const isa::Word addr = isa::EffectiveAddress(inst, st.arg_a);
        st.mem_id = mem.SubmitStore(leaf, addr, st.arg_b);
        st.mem_submitted = true;
        st.issue_cycle = cycle;
        inflight[st.mem_id] = MemTag{tag, st.generation};
        ++stats.store_count;
      }
      return false;
    }
  }
  return false;
}

void ApplyMemResponse(Station& st, const memory::MemResponse& resp,
                      std::uint64_t cycle) {
  assert(st.valid && st.mem_submitted && !st.mem_done);
  assert(st.mem_id == resp.id);
  st.mem_done = true;
  if (!resp.is_store && isa::WritesRd(st.inst().op)) {
    st.result.value = resp.value;
    st.result.ready = true;
  }
  st.finished = true;
  st.complete_cycle = cycle;
}

LoadForwardDecision ResolveLoadForwarding(
    std::span<const MemWindowEntry> window, std::size_t pos) {
  assert(pos < window.size());
  return ResolveLoadForwardingMapped(
      [&](std::size_t k) -> const MemWindowEntry& { return window[k]; }, pos);
}

MemWindowEntry MakeMemWindowEntry(const Station& st,
                                  const datapath::ResolvedArgs& args) {
  MemWindowEntry e;
  if (!st.valid) return e;
  const isa::Instruction& inst = st.inst();
  e.is_store = inst.op == isa::Opcode::kStore;
  e.is_load = inst.op == isa::Opcode::kLoad;
  if (!e.is_store && !e.is_load) return e;
  // Once the operation has been submitted its latched address is exact;
  // before that, the address is known as soon as the base register is.
  if (st.mem_submitted) {
    e.addr_known = true;
    e.addr = isa::EffectiveAddress(inst, st.arg_a);
  } else if (args.arg1.ready) {
    e.addr_known = true;
    e.addr = isa::EffectiveAddress(inst, args.arg1.value);
  }
  if (e.is_store) {
    if (st.mem_submitted) {
      e.data_ready = true;
      e.data = st.arg_b;
    } else if (args.arg2.ready) {
      e.data_ready = true;
      e.data = args.arg2.value;
    }
  }
  return e;
}

}  // namespace ultra::core
