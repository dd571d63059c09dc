#include "core/ideal_core.hpp"

#include <bit>
#include <cassert>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/checkpoint_util.hpp"
#include "core/exec.hpp"
#include "core/fetch.hpp"
#include "core/telemetry_hooks.hpp"
#include "datapath/bitset.hpp"
#include "datapath/scheduler.hpp"
#include "datapath/sequencing.hpp"

namespace ultra::core {

namespace {

/// A window entry: a Station plus renamed dependencies. A source is either
/// an immediately available value (captured from the committed register
/// file at rename time) or a pointer (sequence number) to the in-flight
/// producer.
struct Entry {
  Station st;
  bool dep1_inflight = false;
  std::uint64_t dep1_seq = 0;
  isa::Word val1 = 0;
  bool dep2_inflight = false;
  std::uint64_t dep2_seq = 0;
  isa::Word val2 = 0;
};

RunResult RunPackedIdeal(const CoreConfig& config_,
                         const isa::Program& program);

}  // namespace

RunResult IdealCore::Run(const isa::Program& program) {
  // Ideal has one fast loop and one plain reference. Every mode except
  // kFullRecompute takes the word-parallel loop (the rename table has no
  // incremental datapath, and Ideal ignores fault plans, so kIncremental
  // and kChecked have nothing of their own to run); telemetry, store
  // forwarding and checkpointing are modeled inside it, and results and
  // checkpoints are byte-identical to the reference loop's.
  if (config_.datapath_eval == DatapathEval::kFullRecompute) {
    return RunReference(program);
  }
  return RunPackedIdeal(config_, program);
}

RunResult IdealCore::RunReference(const isa::Program& program) {
  const int n = config_.window_size;
  const int L = config_.num_regs;
  memory::MemorySystem mem(config_.mem, n);
  mem.Reset(program.initial_memory());
  FetchEngine fetch(&program, config_, MakePredictor(config_, program));

  // The instruction window as a fixed ring of n entries: program positions
  // [0, count) live at ring slots (head + k) % n, so commits and refills
  // reuse storage instead of churning deque blocks.
  std::vector<Entry> window(static_cast<std::size_t>(n));
  int head = 0;
  int count = 0;
  std::vector<isa::Word> regs(static_cast<std::size_t>(L), 0);
  // rename[r]: sequence number of the youngest in-flight writer of r.
  std::vector<std::optional<std::uint64_t>> rename(
      static_cast<std::size_t>(L));
  std::uint64_t next_seq = 0;
  InflightMap inflight;
  RunResult result;
  bool done = false;

  CoreTelemetry tel(config_);

  const auto ent = [&](int k) -> Entry& {
    return window[static_cast<std::size_t>((head + k) % n)];
  };

  const auto find_entry = [&](std::uint64_t seq) -> Entry* {
    for (int k = 0; k < count; ++k) {
      if (ent(k).st.seq == seq) return &ent(k);
    }
    return nullptr;
  };

  const auto rebuild_rename = [&] {
    for (auto& r : rename) r.reset();
    for (int k = 0; k < count; ++k) {
      const Entry& e = ent(k);
      if (isa::WritesRd(e.st.inst().op)) {
        rename[e.st.inst().rd] = e.st.seq;
      }
    }
  };

  // Per-cycle scratch, hoisted so the steady-state loop never allocates.
  std::vector<std::uint64_t> finished_seqs;
  finished_seqs.reserve(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_store(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_load(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> branch_ok(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_stores_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_loads_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_confirmed(static_cast<std::size_t>(n));
  std::vector<datapath::ResolvedArgs> args_at(static_cast<std::size_t>(n));
  std::vector<MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests;
  std::vector<std::uint8_t> alu_grant;
  std::vector<FetchedInstr> fetch_batch;

  CheckpointSession ckpt(config_, ProcessorKind::kIdeal, program);
  const auto save_state = [&](persist::Encoder& e) {
    // Ring position matters downstream (trace events name the slot a
    // future allocation lands in), so head is preserved, not normalized.
    e.I32(head);
    e.I32(count);
    for (int k = 0; k < count; ++k) {
      const Entry& en = ent(k);
      SaveStation(e, en.st);
      e.Bool(en.dep1_inflight);
      e.U64(en.dep1_seq);
      e.U32(en.val1);
      e.Bool(en.dep2_inflight);
      e.U64(en.dep2_seq);
      e.U32(en.val2);
    }
    for (const isa::Word r : regs) e.U32(r);
    for (const auto& r : rename) {
      e.Bool(r.has_value());
      e.U64(r.has_value() ? *r : 0);
    }
    e.U64(next_seq);
    SaveInflight(e, inflight);
    SavePartialResult(e, result);
    fetch.SaveState(e);
    mem.SaveState(e);
    SaveTelemetrySlots(e, config_);
  };
  std::uint64_t start_cycle = 0;
  if (ckpt.resume() != nullptr) {
    persist::Decoder d(ckpt.resume()->state);
    head = d.I32();
    count = d.I32();
    if (head < 0 || head >= n || count < 0 || count > n) {
      throw persist::FormatError("ideal window geometry out of range");
    }
    for (int k = 0; k < count; ++k) {
      Entry& en = ent(k);
      RestoreStation(d, en.st);
      en.dep1_inflight = d.Bool();
      en.dep1_seq = d.U64();
      en.val1 = d.U32();
      en.dep2_inflight = d.Bool();
      en.dep2_seq = d.U64();
      en.val2 = d.U32();
    }
    for (isa::Word& r : regs) r = d.U32();
    for (auto& r : rename) {
      const bool has = d.Bool();
      const std::uint64_t seq = d.U64();
      if (has) {
        r = seq;
      } else {
        r.reset();
      }
    }
    next_seq = d.U64();
    RestoreInflight(d, inflight);
    RestorePartialResult(d, result);
    fetch.RestoreState(d);
    mem.RestoreState(d);
    RestoreTelemetrySlots(d, config_);
    if (!d.AtEnd()) {
      throw persist::FormatError("trailing checkpoint bytes");
    }
    start_cycle = ckpt.resume()->header.cycle;
  }

  for (std::uint64_t cycle = start_cycle; cycle < config_.max_cycles && !done;
       ++cycle) {
    if (ckpt.MaybeSave(cycle, save_state)) break;
    if (config_.cancel && (cycle & 1023u) == 0 &&
        config_.cancel->load(std::memory_order_relaxed)) {
      break;  // Abandoned run: halted stays false.
    }
    result.cycles = cycle + 1;
    tel.OnCycle(cycle, count);

    // --- Phase 1: snapshot end-of-last-cycle readiness (results become
    // visible to consumers one cycle after they are produced, matching the
    // Ultrascalar datapath propagation). ---
    finished_seqs.clear();
    for (int k = 0; k < count; ++k) {
      const Station& st = ent(k).st;
      if (st.finished) finished_seqs.push_back(st.seq);
      const bool is_store = st.inst().op == isa::Opcode::kStore;
      const bool is_load = st.inst().op == isa::Opcode::kLoad;
      const std::size_t ks = static_cast<std::size_t>(k);
      no_store[ks] = !is_store || st.finished;
      no_load[ks] = !is_load || st.finished;
      branch_ok[ks] = !isa::IsControlFlow(st.inst().op) || st.resolved;
    }
    const std::size_t live_size = static_cast<std::size_t>(count);
    datapath::AllPrecedingSatisfyAcyclicInto(
        std::span<const std::uint8_t>(no_store.data(), live_size),
        std::span<std::uint8_t>(prev_stores_done.data(), live_size));
    datapath::AllPrecedingSatisfyAcyclicInto(
        std::span<const std::uint8_t>(no_load.data(), live_size),
        std::span<std::uint8_t>(prev_loads_done.data(), live_size));
    datapath::AllPrecedingSatisfyAcyclicInto(
        std::span<const std::uint8_t>(branch_ok.data(), live_size),
        std::span<std::uint8_t>(prev_confirmed.data(), live_size));
    const auto was_finished = [&](std::uint64_t seq) {
      for (const std::uint64_t s : finished_seqs) {
        if (s == seq) return true;
      }
      return false;
    };

    // --- Phase 2: memory responses. ---
    mem.Tick();
    for (const auto& resp : mem.DrainCompleted()) {
      const auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;
      const MemTag tag = it->second;
      inflight.erase(it);
      if (Entry* e = find_entry(tag.tag); e != nullptr) {
        const bool entry_was_finished = e->st.finished;
        ApplyMemResponse(e->st, resp, cycle);
        tel.OnMemComplete(cycle, static_cast<int>(e - window.data()), e->st,
                          entry_was_finished);
      }
    }

    // --- Phase 3a: wake-up (argument resolution) in program order. ---
    const int live = count;
    std::fill(args_at.begin(), args_at.begin() + live,
              datapath::ResolvedArgs{});
    mem_window.assign(
        config_.store_forwarding ? static_cast<std::size_t>(live) : 0,
        MemWindowEntry{});
    for (int k = 0; k < live; ++k) {
      Entry& e = ent(k);
      datapath::ResolvedArgs args;
      const isa::Instruction& inst = e.st.inst();
      if (isa::ReadsRs1(inst.op)) {
        if (!e.dep1_inflight) {
          args.arg1 = {e.val1, true};
        } else if (was_finished(e.dep1_seq)) {
          const Entry* prod = find_entry(e.dep1_seq);
          assert(prod != nullptr && prod->st.result.ready);
          args.arg1 = prod->st.result;
        }
      }
      if (isa::ReadsRs2(inst.op)) {
        if (!e.dep2_inflight) {
          args.arg2 = {e.val2, true};
        } else if (was_finished(e.dep2_seq)) {
          const Entry* prod = find_entry(e.dep2_seq);
          assert(prod != nullptr && prod->st.result.ready);
          args.arg2 = prod->st.result;
        }
      }
      args_at[static_cast<std::size_t>(k)] = args;
      if (config_.store_forwarding) {
        mem_window[static_cast<std::size_t>(k)] = MakeMemWindowEntry(e.st, args);
      }
    }
    if (config_.num_alus > 0) {
      alu_requests.assign(static_cast<std::size_t>(live), 0);
      int occupied = 0;
      for (int k = 0; k < live; ++k) {
        const Station& st = ent(k).st;
        alu_requests[static_cast<std::size_t>(k)] =
            WantsAlu(st, args_at[static_cast<std::size_t>(k)]);
        if (st.issued && !st.finished && NeedsAlu(st.inst().op)) {
          ++occupied;
        }
      }
      alu_grant.resize(static_cast<std::size_t>(live));
      datapath::AluScheduler::GrantAcyclicInto(
          alu_requests, std::max(0, config_.num_alus - occupied), alu_grant);
    }

    // --- Phase 3b: execute. ---
    for (int k = 0; k < live && k < count; ++k) {
      Entry& e = ent(k);
      const std::size_t ks = static_cast<std::size_t>(k);
      StepContext ctx;
      ctx.prev_stores_done = prev_stores_done[ks] != 0;
      ctx.prev_loads_done = prev_loads_done[ks] != 0;
      ctx.committed_ok = prev_confirmed[ks] != 0;
      ctx.alu_granted = config_.num_alus == 0 || alu_grant[ks] != 0;
      ctx.forwarding_enabled = config_.store_forwarding;
      if (ctx.forwarding_enabled && e.st.inst().op == isa::Opcode::kLoad &&
          mem_window[ks].addr_known) {
        const auto decision = ResolveLoadForwarding(mem_window, ks);
        ctx.load_can_proceed = decision.can_proceed;
        ctx.load_forward = decision.forward;
        ctx.forward_value = decision.value;
      }
      const bool step_was_started = e.st.started();
      const bool step_was_finished = e.st.finished;
      const bool mispredicted = StepStation(
          e.st, args_at[ks], ctx, config_.latencies, mem, cycle, k, e.st.seq,
          inflight, result.stats);
      tel.OnStep(cycle, (head + k) % n, e.st, step_was_started,
                 step_was_finished);
      if (mispredicted) {
        ++result.stats.mispredictions;
        if (tel.trace_on() || tel.metrics_on()) {
          for (int m = k + 1; m < count; ++m) {
            tel.OnSquash(cycle, (head + m) % n, ent(m).st);
          }
        }
        result.stats.squashed_instructions +=
            static_cast<std::uint64_t>(count - (k + 1));
        count = k + 1;
        rebuild_rename();
        fetch.Redirect(e.st.actual_next_pc);
      }
    }

    // --- Phase 4: in-order commit. ---
    while (count > 0 && ent(0).st.finished) {
      Entry& e = ent(0);
      Station& st = e.st;
      const isa::Instruction& inst = st.inst();
      if (isa::WritesRd(inst.op)) {
        assert(st.result.ready);
        regs[inst.rd] = st.result.value;
        if (rename[inst.rd] == st.seq) rename[inst.rd].reset();
        // The producer leaves the window: convert consumers' renamed
        // dependencies into immediate values so they can still wake up.
        for (int k = 1; k < count; ++k) {
          Entry& c = ent(k);
          if (c.dep1_inflight && c.dep1_seq == st.seq) {
            c.dep1_inflight = false;
            c.val1 = st.result.value;
          }
          if (c.dep2_inflight && c.dep2_seq == st.seq) {
            c.dep2_inflight = false;
            c.val2 = st.result.value;
          }
        }
      }
      if (isa::IsControlFlow(inst.op)) {
        fetch.NotifyOutcome(st.fetched.pc, st.actual_taken);
      }
      ++result.committed;
      tel.OnCommit(cycle, head, st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      head = (head + 1) % n;
      --count;
      if (was_halt) {
        done = true;
        result.halted = true;
        break;
      }
    }

    // --- Phase 5: fetch and rename. ---
    if (!done) {
      const int free = n - count;
      if (free == 0) ++result.stats.window_full_cycles;
      const int width = std::min(config_.EffectiveFetchWidth(), free);
      fetch.FetchCycle(width, fetch_batch);
      if (fetch_batch.empty() && free > 0 && count > 0 && !fetch.stalled()) {
        ++result.stats.fetch_stall_cycles;
      }
      for (const auto& f : fetch_batch) {
        const int slot = (head + count) % n;
        Entry& e = window[static_cast<std::size_t>(slot)];
        FillStation(e.st, f, next_seq++);
        e.dep1_inflight = false;
        e.dep1_seq = 0;
        e.val1 = 0;
        e.dep2_inflight = false;
        e.dep2_seq = 0;
        e.val2 = 0;
        const isa::Instruction& inst = f.inst;
        if (isa::ReadsRs1(inst.op)) {
          if (rename[inst.rs1].has_value()) {
            e.dep1_inflight = true;
            e.dep1_seq = *rename[inst.rs1];
          } else {
            e.val1 = regs[inst.rs1];
          }
        }
        if (isa::ReadsRs2(inst.op)) {
          if (rename[inst.rs2].has_value()) {
            e.dep2_inflight = true;
            e.dep2_seq = *rename[inst.rs2];
          } else {
            e.val2 = regs[inst.rs2];
          }
        }
        if (isa::WritesRd(inst.op)) rename[inst.rd] = e.st.seq;
        tel.OnFetch(cycle, slot, e.st);
        if (e.dep1_inflight) {
          tel.OnRename(cycle, slot, e.st, e.dep1_seq);
        }
        if (e.dep2_inflight) {
          tel.OnRename(cycle, slot, e.st, e.dep2_seq);
        }
        ++count;
      }
      if (fetch.stalled() && count == 0) {
        done = true;
        result.halted = true;
      }
    }
  }

  result.regs = regs;
  result.memory = mem.store().Snapshot();
  tel.FinalizeMemory(result.stats, mem, fetch);
  return result;
}

namespace {

/// Bit-packed word-parallel twin of RunReference. Cycle-for-cycle and
/// byte-for-byte identical output (the differential tests assert this), but
/// the per-cycle cost is O(n/64) words plus work proportional to what
/// actually happens:
///  * the Figure 5 ordering conditions and their prefixes are PackedBits
///    words (64 stations per op) instead of byte loops;
///  * wake-up is event-driven through per-producer consumer lists instead
///    of an O(n) scan consulting an O(n) finished-sequence list;
///  * only stations that can act this cycle are stepped -- the must-visit
///    set is composed from the packed flags exactly mirroring
///    StepStation's no-op predicate, so skipping is provably identical;
///  * commit converts consumers through the producer's list, and memory
///    responses find their station through a seq->slot map.
/// Canonical state (window entries, rename map, fetch, memory, inflight)
/// is maintained exactly as the reference loop does, so checkpoints saved
/// from either path are interchangeable.
RunResult RunPackedIdeal(const CoreConfig& config_,
                         const isa::Program& program) {
  const int n = config_.window_size;
  const int L = config_.num_regs;
  const int num_words = datapath::PackedWordCount(n);
  memory::MemorySystem mem(config_.mem, n);
  mem.Reset(program.initial_memory());
  FetchEngine fetch(&program, config_, MakePredictor(config_, program));

  std::vector<Entry> window(static_cast<std::size_t>(n));
  int head = 0;
  int count = 0;
  std::vector<isa::Word> regs(static_cast<std::size_t>(L), 0);
  std::vector<std::optional<std::uint64_t>> rename(
      static_cast<std::size_t>(L));
  std::uint64_t next_seq = 0;
  InflightMap inflight;
  RunResult result;
  bool done = false;

  CoreTelemetry tel(config_);
  const bool fwd = config_.store_forwarding;

  // Slot of the youngest in-flight writer per register, maintained next to
  // `rename` (meaningful only while rename[r] holds a value). Lets the fill
  // path register consumers against their producer's slot without a
  // seq->slot map lookup.
  std::vector<int> rename_slot(static_cast<std::size_t>(L), -1);

  const auto ent = [&](int k) -> Entry& {
    return window[static_cast<std::size_t>((head + k) % n)];
  };
  const auto rebuild_rename = [&] {
    for (auto& r : rename) r.reset();
    for (int k = 0; k < count; ++k) {
      const Entry& e = ent(k);
      if (isa::WritesRd(e.st.inst().op)) {
        rename[e.st.inst().rd] = e.st.seq;
        rename_slot[e.st.inst().rd] = (head + k) % n;
      }
    }
  };

  // --- Packed acceleration structures (derived from the canonical state,
  // never checkpointed). All are slot-indexed; program position k lives at
  // slot (head + k) % n. ---
  datapath::PackedBits valid_b(n), finished_b(n), issued_b(n), resolved_b(n),
      store_b(n), load_b(n), cf_b(n), alu_like_b(n), needs_alu_b(n),
      mem_sub_b(n), args_ready_b(n);
  datapath::PackedBits cond(n), psd(n), pld(n), pcf(n), requests(n),
      grants(n);
  std::vector<datapath::ResolvedArgs> args_cache(static_cast<std::size_t>(n));
  // consumers[p]: (consumer slot, which arg) pairs registered at rename
  // time; entries are verified against the consumer's dep seq at use, so
  // stale registrations from squashed-and-refilled slots are harmless.
  std::vector<std::vector<std::pair<int, std::uint8_t>>> consumers(
      static_cast<std::size_t>(n));
  std::unordered_map<std::uint64_t, int> seq_slot;
  seq_slot.reserve(static_cast<std::size_t>(2 * n));
  // Stations that finished this cycle; their consumers' cached args are
  // refreshed at end of cycle (visible next cycle, like the reference
  // loop's start-of-cycle snapshot).
  std::vector<std::pair<int, std::uint64_t>> finish_events;
  finish_events.reserve(static_cast<std::size_t>(n));
  datapath::AluScheduler sched(n);
  std::vector<FetchedInstr> fetch_batch;
  // Store forwarding: slot-indexed disambiguation window, refreshed
  // event-driven (a slot's entry changes only when its station steps, its
  // memory op completes, its cached args move, or the slot turns over).
  datapath::PackedBits mw_stale(n);
  std::vector<MemWindowEntry> mem_window_slot;
  if (fwd) mem_window_slot.resize(static_cast<std::size_t>(n));

  const auto recompute_args_ready = [&](int slot, const Entry& e) {
    const isa::Instruction& inst = e.st.inst();
    const auto& args = args_cache[static_cast<std::size_t>(slot)];
    const bool r1 = !isa::ReadsRs1(inst.op) || args.arg1.ready;
    const bool r2 = !isa::ReadsRs2(inst.op) || args.arg2.ready;
    args_ready_b.SetTo(slot, r1 && r2);
  };
  const auto clear_slot_bits = [&](int slot) {
    valid_b.Clear(slot);
    finished_b.Clear(slot);
    issued_b.Clear(slot);
    resolved_b.Clear(slot);
    store_b.Clear(slot);
    load_b.Clear(slot);
    cf_b.Clear(slot);
    alu_like_b.Clear(slot);
    needs_alu_b.Clear(slot);
    mem_sub_b.Clear(slot);
    args_ready_b.Clear(slot);
    args_cache[static_cast<std::size_t>(slot)] = {};
    consumers[static_cast<std::size_t>(slot)].clear();
    mw_stale.Clear(slot);
    if (fwd) mem_window_slot[static_cast<std::size_t>(slot)] = MemWindowEntry{};
  };
  const auto sync_station_bits = [&](int slot, const Station& st) {
    issued_b.SetTo(slot, st.issued);
    finished_b.SetTo(slot, st.finished);
    resolved_b.SetTo(slot, st.resolved);
    mem_sub_b.SetTo(slot, st.mem_submitted);
    if (fwd) mw_stale.Set(slot);
  };
  // Registers a freshly filled/restored slot's classification bits and
  // seeds its cached args (immediates now; in-flight producers that have
  // already finished deliver immediately, matching the snapshot the
  // reference wake-up loop would see next cycle). @p prod1 / @p prod2 are
  // the producers' slots when the corresponding dep is in flight: the fill
  // path passes rename_slot (a fresh dep is always the youngest writer),
  // the restore path resolves arbitrary dep seqs through its own scan.
  const auto register_slot = [&](int slot, int prod1, int prod2) {
    Entry& e = window[static_cast<std::size_t>(slot)];
    const isa::Instruction& inst = e.st.inst();
    valid_b.Set(slot);
    sync_station_bits(slot, e.st);
    const bool is_load = inst.op == isa::Opcode::kLoad;
    const bool is_store = inst.op == isa::Opcode::kStore;
    load_b.SetTo(slot, is_load);
    store_b.SetTo(slot, is_store);
    cf_b.SetTo(slot, isa::IsControlFlow(inst.op));
    alu_like_b.SetTo(slot, !is_load && !is_store);
    needs_alu_b.SetTo(slot, NeedsAlu(inst.op));
    auto& args = args_cache[static_cast<std::size_t>(slot)];
    args = {};
    if (isa::ReadsRs1(inst.op)) {
      if (!e.dep1_inflight) {
        args.arg1 = {e.val1, true};
      } else {
        assert(prod1 >= 0 &&
               window[static_cast<std::size_t>(prod1)].st.seq == e.dep1_seq);
        consumers[static_cast<std::size_t>(prod1)].emplace_back(slot, 1);
        const Station& prod = window[static_cast<std::size_t>(prod1)].st;
        if (prod.finished) args.arg1 = prod.result;
      }
    }
    if (isa::ReadsRs2(inst.op)) {
      if (!e.dep2_inflight) {
        args.arg2 = {e.val2, true};
      } else {
        assert(prod2 >= 0 &&
               window[static_cast<std::size_t>(prod2)].st.seq == e.dep2_seq);
        consumers[static_cast<std::size_t>(prod2)].emplace_back(slot, 2);
        const Station& prod = window[static_cast<std::size_t>(prod2)].st;
        if (prod.finished) args.arg2 = prod.result;
      }
    }
    recompute_args_ready(slot, e);
  };

  CheckpointSession ckpt(config_, ProcessorKind::kIdeal, program);
  const auto save_state = [&](persist::Encoder& e) {
    e.I32(head);
    e.I32(count);
    for (int k = 0; k < count; ++k) {
      const Entry& en = ent(k);
      SaveStation(e, en.st);
      e.Bool(en.dep1_inflight);
      e.U64(en.dep1_seq);
      e.U32(en.val1);
      e.Bool(en.dep2_inflight);
      e.U64(en.dep2_seq);
      e.U32(en.val2);
    }
    for (const isa::Word r : regs) e.U32(r);
    for (const auto& r : rename) {
      e.Bool(r.has_value());
      e.U64(r.has_value() ? *r : 0);
    }
    e.U64(next_seq);
    SaveInflight(e, inflight);
    SavePartialResult(e, result);
    fetch.SaveState(e);
    mem.SaveState(e);
    SaveTelemetrySlots(e, config_);
  };
  std::uint64_t start_cycle = 0;
  if (ckpt.resume() != nullptr) {
    persist::Decoder d(ckpt.resume()->state);
    head = d.I32();
    count = d.I32();
    if (head < 0 || head >= n || count < 0 || count > n) {
      throw persist::FormatError("ideal window geometry out of range");
    }
    for (int k = 0; k < count; ++k) {
      Entry& en = ent(k);
      RestoreStation(d, en.st);
      en.dep1_inflight = d.Bool();
      en.dep1_seq = d.U64();
      en.val1 = d.U32();
      en.dep2_inflight = d.Bool();
      en.dep2_seq = d.U64();
      en.val2 = d.U32();
    }
    for (isa::Word& r : regs) r = d.U32();
    for (auto& r : rename) {
      const bool has = d.Bool();
      const std::uint64_t seq = d.U64();
      if (has) {
        r = seq;
      } else {
        r.reset();
      }
    }
    next_seq = d.U64();
    RestoreInflight(d, inflight);
    RestorePartialResult(d, result);
    fetch.RestoreState(d);
    mem.RestoreState(d);
    RestoreTelemetrySlots(d, config_);
    if (!d.AtEnd()) {
      throw persist::FormatError("trailing checkpoint bytes");
    }
    start_cycle = ckpt.resume()->header.cycle;
    // Rebuild the packed shadow from the canonical window. A restored dep
    // may point at any older writer (not just the youngest), so producer
    // slots are resolved by scanning the window -- restore-only cost.
    const auto slot_of_seq = [&](std::uint64_t seq) {
      for (int k = 0; k < count; ++k) {
        if (ent(k).st.seq == seq) return (head + k) % n;
      }
      return -1;
    };
    for (int k = 0; k < count; ++k) {
      const Entry& en = ent(k);
      const isa::Opcode op = en.st.inst().op;
      if (op == isa::Opcode::kLoad || op == isa::Opcode::kStore) {
        seq_slot.emplace(en.st.seq, (head + k) % n);
      }
    }
    for (int k = 0; k < count; ++k) {
      const int slot = (head + k) % n;
      Entry& en = window[static_cast<std::size_t>(slot)];
      register_slot(slot,
                    en.dep1_inflight ? slot_of_seq(en.dep1_seq) : -1,
                    en.dep2_inflight ? slot_of_seq(en.dep2_seq) : -1);
    }
    for (int r = 0; r < L; ++r) {
      if (rename[static_cast<std::size_t>(r)].has_value()) {
        rename_slot[static_cast<std::size_t>(r)] =
            slot_of_seq(*rename[static_cast<std::size_t>(r)]);
      }
    }
  }

  const std::uint64_t tail_mask = datapath::PackedTailMask(n);
  const int last_word = num_words - 1;

  for (std::uint64_t cycle = start_cycle; cycle < config_.max_cycles && !done;
       ++cycle) {
    if (ckpt.MaybeSave(cycle, save_state)) break;
    if (config_.cancel && (cycle & 1023u) == 0 &&
        config_.cancel->load(std::memory_order_relaxed)) {
      break;  // Abandoned run: halted stays false.
    }
    result.cycles = cycle + 1;
    tel.OnCycle(cycle, count);

    // --- Phase 1: the Figure 5 ordering prefixes from end-of-last-cycle
    // state. Dead slots contribute vacuously true conditions, so the
    // cyclic prefix from the head equals the reference loop's acyclic
    // prefix over live positions; the head's own lane is forced true just
    // as the acyclic prefix's position 0 is. ---
    const bool any_mem = store_b.AnySet() || load_b.AnySet();
    if (count > 0 && any_mem) {
      for (int w = 0; w < num_words; ++w) {
        cond.word(w) = ~(store_b.word(w) & ~finished_b.word(w));
      }
      cond.word(last_word) &= tail_mask;
      datapath::PackedAllPrecedingSatisfyInto(cond, head, psd);
      psd.Set(head);
      for (int w = 0; w < num_words; ++w) {
        cond.word(w) = ~(load_b.word(w) & ~finished_b.word(w));
      }
      cond.word(last_word) &= tail_mask;
      datapath::PackedAllPrecedingSatisfyInto(cond, head, pld);
      pld.Set(head);
    } else {
      psd.SetAll();
      pld.SetAll();
    }
    if (count > 0 && store_b.AnySet()) {
      // Branch confirmation only gates stores; skip the prefix otherwise.
      for (int w = 0; w < num_words; ++w) {
        cond.word(w) = ~(cf_b.word(w) & ~resolved_b.word(w));
      }
      cond.word(last_word) &= tail_mask;
      datapath::PackedAllPrecedingSatisfyInto(cond, head, pcf);
      pcf.Set(head);
    }

    // --- Phase 2: memory responses (seq->slot map instead of a window
    // scan). ---
    mem.Tick();
    for (const auto& resp : mem.DrainCompleted()) {
      const auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;
      const MemTag tag = it->second;
      inflight.erase(it);
      const auto sit = seq_slot.find(tag.tag);
      if (sit == seq_slot.end()) continue;  // Committed or squashed.
      const int slot = sit->second;
      Entry& e = window[static_cast<std::size_t>(slot)];
      assert(e.st.seq == tag.tag);
      const bool entry_was_finished = e.st.finished;
      ApplyMemResponse(e.st, resp, cycle);
      finished_b.Set(slot);
      if (fwd) mw_stale.Set(slot);
      finish_events.emplace_back(slot, e.st.seq);
      tel.OnMemComplete(cycle, slot, e.st, entry_was_finished);
    }

    // --- Phase 3a: refresh moved disambiguation-window entries (after
    // phase 2, so this cycle's memory completions are visible, matching
    // the reference loop's per-cycle rebuild), then ALU scheduling. ---
    if (fwd) {
      ForEachSetBit(mw_stale, [&](int slot) {
        mem_window_slot[static_cast<std::size_t>(slot)] = MakeMemWindowEntry(
            window[static_cast<std::size_t>(slot)].st,
            args_cache[static_cast<std::size_t>(slot)]);
      });
      mw_stale.ClearAll();
    }
    const bool have_grants = config_.num_alus > 0;
    if (have_grants) {
      int occupied = 0;
      for (int w = 0; w < num_words; ++w) {
        occupied += std::popcount(needs_alu_b.word(w) & issued_b.word(w) &
                                  ~finished_b.word(w));
        requests.word(w) = valid_b.word(w) & ~issued_b.word(w) &
                           ~finished_b.word(w) & needs_alu_b.word(w) &
                           args_ready_b.word(w);
      }
      sched.PackedGrantInto(requests, std::max(0, config_.num_alus - occupied),
                            head, grants);
    }

    // --- Phase 3b: execute only stations that can act, in program order.
    // The must-visit mask mirrors StepStation's no-op predicate exactly:
    // a skipped station would have returned without touching anything. ---
    if (count > 0) {
      int pos = head;
      int processed = 0;
      bool squashed = false;
      while (processed < count && !squashed) {
        const int w = pos >> 6;
        const int lo = pos & 63;
        int hi = std::min(64, n - (w << 6));
        hi = std::min(hi, lo + (count - processed));
        const std::uint64_t grant_ok =
            have_grants ? (grants.word(w) | ~needs_alu_b.word(w)) : ~0ULL;
        // With store forwarding on, a load's gate is its disambiguation
        // decision rather than the prev-stores-done prefix, so the load
        // term drops psd (an undecidable load is visited and no-ops).
        const std::uint64_t load_gate = fwd ? ~0ULL : psd.word(w);
        std::uint64_t mv =
            valid_b.word(w) & ~finished_b.word(w) &
            ((alu_like_b.word(w) &
              (issued_b.word(w) | (args_ready_b.word(w) & grant_ok))) |
             (load_b.word(w) & ~mem_sub_b.word(w) & args_ready_b.word(w) &
              load_gate) |
             (store_b.word(w) & ~mem_sub_b.word(w) & args_ready_b.word(w) &
              pld.word(w) & psd.word(w) & pcf.word(w)));
        const int width = hi - lo;
        mv &= (width == 64 ? ~0ULL : ((1ULL << width) - 1)) << lo;
        while (mv != 0) {
          const int b = std::countr_zero(mv);
          mv &= mv - 1;
          const int slot = (w << 6) + b;
          int k = slot - head;
          if (k < 0) k += n;
          Entry& e = window[static_cast<std::size_t>(slot)];
          StepContext ctx;
          ctx.prev_stores_done = psd.Test(slot);
          ctx.prev_loads_done = pld.Test(slot);
          ctx.committed_ok = !store_b.Test(slot) || pcf.Test(slot);
          ctx.alu_granted = !have_grants || grants.Test(slot);
          ctx.forwarding_enabled = fwd;
          if (fwd && load_b.Test(slot) &&
              mem_window_slot[static_cast<std::size_t>(slot)].addr_known) {
            const auto decision = ResolveLoadForwardingMapped(
                [&](std::size_t kk) -> const MemWindowEntry& {
                  return mem_window_slot[static_cast<std::size_t>(
                      (head + static_cast<int>(kk)) % n)];
                },
                static_cast<std::size_t>(k));
            ctx.load_can_proceed = decision.can_proceed;
            ctx.load_forward = decision.forward;
            ctx.forward_value = decision.value;
          }
          const bool step_was_started = e.st.started();
          const bool step_was_finished = e.st.finished;
          const bool mispredicted =
              StepStation(e.st, args_cache[static_cast<std::size_t>(slot)],
                          ctx, config_.latencies, mem, cycle, k, e.st.seq,
                          inflight, result.stats);
          tel.OnStep(cycle, slot, e.st, step_was_started, step_was_finished);
          sync_station_bits(slot, e.st);
          if (e.st.finished) finish_events.emplace_back(slot, e.st.seq);
          if (mispredicted) {
            ++result.stats.mispredictions;
            result.stats.squashed_instructions +=
                static_cast<std::uint64_t>(count - (k + 1));
            for (int m = k + 1; m < count; ++m) {
              const int s2 = (head + m) % n;
              Station& victim = window[static_cast<std::size_t>(s2)].st;
              tel.OnSquash(cycle, s2, victim);
              seq_slot.erase(victim.seq);
              clear_slot_bits(s2);
            }
            count = k + 1;
            rebuild_rename();
            fetch.Redirect(e.st.actual_next_pc);
            squashed = true;
            break;
          }
        }
        processed += hi - lo;
        pos = (w << 6) + hi;
        if (pos >= n) pos = 0;
      }
    }

    // --- Phase 4: in-order commit; consumers convert via the producer's
    // list instead of a window scan. ---
    while (count > 0 && window[static_cast<std::size_t>(head)].st.finished) {
      Entry& e = window[static_cast<std::size_t>(head)];
      Station& st = e.st;
      const isa::Instruction& inst = st.inst();
      if (isa::WritesRd(inst.op)) {
        assert(st.result.ready);
        regs[inst.rd] = st.result.value;
        if (rename[inst.rd] == st.seq) rename[inst.rd].reset();
        for (const auto& [cslot, which] :
             consumers[static_cast<std::size_t>(head)]) {
          if (!valid_b.Test(cslot)) continue;
          Entry& c = window[static_cast<std::size_t>(cslot)];
          auto& cargs = args_cache[static_cast<std::size_t>(cslot)];
          if (which == 1 && c.dep1_inflight && c.dep1_seq == st.seq) {
            c.dep1_inflight = false;
            c.val1 = st.result.value;
            cargs.arg1 = {st.result.value, true};
            recompute_args_ready(cslot, c);
            if (fwd) mw_stale.Set(cslot);
          } else if (which == 2 && c.dep2_inflight && c.dep2_seq == st.seq) {
            c.dep2_inflight = false;
            c.val2 = st.result.value;
            cargs.arg2 = {st.result.value, true};
            recompute_args_ready(cslot, c);
            if (fwd) mw_stale.Set(cslot);
          }
        }
      }
      if (isa::IsControlFlow(inst.op)) {
        fetch.NotifyOutcome(st.fetched.pc, st.actual_taken);
      }
      ++result.committed;
      tel.OnCommit(cycle, head, st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      seq_slot.erase(st.seq);
      clear_slot_bits(head);
      head = (head + 1) % n;
      --count;
      if (was_halt) {
        done = true;
        result.halted = true;
        break;
      }
    }

    // --- Phase 5: fetch and rename. ---
    if (!done) {
      const int free = n - count;
      if (free == 0) ++result.stats.window_full_cycles;
      const int width = std::min(config_.EffectiveFetchWidth(), free);
      fetch.FetchCycle(width, fetch_batch);
      if (fetch_batch.empty() && free > 0 && count > 0 && !fetch.stalled()) {
        ++result.stats.fetch_stall_cycles;
      }
      for (const auto& f : fetch_batch) {
        const int slot = (head + count) % n;
        Entry& e = window[static_cast<std::size_t>(slot)];
        FillStation(e.st, f, next_seq++);
        e.dep1_inflight = false;
        e.dep1_seq = 0;
        e.val1 = 0;
        e.dep2_inflight = false;
        e.dep2_seq = 0;
        e.val2 = 0;
        const isa::Instruction& inst = f.inst;
        // Producer slots are captured with the dep seqs (before a
        // same-register write below retargets rename): a fresh dep is
        // always the current youngest writer.
        int prod1 = -1;
        int prod2 = -1;
        if (isa::ReadsRs1(inst.op)) {
          if (rename[inst.rs1].has_value()) {
            e.dep1_inflight = true;
            e.dep1_seq = *rename[inst.rs1];
            prod1 = rename_slot[inst.rs1];
          } else {
            e.val1 = regs[inst.rs1];
          }
        }
        if (isa::ReadsRs2(inst.op)) {
          if (rename[inst.rs2].has_value()) {
            e.dep2_inflight = true;
            e.dep2_seq = *rename[inst.rs2];
            prod2 = rename_slot[inst.rs2];
          } else {
            e.val2 = regs[inst.rs2];
          }
        }
        if (isa::WritesRd(inst.op)) {
          rename[inst.rd] = e.st.seq;
          rename_slot[inst.rd] = slot;
        }
        clear_slot_bits(slot);
        // Only memory ops enter the seq->slot map (its sole steady-state
        // consumer is the memory-response path), keeping the allocator out
        // of the ALU fill path.
        if (inst.op == isa::Opcode::kLoad || inst.op == isa::Opcode::kStore) {
          seq_slot.emplace(e.st.seq, slot);
        }
        register_slot(slot, prod1, prod2);
        tel.OnFetch(cycle, slot, e.st);
        if (e.dep1_inflight) {
          tel.OnRename(cycle, slot, e.st, e.dep1_seq);
        }
        if (e.dep2_inflight) {
          tel.OnRename(cycle, slot, e.st, e.dep2_seq);
        }
        ++count;
      }
      if (fetch.stalled() && count == 0) {
        done = true;
        result.halted = true;
      }
    }

    // --- End of cycle: deliver this cycle's finish events to registered
    // consumers. Running after commit/fetch makes the refreshed args
    // visible exactly from the next cycle on, matching the reference
    // loop's start-of-cycle readiness snapshot, and leaves no pending
    // event state for checkpoints to carry. ---
    for (const auto& [slot, seq] : finish_events) {
      if (!valid_b.Test(slot)) continue;  // Committed/squashed this cycle.
      const Station& prod = window[static_cast<std::size_t>(slot)].st;
      if (prod.seq != seq || !prod.finished) continue;
      for (const auto& [cslot, which] :
           consumers[static_cast<std::size_t>(slot)]) {
        if (!valid_b.Test(cslot)) continue;
        Entry& c = window[static_cast<std::size_t>(cslot)];
        auto& cargs = args_cache[static_cast<std::size_t>(cslot)];
        if (which == 1 && c.dep1_inflight && c.dep1_seq == seq) {
          cargs.arg1 = prod.result;
          recompute_args_ready(cslot, c);
          if (fwd) mw_stale.Set(cslot);
        } else if (which == 2 && c.dep2_inflight && c.dep2_seq == seq) {
          cargs.arg2 = prod.result;
          recompute_args_ready(cslot, c);
          if (fwd) mw_stale.Set(cslot);
        }
      }
    }
    finish_events.clear();
  }

  result.regs = regs;
  result.memory = mem.store().Snapshot();
  tel.FinalizeMemory(result.stats, mem, fetch);
  return result;
}

}  // namespace

}  // namespace ultra::core
