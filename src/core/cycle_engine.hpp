// CycleEngine and PackedLanes: the phases every cycle loop shares.
//
// The paper's three processors and the idealized baseline are one
// out-of-order machine that differs only in how operands reach the stations
// and how the window refills (Sections 2-6). Each core's Run() keeps exactly
// that -- its window discipline and lane-to-station map, its operand
// network, its commit or retire rule, its checker recompute and distance
// metric, and the head of its checkpoint -- and calls the engine for the
// rest: the cycle prologue, the memory-response drain, one station step,
// the squash of a younger suffix, forced mispredicts, the fetch phase, the
// checkpoint's common tail and finalization. The packed loops of the three
// scalable processors share one operand network on top of the engine,
// WriterMapNetwork (writer_map_network.hpp), which runs their fault
// injection, checker and execute walk through the phases here.
//
// Both the packed loops and the byte-lane reference loops call the same
// phase functions, so the golden corpus (tests/golden) guards this file for
// every evaluation path at once. Every per-cycle and per-station entry
// point is an inline template taking the core's callables, so nothing on
// the hot path goes through a std::function or a virtual call.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/checkpoint_util.hpp"
#include "core/exec.hpp"
#include "core/fetch.hpp"
#include "core/processor.hpp"
#include "core/station.hpp"
#include "core/telemetry_hooks.hpp"
#include "datapath/bitset.hpp"
#include "datapath/scheduler.hpp"
#include "datapath/sequencing.hpp"
#include "fault/fault.hpp"

namespace ultra::core {

/// The Figure 5 ordering flags and the ALU grant one station steps with.
struct StepOrder {
  bool stores_done = false;
  bool loads_done = false;
  bool confirmed = false;
  bool alu_granted = true;
};

/// The packed flag words of a window, one lane per station (or per program
/// position, when the core's lanes are position-indexed), and the three
/// word-level algorithms the packed loops share: the Figure 5 ordering
/// prefixes, the packed ALU grants and the must-visit word. A zero-lane
/// instance allocates nothing, which keeps the byte-lane loops free of it.
class PackedLanes {
 public:
  explicit PackedLanes(int lanes) : n_(lanes) {
    for (datapath::PackedBits* p :
         {&valid, &finished, &issued, &resolved, &mem_submitted, &load, &store,
          &control, &alu_like, &needs_alu, &args_ready, &stall, &stale,
          &mw_stale, &psd, &pld, &pcf, &grant, &cond_, &req_}) {
      p->Assign(lanes);
    }
  }

  // Class and progress flags, kept equal to the stations' own.
  datapath::PackedBits valid, finished, issued, resolved, mem_submitted, load,
      store, control, alu_like, needs_alu, args_ready;
  // Stations serving an injected stall; the operand network's re-resolve
  // set and memory-window refresh set.
  datapath::PackedBits stall, stale, mw_stale;
  // This cycle's prefixes (prev stores done, prev loads done, prev control
  // transfers confirmed) and ALU grants.
  datapath::PackedBits psd, pld, pcf, grant;

  /// Lane @p i now holds @p st: sets its class flags and syncs its progress.
  void Fill(int i, const Station& st) {
    const isa::Opcode op = st.inst().op;
    valid.Set(i);
    if (op == isa::Opcode::kLoad) {
      load.Set(i);
    } else if (op == isa::Opcode::kStore) {
      store.Set(i);
    } else {
      alu_like.Set(i);
    }
    if (isa::IsControlFlow(op)) control.Set(i);
    if (NeedsAlu(op)) needs_alu.Set(i);
    Sync(i, st);
  }

  /// The progress flags after @p st stepped or its memory op completed.
  void Sync(int i, const Station& st) {
    issued.SetTo(i, st.issued);
    finished.SetTo(i, st.finished);
    resolved.SetTo(i, st.resolved);
    mem_submitted.SetTo(i, st.mem_submitted);
  }

  /// Clears lane @p i's class and progress flags.
  void Clear(int i) {
    for (datapath::PackedBits* p : Flags()) p->Clear(i);
  }
  /// Clears every lane's class and progress flags.
  void ClearAll() {
    for (datapath::PackedBits* p : Flags()) p->ClearAll();
  }
  /// Renumbers every lane down by @p shift (the class and progress flags,
  /// the stall lanes and the stale set).
  void ShiftDown(int shift) {
    for (datapath::PackedBits* p : Flags()) {
      datapath::PackedShiftDown(*p, shift);
    }
    datapath::PackedShiftDown(stall, shift);
    datapath::PackedShiftDown(stale, shift);
  }

  /// The Figure 5 prefixes from end-of-last-cycle state, cyclic from lane
  /// @p oldest (whose own lanes are forced true) or acyclic when @p oldest
  /// is negative. Dead lanes contribute vacuously true conditions. The
  /// prefixes gate only loads and stores, so a window without one skips
  /// them (psd/pld read all-true, pcf keeps stale lanes no store reads).
  void OrderPrefixes(int oldest) {
    const bool any_store = store.AnySet();
    if (any_store || load.AnySet()) {
      Prefix(store, finished, oldest, psd);
      Prefix(load, finished, oldest, pld);
    } else {
      psd.SetAll();
      pld.SetAll();
    }
    if (any_store) Prefix(control, resolved, oldest, pcf);
  }

  /// Grants up to @p num_alus shared ALUs, less the ones busy, to the
  /// requesting lanes below @p limit, oldest first: cyclic from lane
  /// @p oldest, or acyclic when it is negative.
  void GrantAlus(int num_alus, int oldest, int limit) {
    int occupied = 0;
    for (int w = 0; w < req_.num_words(); ++w) {
      const std::uint64_t live = LiveMask(w, limit);
      occupied += std::popcount(needs_alu.word(w) & issued.word(w) &
                                ~finished.word(w) & live);
      req_.word(w) = needs_alu.word(w) & ~issued.word(w) & ~finished.word(w) &
                     args_ready.word(w) & live;
    }
    const int available = std::max(0, num_alus - occupied);
    if (oldest >= 0) {
      datapath::AluScheduler(n_).PackedGrantInto(req_, available, oldest,
                                                 grant);
    } else {
      datapath::AluScheduler::PackedGrantAcyclicInto(req_, available, grant);
    }
  }

  [[nodiscard]] StepOrder OrderAt(int i, bool have_grants) const {
    return {psd.Test(i), pld.Test(i), !store.Test(i) || pcf.Test(i),
            !have_grants || grant.Test(i)};
  }

  /// Word @p w of the lanes whose StepStation call would act -- the mask
  /// mirrors its no-op predicate exactly, so skipping the rest is identical
  /// -- plus stalled lanes, which sit the cycle out and count it down
  /// (only unfinished ones with @p stall_unfinished). With store forwarding
  /// on, a load's gate is its disambiguation decision rather than the
  /// prev-stores-done prefix, so an undecidable load is visited and no-ops.
  [[nodiscard]] std::uint64_t MustVisit(int w, bool forwarding,
                                        bool have_grants,
                                        bool stall_unfinished) const {
    const std::uint64_t grant_ok =
        have_grants ? (grant.word(w) | ~needs_alu.word(w)) : ~0ULL;
    const std::uint64_t load_gate = forwarding ? ~0ULL : psd.word(w);
    const std::uint64_t unfinished = valid.word(w) & ~finished.word(w);
    const std::uint64_t ready = args_ready.word(w);
    const std::uint64_t acts =
        unfinished &
        ((alu_like.word(w) & (issued.word(w) | (ready & grant_ok))) |
         (load.word(w) & ~mem_submitted.word(w) & ready & load_gate) |
         (store.word(w) & ~mem_submitted.word(w) & ready & pld.word(w) &
          psd.word(w) & pcf.word(w)));
    return acts |
           (stall.word(w) & (stall_unfinished ? unfinished : valid.word(w)));
  }

  /// Calls @p visit(i) in program order for every must-visit lane among
  /// the @p count lanes from @p first, cyclic modulo the lane count. Each
  /// word's mask is taken when the walk reaches it; @p visit returns false
  /// to stop the walk (a squash).
  template <typename Visit>
  void ForEachMustVisit(int first, int count, bool forwarding,
                        bool have_grants, bool stall_unfinished,
                        Visit&& visit) const {
    int pos = first;
    int processed = 0;
    while (processed < count) {
      const int w = pos >> 6;
      const int lo = pos & 63;
      const int hi = std::min({64, n_ - (w << 6), lo + (count - processed)});
      const int width = hi - lo;
      std::uint64_t cand =
          MustVisit(w, forwarding, have_grants, stall_unfinished) &
          ((width == 64 ? ~0ULL : ((1ULL << width) - 1)) << lo);
      while (cand != 0) {
        const int i = (w << 6) + std::countr_zero(cand);
        cand &= cand - 1;
        if (!visit(i)) return;
      }
      processed += width;
      pos = (w << 6) + hi;
      if (pos >= n_) pos = 0;
    }
  }

 private:
  std::array<datapath::PackedBits*, 11> Flags() {
    return {&valid,    &finished, &issued,   &resolved,  &mem_submitted,
            &load,     &store,    &control,  &alu_like,  &needs_alu,
            &args_ready};
  }

  /// Lanes of word @p w below @p limit.
  static std::uint64_t LiveMask(int w, int limit) {
    const int lanes = limit - (w << 6);
    if (lanes <= 0) return 0;
    return lanes >= 64 ? ~0ULL : ((1ULL << lanes) - 1);
  }

  void Prefix(const datapath::PackedBits& cls, const datapath::PackedBits& done,
              int oldest, datapath::PackedBits& out) {
    const int pw = cond_.num_words();
    for (int w = 0; w < pw; ++w) cond_.word(w) = ~(cls.word(w) & ~done.word(w));
    cond_.word(pw - 1) &= datapath::PackedTailMask(n_);
    if (oldest >= 0) {
      datapath::PackedAllPrecedingSatisfyInto(cond_, oldest, out);
      out.Set(oldest);
    } else {
      datapath::PackedAllPrecedingSatisfyAcyclicInto(cond_, out);
    }
  }

  int n_;
  datapath::PackedBits cond_, req_;
};

/// The state every cycle loop declares identically, and the phases that
/// act on it. Program positions are a core's own numbering of its window
/// (from the head, from the batch start, or from the head cluster); a
/// @p slot_of callable maps a position to its station.
class CycleEngine {
 public:
  /// @p faults is false for a core that ignores fault plans (Ideal): it
  /// builds no stall counters, and its checkpoints carry no fault state.
  CycleEngine(const CoreConfig& config, ProcessorKind kind,
              const isa::Program& program, int n, bool faults)
      : config(config),
        n(n),
        forwarding(config.store_forwarding),
        stations(static_cast<std::size_t>(n)),
        mem(config.mem, n),
        fetch(&program, config, MakePredictor(config, program)),
        tel(config),
        injector(faults ? config.fault_plan.get() : nullptr),
        checker(config.checker_stride),
        fault_stall(faults ? static_cast<std::size_t>(n) : 0, 0),
        faults_(faults),
        ckpt_(config, kind, program) {
    mem.Reset(program.initial_memory());
  }

  const CoreConfig& config;
  const int n;
  const bool forwarding;
  std::vector<Station> stations;
  memory::MemorySystem mem;
  FetchEngine fetch;
  InflightMap inflight;
  RunResult result;
  CoreTelemetry tel;
  fault::FaultInjector injector;
  fault::DatapathChecker checker;
  std::vector<int> fault_stall;  // Remaining injected-stall cycles.
  std::uint64_t next_seq = 0;
  bool done = false;

  /// Bookkeeping for an instruction leaving the window in program order at
  /// @p slot: trains the predictor on a control transfer, counts and traces
  /// the commit.
  void Retire(std::uint64_t cycle, int slot, const Station& st) {
    if (isa::IsControlFlow(st.inst().op)) {
      fetch.NotifyOutcome(st.fetched.pc, st.actual_taken);
    }
    ++result.committed;
    tel.OnCommit(cycle, slot, st);
  }

  /// The halt committed (or fetch ran off the program with an empty window).
  void Halt() {
    done = true;
    result.halted = true;
  }

  /// Restores a resume checkpoint, if any: @p head(decoder) reads the
  /// core's own leading fields, the engine its common tail, then
  /// @p trailer(decoder) any core fields that follow it.
  template <typename Head, typename Trailer>
  void Restore(Head&& head, Trailer&& trailer) {
    if (ckpt_.resume() == nullptr) return;
    persist::Decoder d(ckpt_.resume()->state);
    head(d);
    next_seq = d.U64();
    RestoreInflight(d, inflight);
    RestorePartialResult(d, result);
    if (faults_) {
      for (int& s : fault_stall) s = d.I32();
      injector.RestoreState(d);
      checker.RestoreState(d);
    }
    fetch.RestoreState(d);
    mem.RestoreState(d);
    RestoreTelemetrySlots(d, config);
    trailer(d);
    if (!d.AtEnd()) throw persist::FormatError("trailing checkpoint bytes");
    start_cycle_ = ckpt_.resume()->header.cycle;
  }
  [[nodiscard]] bool resumed() const { return ckpt_.resume() != nullptr; }

  /// The first cycle to run: 0, or the resumed checkpoint's cycle.
  [[nodiscard]] std::uint64_t start_cycle() const { return start_cycle_; }

  /// The cycle prologue, as the cycle loop's condition. False once the run
  /// halted or reached max_cycles, right after a capture with
  /// stop_after_save, or when the cancel flag (polled every 1,024 cycles)
  /// is set; otherwise captures a due checkpoint (the core's @p head
  /// fields, the common tail, its @p trailer fields), counts the cycle and
  /// records the window @p occupancy.
  template <typename Head, typename Trailer>
  bool BeginCycle(std::uint64_t cycle, int occupancy, Head&& head,
                  Trailer&& trailer) {
    if (done || cycle >= config.max_cycles) return false;
    const bool stop = ckpt_.MaybeSave(cycle, [&](persist::Encoder& e) {
      head(e);
      e.U64(next_seq);
      SaveInflight(e, inflight);
      SavePartialResult(e, result);
      if (faults_) {
        for (const int s : fault_stall) e.I32(s);
        injector.SaveState(e);
        checker.SaveState(e);
      }
      fetch.SaveState(e);
      mem.SaveState(e);
      SaveTelemetrySlots(e, config);
      trailer(e);
    });
    if (stop) return false;
    if (config.cancel && (cycle & 1023u) == 0 &&
        config.cancel->load(std::memory_order_relaxed)) {
      return false;  // Abandoned run: halted stays false.
    }
    result.cycles = cycle + 1;
    tel.OnCycle(cycle, occupancy);
    return true;
  }

  /// The station of an in-flight memory tag that names its station slot,
  /// or -1 when the slot was squashed or refilled since.
  [[nodiscard]] int SlotByGeneration(const MemTag& tag) const {
    const Station& st = stations[static_cast<std::size_t>(tag.tag)];
    return st.valid && st.generation == tag.generation
               ? static_cast<int>(tag.tag)
               : -1;
  }

  /// Memory responses arriving this cycle. @p locate(tag) returns the slot
  /// the response belongs to, or -1 when its station left the window;
  /// @p applied(slot, station) runs once the response has landed.
  template <typename Locate, typename Applied>
  void DrainMemory(std::uint64_t cycle, Locate&& locate, Applied&& applied) {
    mem.Tick();
    for (const auto& resp : mem.DrainCompleted()) {
      const auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;
      const MemTag tag = it->second;
      inflight.erase(it);
      const int slot = locate(tag);
      if (slot < 0) continue;
      Station& st = stations[static_cast<std::size_t>(slot)];
      const bool was_finished = st.finished;
      ApplyMemResponse(st, resp, cycle);
      applied(slot, st);
      tel.OnMemComplete(cycle, slot, st, was_finished);
    }
  }

  /// Steps station @p st (traced as @p slot) by one cycle with its
  /// arguments @p args and ordering flags @p order. A load with a known
  /// address first decides forwarding against @p entry_at(a), the
  /// memory-window entry at age a, where it is @p age. @p leaf and @p tag
  /// are StepStation's memory leaf and in-flight tag. Returns true on a
  /// mispredict, which it counts.
  template <typename EntryAt>
  bool Step(std::uint64_t cycle, int slot, Station& st,
            const datapath::ResolvedArgs& args, const StepOrder& order,
            EntryAt&& entry_at, int age, int leaf, std::uint64_t tag) {
    StepContext ctx;
    ctx.prev_stores_done = order.stores_done;
    ctx.prev_loads_done = order.loads_done;
    ctx.committed_ok = order.confirmed;
    ctx.alu_granted = order.alu_granted;
    ctx.forwarding_enabled = forwarding;
    if (forwarding && st.inst().op == isa::Opcode::kLoad &&
        entry_at(static_cast<std::size_t>(age)).addr_known) {
      const LoadForwardDecision decision =
          ResolveLoadForwardingMapped(entry_at, static_cast<std::size_t>(age));
      ctx.load_can_proceed = decision.can_proceed;
      ctx.load_forward = decision.forward;
      ctx.forward_value = decision.value;
    }
    const bool was_started = st.started();
    const bool was_finished = st.finished;
    const bool mispredicted =
        StepStation(st, args, ctx, config.latencies, mem, cycle, leaf, tag,
                    inflight, result.stats);
    tel.OnStep(cycle, slot, st, was_started, was_finished);
    if (mispredicted) ++result.stats.mispredictions;
    return mispredicted;
  }

  /// Squashes every valid station younger than position @p keep up to
  /// @p end: each is counted (also as a fault squash when @p fault), traced
  /// and handed to @p drop(position, slot, station), which frees it. Then
  /// the window ends after @p keep and fetch restarts at @p redirect_pc.
  template <typename SlotOf, typename Drop>
  void Squash(std::uint64_t cycle, int keep, int& end, std::size_t redirect_pc,
              bool fault, SlotOf&& slot_of, Drop&& drop) {
    for (int m = keep + 1; m < end; ++m) {
      const int vi = slot_of(m);
      Station& victim = stations[static_cast<std::size_t>(vi)];
      if (!victim.valid) continue;
      ++result.stats.squashed_instructions;
      if (fault) ++result.stats.fault.squashes;
      tel.OnSquash(cycle, vi, victim);
      drop(m, vi, victim);
    }
    end = keep + 1;
    fetch.Redirect(redirect_pc);
  }

  /// Stages this cycle's fault events and applies the datapath kinds to
  /// the cached arguments @p args. A stall adds to station i's counter and
  /// calls @p stalled(i); a datapath hit calls @p hit(i).
  template <typename Stalled, typename Hit>
  void InjectFaults(std::uint64_t cycle, std::span<datapath::ResolvedArgs> args,
                    Stalled&& stalled, Hit&& hit) {
    if (!injector.active()) return;
    injector.BeginCycle(cycle);
    injector.ApplyDatapathFaults(args);
    tel.OnFaults(cycle, injector.pending());
    for (const fault::FaultEvent& e : injector.pending()) {
      const int i = e.station % n;
      if (e.kind == fault::FaultKind::kStallStation) {
        fault_stall[static_cast<std::size_t>(i)] +=
            static_cast<int>(e.payload % 8) + 1;
        stalled(i);
      } else if (fault::TargetsDatapath(e.kind)) {
        hit(i);
      }
    }
  }

  /// Runs the checker when due (kChecked only): @p recompute() overwrites
  /// the cached arguments that differ from a from-scratch recomputation and
  /// returns how many operands differed.
  template <typename Recompute>
  void Check(std::uint64_t cycle, Recompute&& recompute) {
    if (config.datapath_eval != DatapathEval::kChecked ||
        !checker.Due(cycle, injector.HasHazardousPending())) {
      return;
    }
    checker.RecordCheck();
    tel.OnCheckerCheck(cycle);
    const std::uint64_t mismatched = recompute();
    if (mismatched > 0) {
      checker.RecordDivergence(cycle, mismatched);
      tel.OnCheckerResync(cycle, mismatched);
    }
  }

  /// An injected stall on lane @p lane (station @p i) sits this cycle out
  /// and counts down. Returns true when the lane was stalled.
  bool SitOut(PackedLanes& lanes, int lane, int i) {
    if (!lanes.stall.Test(lane)) return false;
    if (--fault_stall[static_cast<std::size_t>(i)] == 0) {
      lanes.stall.Clear(lane);
    }
    return true;
  }

  /// Forced mispredictions (fault injection) over positions [@p first,
  /// @p end), through the normal recovery machinery: squash everything
  /// younger than the chosen station and redirect fetch. A resolved control
  /// transfer replays its known successor, an unresolved one its predicted
  /// path (if wrong, the ordinary recovery fires when it resolves), and
  /// anything else falls through. An empty window or a halt masks the
  /// event.
  template <typename SlotOf, typename Drop>
  void ForceMispredicts(std::uint64_t cycle, int first, int& end,
                        SlotOf&& slot_of, Drop&& drop) {
    if (!injector.active()) return;
    for (const fault::FaultEvent& e : injector.pending()) {
      if (e.kind != fault::FaultKind::kForceMispredict || end <= first) {
        continue;
      }
      const int p = first + e.station % (end - first);
      const Station& st = stations[static_cast<std::size_t>(slot_of(p))];
      if (!st.valid || st.inst().op == isa::Opcode::kHalt) continue;
      std::size_t redirect_pc = st.fetched.pc + 1;
      if (isa::IsControlFlow(st.inst().op)) {
        redirect_pc =
            st.resolved ? st.actual_next_pc : st.fetched.predicted_next_pc;
      }
      Squash(cycle, p, end, redirect_pc, true, slot_of, drop);
    }
  }

  /// Fetches into the free slots after position @p end of a window whose
  /// oldest position is @p first: each instruction fills station
  /// slot_of(end), is traced, handed to @p filled(position, slot, station)
  /// and extends the window. Counts window-full and fetch-stall cycles, and
  /// halts once fetch stalls with the window empty (the program ran off its
  /// end without a halt).
  template <typename SlotOf, typename Filled>
  void Fetch(std::uint64_t cycle, int first, int& end, SlotOf&& slot_of,
             Filled&& filled) {
    if (done) return;
    const int free = n - end;
    if (free == 0) ++result.stats.window_full_cycles;
    fetch.FetchCycle(std::min(config.EffectiveFetchWidth(), free),
                     fetch_batch_);
    if (fetch_batch_.empty() && free > 0 && end > first && !fetch.stalled()) {
      ++result.stats.fetch_stall_cycles;
    }
    for (const FetchedInstr& f : fetch_batch_) {
      const int slot = slot_of(end);
      Station& st = stations[static_cast<std::size_t>(slot)];
      FillStation(st, f, next_seq++);
      tel.OnFetch(cycle, slot, st);
      filled(end, slot, st);
      ++end;
    }
    if (fetch.stalled() && end == first) Halt();
  }

  /// The run's result: the committed register values @p regs, the memory
  /// image, and the fault and memory-hierarchy counters.
  RunResult Finish(std::vector<isa::Word> regs) {
    result.regs = std::move(regs);
    result.memory = mem.store().Snapshot();
    if (faults_) tel.FinalizeFaults(result.stats, injector, checker);
    tel.FinalizeMemory(result.stats, mem, fetch);
    return std::move(result);
  }

  /// The values of a committed register file of bindings.
  static std::vector<isa::Word> Values(
      std::span<const datapath::RegBinding> regs) {
    std::vector<isa::Word> values(regs.size());
    for (std::size_t r = 0; r < regs.size(); ++r) values[r] = regs[r].value;
    return values;
  }

 private:
  const bool faults_;
  CheckpointSession ckpt_;
  std::uint64_t start_cycle_ = 0;
  std::vector<FetchedInstr> fetch_batch_;
};

}  // namespace ultra::core
