#include "core/usii_core.hpp"

#include <cassert>

#include <bit>
#include <span>

#include "core/checkpoint_util.hpp"
#include "core/exec.hpp"
#include "core/fetch.hpp"
#include "core/telemetry_hooks.hpp"
#include "datapath/bitset.hpp"
#include "datapath/packed_resolve.hpp"
#include "datapath/datapath.hpp"
#include "datapath/scheduler.hpp"
#include "datapath/sequencing.hpp"
#include "fault/fault.hpp"

namespace ultra::core {

namespace {

datapath::StationRequest MakeRequest(const Station& st) {
  datapath::StationRequest req;
  if (!st.valid) return req;
  const isa::Instruction& inst = st.inst();
  req.reads1 = isa::ReadsRs1(inst.op);
  req.arg1 = inst.rs1;
  req.reads2 = isa::ReadsRs2(inst.op);
  req.arg2 = inst.rs2;
  req.writes = isa::WritesRd(inst.op);
  req.dest = inst.rd;
  req.result = st.result;
  return req;
}

}  // namespace

RunResult UltrascalarIICore::Run(const isa::Program& program) {
  const int n = config_.window_size;
  const int L = config_.num_regs;
  datapath::UltrascalarIIDatapath dp(n, L);
  memory::MemorySystem mem(config_.mem, n);
  mem.Reset(program.initial_memory());
  FetchEngine fetch(&program, config_, MakePredictor(config_, program));

  std::vector<Station> stations(static_cast<std::size_t>(n));
  std::vector<datapath::RegBinding> regfile(static_cast<std::size_t>(L));
  for (auto& b : regfile) b.ready = true;

  int fill = 0;  // Slots [0, fill) of the current batch hold instructions.
  std::uint64_t next_seq = 0;
  InflightMap inflight;
  RunResult result;
  bool done = false;

  // Evaluation modes. kPacked and kChecked share one word-parallel cycle
  // loop: sequencing flags, acyclic prefixes, ALU grants and the execute
  // phase's visit set evaluate 64 stations per word op, and argument
  // delivery is event-driven -- each slot's resolved arguments are cached
  // and re-resolved, over per-register writer/reader rows, only when their
  // source changes. kChecked adds the DatapathChecker. kIncremental and
  // kFullRecompute run the byte-lane loop over the mesh propagation.
  const bool packed = config_.datapath_eval == DatapathEval::kPacked ||
                      config_.datapath_eval == DatapathEval::kChecked;
  const bool checked = config_.datapath_eval == DatapathEval::kChecked;
  const bool incremental =
      config_.datapath_eval == DatapathEval::kIncremental;

  fault::FaultInjector injector(config_.fault_plan.get());
  fault::DatapathChecker checker(config_.checker_stride);
  std::vector<int> fault_stall(static_cast<std::size_t>(n), 0);

  CoreTelemetry tel(config_);
  // Batch-position last writer per register (propagation-distance metric).
  std::vector<int> last_writer(static_cast<std::size_t>(L));

  std::vector<datapath::StationRequest> requests(
      static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_store(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_load(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> branch_ok(static_cast<std::size_t>(n));
  // Per-cycle scratch, hoisted out of the loop so the hot path does not
  // touch the allocator (capacity is reused across cycles). The
  // incremental path memoizes prop: it is a pure function of (regfile,
  // requests), so a restore simply recomputes it.
  datapath::UsiiPropagation prop;  // Reused output buffer.
  bool prop_valid = false;   // prop matches the current (regfile, requests).
  bool regfile_changed = true;
  std::vector<std::uint8_t> prev_stores_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_loads_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_confirmed(static_cast<std::size_t>(n));
  std::vector<MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests;
  std::vector<std::uint8_t> alu_grant;
  std::vector<FetchedInstr> fetch_batch;

  // Packed state (kPacked/kChecked only): flag masks, the writer/reader
  // rows that answer "whose value does slot i read?", the cached resolved
  // arguments per batch slot, and a slot-indexed memory window (batch
  // position IS age order here, so the span-based forwarding walk reads it
  // directly). Everything but the cached arguments and the stale set is
  // derived from the stations and rebuilt on restore.
  const int pw = datapath::PackedWordCount(n);
  datapath::PackedBits valid_b, fin_b, iss_b, res_b, msub_b, ld_b, stb_b,
      cf_b, alu_like_b, needs_alu_b, argr_b, cond_b, psd_b, pld_b, pcf_b,
      req_b, grant_b, stall_b, stale_b, mw_stale_b;
  datapath::PackedWriterMap wmap;
  std::vector<datapath::ResolvedArgs> args_at;
  std::vector<MemWindowEntry> mem_window_pos;
  if (packed) {
    for (auto* p : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
                    &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &cond_b,
                    &psd_b, &pld_b, &pcf_b, &req_b, &grant_b, &stall_b,
                    &stale_b, &mw_stale_b}) {
      p->Assign(n);
    }
    wmap.Assign(n, L);
    args_at.resize(static_cast<std::size_t>(n));
    mem_window_pos.resize(static_cast<std::size_t>(n));
  }
  const bool fwd = config_.store_forwarding;

  // Packed event helpers; clearing must run while the station still holds
  // its instruction (rows are keyed by its register fields).
  const auto packed_clear_slot = [&](int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    if (isa::WritesRd(inst.op)) wmap.ClearWriter(i, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.ClearReader(i, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.ClearReader(i, inst.rs2);
    for (auto* p : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
                    &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &stale_b,
                    &mw_stale_b}) {
      p->Clear(i);
    }
    args_at[static_cast<std::size_t>(i)] = datapath::ResolvedArgs{};
    if (fwd) mem_window_pos[static_cast<std::size_t>(i)] = MemWindowEntry{};
  };
  const auto packed_fill_slot = [&](int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    valid_b.Set(i);
    const isa::Opcode op = inst.op;
    if (op == isa::Opcode::kLoad) {
      ld_b.Set(i);
    } else if (op == isa::Opcode::kStore) {
      stb_b.Set(i);
    } else {
      alu_like_b.Set(i);
    }
    if (isa::IsControlFlow(op)) cf_b.Set(i);
    if (NeedsAlu(op)) needs_alu_b.Set(i);
    if (isa::WritesRd(op)) wmap.SetWriter(i, inst.rd);
    if (isa::ReadsRs1(op)) wmap.AddReader(i, inst.rs1);
    if (isa::ReadsRs2(op)) wmap.AddReader(i, inst.rs2);
    stale_b.Set(i);
    if (fwd) mw_stale_b.Set(i);
  };
  // Slot @p j's result binding for register @p r changed: only the readers
  // between j and the next writer of r (inclusive -- a slot both reading
  // and writing r resolves its read against the previous writer) see a
  // different source. Acyclic program order, so no wraparound.
  const auto mark_result_change = [&](int j, isa::RegId r) {
    const int nw = datapath::LowestSetInRange(
        wmap.writers(static_cast<int>(r)), j + 1, n);
    wmap.OrReadersInCyclicRange(static_cast<int>(r), j + 1,
                                nw >= 0 ? nw + 1 : 0, stale_b);
  };
  // Slot @p i's cached arguments were (re)written: refresh its readiness
  // lane, and its memory-window entry when they @p moved.
  const auto args_written = [&](int i, bool moved) {
    const isa::Instruction& inst = stations[static_cast<std::size_t>(i)].inst();
    const datapath::ResolvedArgs& args = args_at[static_cast<std::size_t>(i)];
    argr_b.SetTo(i, (!isa::ReadsRs1(inst.op) || args.arg1.ready) &&
                        (!isa::ReadsRs2(inst.op) || args.arg2.ready));
    if (fwd && moved) mw_stale_b.Set(i);
  };
  // Fault injection and self-checking (packed loop only), once the cycle's
  // arguments are final and before the batch latch or any station reads
  // them.
  const auto inject_and_check = [&](std::uint64_t cycle) {
    if (injector.active()) {
      injector.BeginCycle(cycle);
      injector.ApplyDatapathFaults(args_at);
      tel.OnFaults(cycle, injector.pending());
      for (const fault::FaultEvent& e : injector.pending()) {
        const int i = e.station % n;
        if (e.kind == fault::FaultKind::kStallStation) {
          fault_stall[static_cast<std::size_t>(i)] +=
              static_cast<int>(e.payload % 8) + 1;
          stall_b.Set(i);
          injector.NoteStall();
        } else if (fault::TargetsDatapath(e.kind) &&
                   stations[static_cast<std::size_t>(i)].valid) {
          args_written(i, true);
        }
      }
    }
    if (!checked || !checker.Due(cycle, injector.HasHazardousPending())) {
      return;
    }
    checker.RecordCheck();
    tel.OnCheckerCheck(cycle);
    // Recompute every slot's arguments with the full mesh propagation and
    // overwrite the cached ones that differ.
    for (int i = 0; i < n; ++i) {
      requests[static_cast<std::size_t>(i)] =
          MakeRequest(stations[static_cast<std::size_t>(i)]);
    }
    dp.PropagateInto(regfile, requests, prop);
    std::uint64_t mismatched = 0;
    for (int i = 0; i < fill; ++i) {
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (!st.valid) continue;
      const datapath::ResolvedArgs& full =
          prop.args[static_cast<std::size_t>(i)];
      datapath::ResolvedArgs truth;
      if (isa::ReadsRs1(st.inst().op)) truth.arg1 = full.arg1;
      if (isa::ReadsRs2(st.inst().op)) truth.arg2 = full.arg2;
      datapath::ResolvedArgs& seen = args_at[static_cast<std::size_t>(i)];
      if (seen == truth) continue;
      mismatched += (seen.arg1 != truth.arg1) + (seen.arg2 != truth.arg2);
      seen = truth;
      args_written(i, true);
    }
    if (mismatched > 0) {
      checker.RecordDivergence(cycle, mismatched);
      tel.OnCheckerResync(cycle, mismatched);
    }
  };

  CheckpointSession ckpt(config_, ProcessorKind::kUltrascalarII, program);
  const auto save_state = [&](persist::Encoder& e) {
    for (const Station& st : stations) SaveStation(e, st);
    for (const auto& b : regfile) datapath::Save(e, b);
    e.I32(fill);
    e.U64(next_seq);
    SaveInflight(e, inflight);
    SavePartialResult(e, result);
    for (const int s : fault_stall) e.I32(s);
    injector.SaveState(e);
    checker.SaveState(e);
    fetch.SaveState(e);
    mem.SaveState(e);
    SaveTelemetrySlots(e, config_);
    if (packed) SavePackedArgs(e, args_at, stale_b);
  };
  std::uint64_t start_cycle = 0;
  if (ckpt.resume() != nullptr) {
    persist::Decoder d(ckpt.resume()->state);
    for (Station& st : stations) RestoreStation(d, st);
    for (auto& b : regfile) datapath::Restore(d, b);
    fill = d.I32();
    next_seq = d.U64();
    RestoreInflight(d, inflight);
    RestorePartialResult(d, result);
    for (int& s : fault_stall) s = d.I32();
    injector.RestoreState(d);
    checker.RestoreState(d);
    fetch.RestoreState(d);
    mem.RestoreState(d);
    RestoreTelemetrySlots(d, config_);
    if (packed) {
      // Rebuild the derived packed state from the restored stations, then
      // take the cached arguments and the stale set verbatim.
      for (int i = 0; i < n; ++i) {
        if (fault_stall[static_cast<std::size_t>(i)] > 0) stall_b.Set(i);
        const Station& st = stations[static_cast<std::size_t>(i)];
        if (st.valid) {
          packed_fill_slot(i, st);
          fin_b.SetTo(i, st.finished);
          iss_b.SetTo(i, st.issued);
          res_b.SetTo(i, st.resolved);
          msub_b.SetTo(i, st.mem_submitted);
        }
      }
      RestorePackedArgs(d, args_at, stale_b);
      for (int i = 0; i < n; ++i) {
        if (stations[static_cast<std::size_t>(i)].valid) {
          args_written(i, false);
        }
      }
    }
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
    tel.OnCycle(cycle, fill);

    // --- Phase 1: combinational propagation and batch-completion check,
    // both against end-of-last-cycle state. ---
    bool all_finished = true;
    bool any_valid = false;
    if (tel.metrics_on()) {
      std::fill(last_writer.begin(), last_writer.end(), -1);
    }
    // Grid distance to each operand's source: rows crossed from the nearest
    // preceding writer, or from the register file (one row above the
    // batch) when no station in the batch writes it.
    const auto record_distances = [&](int i, const Station& st) {
      const isa::Instruction& inst = st.inst();
      if (isa::ReadsRs1(inst.op)) {
        const int j = last_writer[static_cast<std::size_t>(inst.rs1)];
        tel.OnDistance(j >= 0 ? i - j : i + 1);
      }
      if (isa::ReadsRs2(inst.op)) {
        const int j = last_writer[static_cast<std::size_t>(inst.rs2)];
        tel.OnDistance(j >= 0 ? i - j : i + 1);
      }
      if (isa::WritesRd(inst.op)) {
        last_writer[static_cast<std::size_t>(inst.rd)] = i;
      }
    };
    if (packed) {
      // Event-driven delivery: the masks carry end-of-last-cycle state, so
      // batch completion is a word scan and only slots whose argument
      // source changed since the last cycle re-resolve.
      for (int w = 0; w < pw; ++w) {
        const std::uint64_t v = valid_b.word(w);
        if (v != 0) any_valid = true;
        if ((v & ~fin_b.word(w)) != 0) all_finished = false;
      }
      if (tel.metrics_on()) {
        for (int i = 0; i < fill; ++i) {
          const Station& st = stations[static_cast<std::size_t>(i)];
          if (st.valid) record_distances(i, st);
        }
      }
      ForEachSetBit(stale_b, [&](int i) {
        const Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid) return;
        const isa::Instruction& inst = st.inst();
        datapath::ResolvedArgs args;
        // The nearest preceding writer's binding, verbatim (ready or not);
        // slot 0 and readers with no in-batch writer take the register
        // file, exactly what the mesh-of-trees propagation delivers.
        const auto read = [&](isa::RegId r) -> datapath::RegBinding {
          const int j =
              wmap.NearestWriterBeforeAcyclic(i, static_cast<int>(r));
          return j >= 0 ? stations[static_cast<std::size_t>(j)].result
                        : regfile[r];
        };
        if (isa::ReadsRs1(inst.op)) args.arg1 = read(inst.rs1);
        if (isa::ReadsRs2(inst.op)) args.arg2 = read(inst.rs2);
        args_at[static_cast<std::size_t>(i)] = args;
        args_written(i, true);
      });
      stale_b.ClearAll();
      // --- Phase 1b: fault injection + self-checking. ---
      inject_and_check(cycle);
    } else {
      bool requests_changed = false;
      for (int i = 0; i < n; ++i) {
        const Station& st = stations[static_cast<std::size_t>(i)];
        datapath::StationRequest req = MakeRequest(st);
        if (req != requests[static_cast<std::size_t>(i)]) {
          requests[static_cast<std::size_t>(i)] = req;
          requests_changed = true;
        }
        if (tel.metrics_on() && st.valid) record_distances(i, st);
        if (st.valid) {
          any_valid = true;
          if (!st.finished) all_finished = false;
        }
        const bool is_store = st.valid && st.inst().op == isa::Opcode::kStore;
        const bool is_load = st.valid && st.inst().op == isa::Opcode::kLoad;
        no_store[static_cast<std::size_t>(i)] = !is_store || st.finished;
        no_load[static_cast<std::size_t>(i)] = !is_load || st.finished;
        branch_ok[static_cast<std::size_t>(i)] =
            !st.valid || !isa::IsControlFlow(st.inst().op) || st.resolved;
      }
      if (!incremental) {
        prop = dp.Propagate(regfile, requests);
      } else if (!prop_valid || requests_changed || regfile_changed) {
        // The whole propagation is a pure function of (regfile, requests):
        // skip it when neither moved since the last evaluation (common
        // while stations wait on long-latency operations).
        dp.PropagateInto(regfile, requests, prop);
        prop_valid = true;
        regfile_changed = false;
      }
    }

    if (packed) {
      // Dead stations contribute vacuously true conditions (their class
      // bits are clear), so the acyclic prefixes match the byte lanes.
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(stb_b.word(w) & ~fin_b.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyAcyclicInto(cond_b, psd_b);
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(ld_b.word(w) & ~fin_b.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyAcyclicInto(cond_b, pld_b);
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(cf_b.word(w) & ~res_b.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyAcyclicInto(cond_b, pcf_b);
    } else {
      datapath::AllPrecedingSatisfyAcyclicInto(no_store, prev_stores_done);
      datapath::AllPrecedingSatisfyAcyclicInto(no_load, prev_loads_done);
      datapath::AllPrecedingSatisfyAcyclicInto(branch_ok, prev_confirmed);
    }

    // The batch completes once every station is finished and no more
    // instructions are on the way into it ("At that time, the final values
    // are latched into the register file. The stations refill ... and
    // computation resumes.").
    const bool batch_complete =
        any_valid && all_finished && (fill == n || fetch.stalled());
    if (batch_complete) {
      if (packed) {
        // Each register's final value comes from its last in-batch writer;
        // unwritten registers keep their incoming file value, matching the
        // propagation's final row.
        for (int r = 0; r < L; ++r) {
          const int j = wmap.HighestWriter(r);
          if (j >= 0) {
            assert(stations[static_cast<std::size_t>(j)].result.ready);
            regfile[static_cast<std::size_t>(r)] =
                stations[static_cast<std::size_t>(j)].result;
          }
        }
      } else {
        for (int r = 0; r < L; ++r) {
          assert(prop.final_regs[static_cast<std::size_t>(r)].ready);
          regfile[static_cast<std::size_t>(r)] =
              prop.final_regs[static_cast<std::size_t>(r)];
        }
      }
      regfile_changed = true;
      const std::uint64_t committed_before = result.committed;
      for (int i = 0; i < fill && !done; ++i) {
        Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid) continue;
        if (isa::IsControlFlow(st.inst().op)) {
          fetch.NotifyOutcome(st.fetched.pc, st.actual_taken);
        }
        ++result.committed;
        tel.OnCommit(cycle, i, st);
        if (st.inst().op == isa::Opcode::kHalt) {
          done = true;
          result.halted = true;
        }
        st.Clear();
        ++st.generation;
      }
      tel.OnBatchRetire(cycle, result.committed - committed_before);
      for (auto& st : stations) {
        if (st.valid) {
          st.Clear();
          ++st.generation;
        }
      }
      if (packed) {
        // The whole batch left at once: reset the packed state wholesale
        // instead of slot-by-slot. stall_b survives -- pending injected
        // stalls stick to the slot and hit its next occupant.
        wmap.ClearAllRows();
        for (auto* p : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b,
                        &stb_b, &cf_b, &alu_like_b, &needs_alu_b, &argr_b,
                        &stale_b, &mw_stale_b}) {
          p->ClearAll();
        }
      }
      fill = 0;
    }

    // --- Phase 2: memory responses. ---
    mem.Tick();
    for (const auto& resp : mem.DrainCompleted()) {
      const auto it = inflight.find(resp.id);
      if (it == inflight.end()) continue;
      const MemTag tag = it->second;
      inflight.erase(it);
      Station& st = stations[static_cast<std::size_t>(tag.tag)];
      if (st.valid && st.generation == tag.generation) {
        const bool was_finished = st.finished;
        ApplyMemResponse(st, resp, cycle);
        if (packed) {
          // The load's result binding just became ready: its readers
          // re-resolve at the next phase-1 drain, exactly when the
          // propagation would deliver the new value.
          fin_b.Set(static_cast<int>(tag.tag));
          if (isa::WritesRd(st.inst().op)) {
            mark_result_change(static_cast<int>(tag.tag), st.inst().rd);
          }
          if (fwd) mw_stale_b.Set(static_cast<int>(tag.tag));
        }
        tel.OnMemComplete(cycle, static_cast<int>(tag.tag), st, was_finished);
      }
    }

    // --- Phase 3: execute, in program order within the batch. ---
    if (!batch_complete && !done) {
      if (fwd) {
        if (packed) {
          // Refresh only the window entries whose station or arguments
          // moved -- after phase 2, so this cycle's memory completions are
          // visible to disambiguation, as in the rebuilt window below.
          ForEachSetBit(mw_stale_b, [&](int i) {
            mem_window_pos[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
                stations[static_cast<std::size_t>(i)],
                args_at[static_cast<std::size_t>(i)]);
          });
          mw_stale_b.ClearAll();
        } else {
          mem_window.assign(static_cast<std::size_t>(fill), MemWindowEntry{});
          for (int i = 0; i < fill; ++i) {
            mem_window[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
                stations[static_cast<std::size_t>(i)],
                prop.args[static_cast<std::size_t>(i)]);
          }
        }
      }
      if (config_.num_alus > 0) {
        if (packed) {
          int occupied = 0;
          for (int w = 0; w < pw; ++w) {
            occupied += std::popcount(needs_alu_b.word(w) & iss_b.word(w) &
                                      ~fin_b.word(w));
            req_b.word(w) = needs_alu_b.word(w) & ~iss_b.word(w) &
                            ~fin_b.word(w) & argr_b.word(w);
          }
          datapath::AluScheduler::PackedGrantAcyclicInto(
              req_b, std::max(0, config_.num_alus - occupied), grant_b);
        } else {
          alu_requests.assign(static_cast<std::size_t>(fill), 0);
          int occupied = 0;
          for (int i = 0; i < fill; ++i) {
            const Station& st = stations[static_cast<std::size_t>(i)];
            alu_requests[static_cast<std::size_t>(i)] =
                WantsAlu(st, prop.args[static_cast<std::size_t>(i)]);
            if (st.valid && st.issued && !st.finished &&
                NeedsAlu(st.inst().op)) {
              ++occupied;
            }
          }
          alu_grant.resize(static_cast<std::size_t>(fill));
          datapath::AluScheduler::GrantAcyclicInto(
              alu_requests, std::max(0, config_.num_alus - occupied),
              alu_grant);
        }
      }
      if (packed) {
        // Visit only stations whose StepStation call would act (the mask
        // mirrors its no-op predicate exactly, so skipping is identical),
        // plus stations serving an injected stall, which sit the cycle out
        // and count it down. With store forwarding on, a load's gate is its
        // disambiguation decision rather than the prev-stores-done prefix,
        // so the load term drops psd (an undecidable load is visited and
        // no-ops).
        bool squashed = false;
        for (int w = 0; w < pw && !squashed; ++w) {
          const int base = w << 6;
          if (base >= fill) break;
          const int hi = std::min(64, fill - base);
          const std::uint64_t grant_ok =
              config_.num_alus > 0 ? (grant_b.word(w) | ~needs_alu_b.word(w))
                                   : ~0ULL;
          const std::uint64_t load_gate = fwd ? ~0ULL : psd_b.word(w);
          std::uint64_t mv =
              (valid_b.word(w) & ~fin_b.word(w) &
               ((alu_like_b.word(w) &
                 (iss_b.word(w) | (argr_b.word(w) & grant_ok))) |
                (ld_b.word(w) & ~msub_b.word(w) & argr_b.word(w) &
                 load_gate) |
                (stb_b.word(w) & ~msub_b.word(w) & argr_b.word(w) &
                 pld_b.word(w) & psd_b.word(w) & pcf_b.word(w)))) |
              (stall_b.word(w) & valid_b.word(w));
          mv &= hi == 64 ? ~0ULL : ((1ULL << hi) - 1);
          while (mv != 0) {
            const int b = std::countr_zero(mv);
            mv &= mv - 1;
            const int i = base + b;
            if (stall_b.Test(i)) {
              // Injected stall: the station sits this cycle out.
              if (--fault_stall[static_cast<std::size_t>(i)] == 0) {
                stall_b.Clear(i);
              }
              continue;
            }
            Station& st = stations[static_cast<std::size_t>(i)];
            StepContext ctx;
            ctx.prev_stores_done = psd_b.Test(i);
            ctx.prev_loads_done = pld_b.Test(i);
            ctx.committed_ok = pcf_b.Test(i);
            ctx.alu_granted = config_.num_alus == 0 || grant_b.Test(i);
            ctx.forwarding_enabled = fwd;
            if (fwd && st.inst().op == isa::Opcode::kLoad &&
                mem_window_pos[static_cast<std::size_t>(i)].addr_known) {
              const auto decision = ResolveLoadForwarding(
                  std::span<const MemWindowEntry>(
                      mem_window_pos.data(), static_cast<std::size_t>(fill)),
                  static_cast<std::size_t>(i));
              ctx.load_can_proceed = decision.can_proceed;
              ctx.load_forward = decision.forward;
              ctx.forward_value = decision.value;
            }
            const bool was_started = st.started();
            const bool was_finished = st.finished;
            const datapath::RegBinding pre_result = st.result;
            const bool mispredicted = StepStation(
                st, args_at[static_cast<std::size_t>(i)], ctx,
                config_.latencies, mem, cycle, i,
                static_cast<std::uint64_t>(i), inflight, result.stats);
            tel.OnStep(cycle, i, st, was_started, was_finished);
            iss_b.SetTo(i, st.issued);
            fin_b.SetTo(i, st.finished);
            res_b.SetTo(i, st.resolved);
            msub_b.SetTo(i, st.mem_submitted);
            if (st.result != pre_result && isa::WritesRd(st.inst().op)) {
              mark_result_change(i, st.inst().rd);
            }
            if (fwd) mw_stale_b.Set(i);
            if (mispredicted) {
              ++result.stats.mispredictions;
              for (int m = i + 1; m < fill; ++m) {
                Station& victim = stations[static_cast<std::size_t>(m)];
                if (victim.valid) {
                  ++result.stats.squashed_instructions;
                  tel.OnSquash(cycle, m, victim);
                  packed_clear_slot(m, victim);
                  victim.Clear();
                  ++victim.generation;
                }
              }
              fill = i + 1;
              fetch.Redirect(st.actual_next_pc);
              squashed = true;
              break;
            }
          }
        }
      } else {
      for (int i = 0; i < fill; ++i) {
        Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid) continue;
        StepContext ctx;
        ctx.prev_stores_done =
            prev_stores_done[static_cast<std::size_t>(i)] != 0;
        ctx.prev_loads_done =
            prev_loads_done[static_cast<std::size_t>(i)] != 0;
        ctx.committed_ok = prev_confirmed[static_cast<std::size_t>(i)] != 0;
        ctx.alu_granted = config_.num_alus == 0 ||
                          alu_grant[static_cast<std::size_t>(i)] != 0;
        ctx.forwarding_enabled = config_.store_forwarding;
        if (ctx.forwarding_enabled && st.inst().op == isa::Opcode::kLoad &&
            mem_window[static_cast<std::size_t>(i)].addr_known) {
          const auto decision = ResolveLoadForwarding(
              mem_window, static_cast<std::size_t>(i));
          ctx.load_can_proceed = decision.can_proceed;
          ctx.load_forward = decision.forward;
          ctx.forward_value = decision.value;
        }
        const bool was_started = st.started();
        const bool was_finished = st.finished;
        const bool mispredicted = StepStation(
            st, prop.args[static_cast<std::size_t>(i)], ctx,
            config_.latencies, mem, cycle, i, static_cast<std::uint64_t>(i),
            inflight, result.stats);
        tel.OnStep(cycle, i, st, was_started, was_finished);
        if (mispredicted) {
          ++result.stats.mispredictions;
          for (int m = i + 1; m < fill; ++m) {
            Station& victim = stations[static_cast<std::size_t>(m)];
            if (victim.valid) {
              ++result.stats.squashed_instructions;
              tel.OnSquash(cycle, m, victim);
              victim.Clear();
              ++victim.generation;
            }
          }
          fill = i + 1;
          fetch.Redirect(st.actual_next_pc);
        }
      }
      }

      // Forced mispredictions (fault injection): squash + redirect through
      // the normal recovery machinery.
      if (injector.active()) {
        for (const fault::FaultEvent& e : injector.pending()) {
          if (e.kind != fault::FaultKind::kForceMispredict) continue;
          if (fill == 0) {
            injector.NoteMasked();
            continue;
          }
          const int i = e.station % fill;
          Station& st = stations[static_cast<std::size_t>(i)];
          if (!st.valid || st.inst().op == isa::Opcode::kHalt) {
            injector.NoteMasked();
            continue;
          }
          std::size_t redirect_pc;
          if (isa::IsControlFlow(st.inst().op)) {
            redirect_pc = st.resolved ? st.actual_next_pc
                                      : st.fetched.predicted_next_pc;
          } else {
            redirect_pc = st.fetched.pc + 1;
          }
          injector.NoteForcedMispredict();
          for (int m = i + 1; m < fill; ++m) {
            Station& victim = stations[static_cast<std::size_t>(m)];
            if (victim.valid) {
              ++result.stats.squashed_instructions;
              ++result.stats.fault.squashes;
              tel.OnSquash(cycle, m, victim);
              packed_clear_slot(m, victim);
              victim.Clear();
              ++victim.generation;
            }
          }
          fill = i + 1;
          fetch.Redirect(redirect_pc);
        }
      }
    }

    // --- Phase 4: fill the batch. ---
    if (!done) {
      const int free = n - fill;
      if (free == 0) ++result.stats.window_full_cycles;
      const int width = std::min(config_.EffectiveFetchWidth(), free);
      fetch.FetchCycle(width, fetch_batch);
      if (fetch_batch.empty() && free > 0 && fill > 0 && !fetch.stalled()) {
        ++result.stats.fetch_stall_cycles;
      }
      for (const auto& f : fetch_batch) {
        FillStation(stations[static_cast<std::size_t>(fill)], f, next_seq++);
        tel.OnFetch(cycle, fill, stations[static_cast<std::size_t>(fill)]);
        if (packed) {
          packed_fill_slot(fill, stations[static_cast<std::size_t>(fill)]);
        }
        ++fill;
      }
      if (fetch.stalled() && fill == 0) {
        done = true;
        result.halted = true;
      }
    }
  }

  result.regs.resize(static_cast<std::size_t>(L));
  for (int r = 0; r < L; ++r) {
    result.regs[static_cast<std::size_t>(r)] =
        regfile[static_cast<std::size_t>(r)].value;
  }
  result.memory = mem.store().Snapshot();
  tel.FinalizeFaults(result.stats, injector, checker);
  tel.FinalizeMemory(result.stats, mem, fetch);
  return result;
}

}  // namespace ultra::core
