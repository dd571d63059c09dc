#include "core/usi_core.hpp"

#include <cassert>

#include <bit>
#include <optional>

#include "core/checkpoint_util.hpp"
#include "core/exec.hpp"
#include "core/fetch.hpp"
#include "core/telemetry_hooks.hpp"
#include "datapath/bitset.hpp"
#include "datapath/datapath.hpp"
#include "datapath/packed_resolve.hpp"
#include "datapath/scheduler.hpp"
#include "fault/fault.hpp"

namespace ultra::core {

namespace {

/// H-tree levels from station @p a to the root of the smallest 4-ary
/// subtree also containing @p b.
int HTreeLevels(int a, int b) {
  int h = 0;
  while (a != b) {
    a /= 4;
    b /= 4;
    ++h;
  }
  return h;
}

/// Cycles for a value to travel from station @p from to station @p to in a
/// datapath latched every @p levels_per_stage levels (0 = single-cycle).
int PipeCycles(int from, int to, int levels_per_stage) {
  if (levels_per_stage <= 0) return 1;
  const int crossing = 2 * HTreeLevels(from, to);  // Up, then down.
  return std::max(1, (crossing + levels_per_stage - 1) / levels_per_stage);
}

}  // namespace

RunResult UltrascalarICore::Run(const isa::Program& program) {
  const int n = config_.window_size;
  const int L = config_.num_regs;
  datapath::UltrascalarIDatapath dp(n, L);
  datapath::SequencingCspp seq(n);
  datapath::AluScheduler alu_scheduler(n);
  memory::MemorySystem mem(config_.mem, n);
  mem.Reset(program.initial_memory());
  FetchEngine fetch(&program, config_, MakePredictor(config_, program));

  std::vector<Station> stations(static_cast<std::size_t>(n));
  std::vector<datapath::RegBinding> committed(static_cast<std::size_t>(L));
  for (auto& b : committed) b.ready = true;
  // Cycle at which each committed register last changed (pipelined-datapath
  // visibility; see the read lambda below).
  std::vector<std::uint64_t> committed_at(static_cast<std::size_t>(L), 0);

  int head = 0;   // Ring index of the oldest station.
  int count = 0;  // Allocated stations: [head, head + count) mod n.
  std::uint64_t next_seq = 0;
  InflightMap inflight;
  RunResult result;
  bool done = false;

  // Evaluation modes. kPacked and kChecked share one word-parallel cycle
  // loop: the Figure 5 flags, their CSPP prefixes, the ALU grants and the
  // execute phase's visit set evaluate 64 stations per word op, and
  // argument delivery is event-driven through a PackedWriterMap
  // (per-register writer/reader rows over the ring) -- each station's
  // resolved arguments are cached and a stale mask re-resolves only the
  // stations whose source changed. Pipelined delivery is a function of
  // wall-clock distance, so under it the packed loop re-resolves every live
  // station each cycle with the program-order last-writer sweep instead.
  // kChecked adds the DatapathChecker. kIncremental and kFullRecompute run
  // the byte-lane loop over the propagated ring.
  const bool packed = config_.datapath_eval == DatapathEval::kPacked ||
                      config_.datapath_eval == DatapathEval::kChecked;
  const bool checked = config_.datapath_eval == DatapathEval::kChecked;
  const bool incremental =
      config_.datapath_eval == DatapathEval::kIncremental;
  const bool pipelined = config_.pipeline_levels_per_stage > 0;

  CoreTelemetry tel(config_);
  // The program-order last-writer sweep serves both the pipelined datapath
  // and the propagation-distance histogram.
  const bool track_writers = pipelined || tel.metrics_on();
  fault::FaultInjector injector(config_.fault_plan.get());
  fault::DatapathChecker checker(config_.checker_stride);
  // Remaining injected-stall cycles per station.
  std::vector<int> fault_stall(static_cast<std::size_t>(n), 0);

  // Persistent ring state for the incremental path, mutated through
  // self-diffing setters each cycle so only changed register columns are
  // re-propagated and nothing is allocated. It is a function of the
  // stations and the committed file, so it is built after any restore.
  std::optional<datapath::UsiDatapathState> dp_state;
  // Full-recompute buffers: the reference path's per-cycle propagation and
  // the checker's recomputation target.
  std::vector<datapath::RegBinding> outgoing;
  std::vector<std::uint8_t> modified;
  std::vector<datapath::RegBinding> incoming;
  if (config_.datapath_eval == DatapathEval::kFullRecompute || checked) {
    outgoing.resize(static_cast<std::size_t>(n) * L);
    modified.resize(static_cast<std::size_t>(n) * L);
  }

  std::vector<std::uint8_t> no_store(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_load(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> branch_ok(static_cast<std::size_t>(n));
  // Per-cycle scratch, hoisted out of the loop so the hot path does not
  // touch the allocator (capacity is reused across cycles).
  std::vector<std::uint8_t> prev_stores_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_loads_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_confirmed(static_cast<std::size_t>(n));
  // Resolved arguments per station: rebuilt every cycle by the byte-lane
  // loop, cached across cycles by the packed loop.
  std::vector<datapath::ResolvedArgs> args_at(static_cast<std::size_t>(n));
  std::vector<core::MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> alu_grant(static_cast<std::size_t>(n));
  // Program-order last writer per register during a window sweep; replaces
  // the per-operand backward window scan.
  std::vector<int> last_writer(static_cast<std::size_t>(L));
  std::vector<FetchedInstr> fetch_batch;

  // Packed state (kPacked/kChecked only). The flag masks, the writer map
  // and the memory window are mutated at event sites and derived from the
  // stations, so a restore rebuilds them; the cached arguments and the
  // stale set are checkpointed (SavePackedArgs).
  const int pw = datapath::PackedWordCount(n);
  datapath::PackedBits valid_b, fin_b, iss_b, res_b, msub_b, ld_b, stb_b,
      cf_b, alu_like_b, needs_alu_b, argr_b, cond_b, psd_b, pld_b, pcf_b,
      req_b, grant_b, stall_b, stale_b, mw_stale_b;
  // Per-register writer/reader rows over the ring, and a position-indexed
  // memory window (the byte-lane loop keeps the age-indexed mem_window).
  datapath::PackedWriterMap wmap;
  std::vector<core::MemWindowEntry> mem_window_pos;
  if (packed) {
    for (auto* p : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
                    &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &cond_b,
                    &psd_b, &pld_b, &pcf_b, &req_b, &grant_b, &stall_b,
                    &stale_b, &mw_stale_b}) {
      p->Assign(n);
    }
    wmap.Assign(n, L);
    mem_window_pos.resize(static_cast<std::size_t>(n));
  }
  const bool fwd = config_.store_forwarding;

  // Packed event helpers. Clearing a slot must run while the station still
  // holds its instruction (the writer/reader rows are keyed by its register
  // fields).
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
  // Station @p j's result binding for register @p r changed (it issued,
  // finished, or its load data arrived): only the readers between j and the
  // next in-flight writer of r resolve against j, so only that span goes
  // stale. Readers beyond the next writer already bind to it; readers at or
  // before j bind elsewhere.
  const auto mark_result_change = [&](int j, isa::RegId r) {
    const int nw = wmap.NearestWriterAfter(j, static_cast<int>(r), head);
    wmap.OrReadersInCyclicRange(static_cast<int>(r), (j + 1) % n,
                                nw >= 0 ? (nw + 1) % n : head, stale_b);
  };
  // Station @p i's cached arguments were (re)written: refresh its
  // readiness lane, and its memory-window entry when they @p moved.
  const auto args_written = [&](int i, bool moved) {
    const isa::Instruction& inst = stations[static_cast<std::size_t>(i)].inst();
    const datapath::ResolvedArgs& args = args_at[static_cast<std::size_t>(i)];
    argr_b.SetTo(i, (!isa::ReadsRs1(inst.op) || args.arg1.ready) &&
                        (!isa::ReadsRs2(inst.op) || args.arg2.ready));
    if (fwd && moved) mw_stale_b.Set(i);
  };

  // Full-recompute propagation of the ring from the current stations.
  const auto propagate_full = [&] {
    std::fill(modified.begin(), modified.end(), 0);
    for (auto& b : outgoing) b = datapath::RegBinding{};
    for (int r = 0; r < L; ++r) {
      outgoing[static_cast<std::size_t>(head) * L + r] =
          committed[static_cast<std::size_t>(r)];
    }
    for (int i = 0; i < n; ++i) {
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (st.valid && isa::WritesRd(st.inst().op)) {
        const std::size_t idx = static_cast<std::size_t>(i) * L + st.inst().rd;
        outgoing[idx] = st.result;
        modified[idx] = 1;
      }
    }
    incoming = dp.Propagate(outgoing, modified, head);
  };
  // Program-order sweep over the live window: calls @p visit(k, i, st) for
  // every valid station, with last_writer holding each register's nearest
  // preceding writer in the window when track_writers is set.
  const auto sweep = [&](auto&& visit) {
    if (track_writers) std::fill(last_writer.begin(), last_writer.end(), -1);
    for (int k = 0; k < count; ++k) {
      const int i = (head + k) % n;
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (!st.valid) continue;
      visit(k, i, st);
      if (track_writers && isa::WritesRd(st.inst().op)) {
        last_writer[static_cast<std::size_t>(st.inst().rd)] = i;
      }
    }
  };
  // Ring distance from each operand's source (the nearest preceding writer,
  // or the committed file at the oldest station), inside a sweep.
  const auto record_distances = [&](int k, int i, const Station& st) {
    const auto dist = [&](isa::RegId r) {
      const int j = k == 0 ? head : last_writer[static_cast<std::size_t>(r)];
      tel.OnDistance(j >= 0 ? (i - j + n) % n : (i - head + n) % n);
    };
    if (isa::ReadsRs1(st.inst().op)) dist(st.inst().rs1);
    if (isa::ReadsRs2(st.inst().op)) dist(st.inst().rs2);
  };
  // What station @p i, @p k-th from the head, reads on @p cycle, inside a
  // sweep. The oldest station ignores the ring and reads the committed
  // file; otherwise the value comes over the pipelined tree or from the
  // propagated ring.
  const auto resolve = [&](int k, int i, const Station& st,
                           std::uint64_t cycle) {
    const auto read = [&](isa::RegId r) -> datapath::RegBinding {
      if (k == 0) return committed[r];
      if (!pipelined) {
        return incremental ? dp_state->incoming(i, r)
                           : incoming[static_cast<std::size_t>(i) * L + r];
      }
      // Pipelined datapath: the nearest preceding writer plus the
      // distance-dependent latch latency.
      const int j = last_writer[static_cast<std::size_t>(r)];
      if (j >= 0) {
        const Station& w = stations[static_cast<std::size_t>(j)];
        if (!w.finished) return {w.result.value, false};
        const int lat = PipeCycles(j, i, config_.pipeline_levels_per_stage);
        if (cycle >= w.complete_cycle +
                         static_cast<std::uint64_t>(lat)) {
          return w.result;
        }
        return {w.result.value, false};  // Still in flight on the tree.
      }
      // Committed-file read: the file lives in the oldest station, so the
      // value still crosses the tree from there.
      const int lat = PipeCycles(head, i, config_.pipeline_levels_per_stage);
      if (cycle >= committed_at[r] + static_cast<std::uint64_t>(lat)) {
        return committed[r];
      }
      return {committed[r].value, false};
    };
    datapath::ResolvedArgs args;
    if (isa::ReadsRs1(st.inst().op)) args.arg1 = read(st.inst().rs1);
    if (isa::ReadsRs2(st.inst().op)) args.arg2 = read(st.inst().rs2);
    return args;
  };
  // Fault injection and self-checking (packed loop only), once the cycle's
  // arguments are final and before any station reads them.
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
    // Recompute every live station's arguments from scratch (the full ring
    // propagation, or the pipelined sweep itself) and overwrite the cached
    // ones that differ.
    if (!pipelined) propagate_full();
    std::uint64_t mismatched = 0;
    sweep([&](int k, int i, const Station& st) {
      const datapath::ResolvedArgs truth = resolve(k, i, st, cycle);
      datapath::ResolvedArgs& seen = args_at[static_cast<std::size_t>(i)];
      if (seen == truth) return;
      mismatched += (seen.arg1 != truth.arg1) + (seen.arg2 != truth.arg2);
      seen = truth;
      args_written(i, true);
    });
    if (mismatched > 0) {
      checker.RecordDivergence(cycle, mismatched);
      tel.OnCheckerResync(cycle, mismatched);
    }
  };

  CheckpointSession ckpt(config_, ProcessorKind::kUltrascalarI, program);
  const auto save_state = [&](persist::Encoder& e) {
    for (const Station& st : stations) SaveStation(e, st);
    for (const auto& b : committed) datapath::Save(e, b);
    for (const std::uint64_t c : committed_at) e.U64(c);
    e.I32(head);
    e.I32(count);
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
    for (auto& b : committed) datapath::Restore(d, b);
    for (std::uint64_t& c : committed_at) c = d.U64();
    head = d.I32();
    count = d.I32();
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
        const Station& st = stations[static_cast<std::size_t>(i)];
        if (st.valid) {
          packed_fill_slot(i, st);
          fin_b.SetTo(i, st.finished);
          iss_b.SetTo(i, st.issued);
          res_b.SetTo(i, st.resolved);
          msub_b.SetTo(i, st.mem_submitted);
        }
        if (fault_stall[static_cast<std::size_t>(i)] > 0) stall_b.Set(i);
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
  if (incremental) {
    dp_state.emplace(n, L);
    for (int r = 0; r < L; ++r) {
      dp_state->SetCommitted(r, committed[static_cast<std::size_t>(r)]);
    }
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

    // --- Phase 1: combinational propagation (end-of-last-cycle state). ---
    if (packed) {
      // Event-driven delivery: re-resolve only stations whose argument
      // source changed since the last cycle (writer result movement, a
      // commit touching their register, a squash, their own fill, or the
      // head advancing onto them). Stations are untouched since the end of
      // the previous cycle, so this drain sees exactly the snapshot the
      // ring propagation would deliver. Pipelined delivery re-resolves
      // every station in phase 3a instead.
      if (!pipelined) {
        ForEachSetBit(stale_b, [&](int i) {
          const Station& st = stations[static_cast<std::size_t>(i)];
          if (!st.valid) return;
          const isa::Instruction& inst = st.inst();
          datapath::ResolvedArgs args;
          const auto read = [&](isa::RegId r) -> datapath::RegBinding {
            if (i == head) return committed[r];  // Oldest reads the file.
            const int j = wmap.NearestWriterBefore(i, r, head);
            return j >= 0 ? stations[static_cast<std::size_t>(j)].result
                          : committed[r];
          };
          if (isa::ReadsRs1(inst.op)) args.arg1 = read(inst.rs1);
          if (isa::ReadsRs2(inst.op)) args.arg2 = read(inst.rs2);
          args_at[static_cast<std::size_t>(i)] = args;
          args_written(i, true);
        });
        // --- Phase 1b: fault injection + self-checking. ---
        inject_and_check(cycle);
      }
      stale_b.ClearAll();
    } else {
      for (int i = 0; i < n; ++i) {
        const Station& st = stations[static_cast<std::size_t>(i)];
        const bool is_store = st.valid && st.inst().op == isa::Opcode::kStore;
        const bool is_load = st.valid && st.inst().op == isa::Opcode::kLoad;
        no_store[static_cast<std::size_t>(i)] = !is_store || st.finished;
        no_load[static_cast<std::size_t>(i)] = !is_load || st.finished;
        branch_ok[static_cast<std::size_t>(i)] =
            !st.valid || !isa::IsControlFlow(st.inst().op) || st.resolved;
      }
      if (!pipelined) {  // Pipelined reads never consult the ring.
        if (incremental) {
          // Diff the window into the persistent state; commits already
          // pushed their register updates in phase 4 of the last cycle.
          dp_state->SetOldest(head);
          for (int i = 0; i < n; ++i) {
            const Station& st = stations[static_cast<std::size_t>(i)];
            const bool writes = st.valid && isa::WritesRd(st.inst().op);
            dp_state->SetStationWrite(i, writes, writes ? st.inst().rd : 0,
                                      st.result);
          }
          dp.PropagateIncremental(*dp_state);
        } else {
          propagate_full();
        }
      }
    }

    if (packed) {
      // Dead stations contribute vacuously true conditions (their class
      // bits are clear), so the cyclic prefixes match the byte-lane CSPP;
      // the head lane is forced true like the reference's k == 0 override.
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(stb_b.word(w) & ~fin_b.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyInto(cond_b, head, psd_b);
      psd_b.Set(head);
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(ld_b.word(w) & ~fin_b.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyInto(cond_b, head, pld_b);
      pld_b.Set(head);
      for (int w = 0; w < pw; ++w) {
        cond_b.word(w) = ~(cf_b.word(w) & ~res_b.word(w));
      }
      cond_b.word(pw - 1) &= datapath::PackedTailMask(n);
      datapath::PackedAllPrecedingSatisfyInto(cond_b, head, pcf_b);
      pcf_b.Set(head);
    } else {
      seq.AllPrecedingSatisfyInto(no_store, head, prev_stores_done);
      seq.AllPrecedingSatisfyInto(no_load, head, prev_loads_done);
      seq.AllPrecedingSatisfyInto(branch_ok, head, prev_confirmed);
    }

    // --- Phase 2: memory responses arriving this cycle. ---
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
          // re-resolve at the next phase-1 drain, exactly when the ring
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

    // --- Phase 3a: resolve arguments and schedule shared resources. ---
    const int live = count;
    if (packed) {
      // Non-pipelined arguments were refreshed by the phase-1 drain. The
      // pipelined sweep re-resolves every live station here, after phase 2
      // like the byte-lane loop, then injects and checks.
      if (track_writers) {
        sweep([&](int k, int i, const Station& st) {
          if (tel.metrics_on()) record_distances(k, i, st);
          if (!pipelined) return;
          const datapath::ResolvedArgs args = resolve(k, i, st, cycle);
          datapath::ResolvedArgs& cached =
              args_at[static_cast<std::size_t>(i)];
          const bool moved = args != cached;
          cached = args;
          args_written(i, moved);
        });
      }
      if (pipelined) inject_and_check(cycle);
      // Refresh the memory-window entries whose station or arguments moved
      // -- after phase 2, which is when the byte-lane loop builds its
      // window, so this cycle's memory completions are visible to
      // disambiguation.
      if (fwd) {
        ForEachSetBit(mw_stale_b, [&](int i) {
          mem_window_pos[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
              stations[static_cast<std::size_t>(i)],
              args_at[static_cast<std::size_t>(i)]);
        });
        mw_stale_b.ClearAll();
      }
    } else {
      std::fill(args_at.begin(), args_at.end(), datapath::ResolvedArgs{});
      mem_window.assign(static_cast<std::size_t>(live), core::MemWindowEntry{});
      sweep([&](int k, int i, const Station& st) {
        if (tel.metrics_on()) record_distances(k, i, st);
        const datapath::ResolvedArgs args = resolve(k, i, st, cycle);
        args_at[static_cast<std::size_t>(i)] = args;
        if (fwd) {
          mem_window[static_cast<std::size_t>(k)] =
              MakeMemWindowEntry(st, args);
        }
      });
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
        alu_scheduler.PackedGrantInto(
            req_b, std::max(0, config_.num_alus - occupied), head, grant_b);
      } else {
        int occupied = 0;
        for (int i = 0; i < n; ++i) {
          const Station& st = stations[static_cast<std::size_t>(i)];
          alu_requests[static_cast<std::size_t>(i)] =
              WantsAlu(st, args_at[static_cast<std::size_t>(i)]);
          if (st.valid && st.issued && !st.finished &&
              NeedsAlu(st.inst().op)) {
            ++occupied;
          }
        }
        alu_scheduler.GrantInto(alu_requests,
                                std::max(0, config_.num_alus - occupied),
                                head, alu_grant);
      }
    }

    // --- Phase 3b: execute, in program order from the oldest station. ---
    if (packed) {
      // Visit only stations whose StepStation call would act (the mask
      // mirrors its no-op predicate exactly, so skipping is identical),
      // plus stations serving an injected stall, which sit the cycle out
      // and count it down. With store forwarding on, a load's gate is its
      // disambiguation decision rather than the prev-stores-done prefix,
      // so the load term drops psd (an undecidable load is visited and
      // no-ops).
      int pos = head;
      int processed = 0;
      bool squashed = false;
      while (processed < live && !squashed) {
        const int w = pos >> 6;
        const int lo = pos & 63;
        int hi = std::min(64, n - (w << 6));
        hi = std::min(hi, lo + (live - processed));
        const std::uint64_t grant_ok =
            config_.num_alus > 0 ? (grant_b.word(w) | ~needs_alu_b.word(w))
                                 : ~0ULL;
        const std::uint64_t load_gate = fwd ? ~0ULL : psd_b.word(w);
        std::uint64_t cand =
            (valid_b.word(w) & ~fin_b.word(w) &
             ((alu_like_b.word(w) &
               (iss_b.word(w) | (argr_b.word(w) & grant_ok))) |
              (ld_b.word(w) & ~msub_b.word(w) & argr_b.word(w) & load_gate) |
              (stb_b.word(w) & ~msub_b.word(w) & argr_b.word(w) &
               pld_b.word(w) & psd_b.word(w) & pcf_b.word(w)))) |
            (stall_b.word(w) & valid_b.word(w));
        const int cw = hi - lo;
        cand &= (cw == 64 ? ~0ULL : ((1ULL << cw) - 1)) << lo;
        while (cand != 0) {
          const int b = std::countr_zero(cand);
          cand &= cand - 1;
          const int i = (w << 6) + b;
          if (stall_b.Test(i)) {
            // Injected stall: the station sits this cycle out.
            if (--fault_stall[static_cast<std::size_t>(i)] == 0) {
              stall_b.Clear(i);
            }
            continue;
          }
          int k = i - head;
          if (k < 0) k += n;
          Station& st = stations[static_cast<std::size_t>(i)];
          StepContext ctx;
          ctx.prev_stores_done = psd_b.Test(i);
          ctx.prev_loads_done = pld_b.Test(i);
          ctx.committed_ok = pcf_b.Test(i);
          ctx.alu_granted = config_.num_alus == 0 || grant_b.Test(i);
          ctx.forwarding_enabled = fwd;
          if (fwd && st.inst().op == isa::Opcode::kLoad &&
              mem_window_pos[static_cast<std::size_t>(i)].addr_known) {
            const auto decision = ResolveLoadForwardingMapped(
                [&](std::size_t a) -> const MemWindowEntry& {
                  return mem_window_pos[static_cast<std::size_t>(
                      (head + static_cast<int>(a)) % n)];
                },
                static_cast<std::size_t>(k));
            ctx.load_can_proceed = decision.can_proceed;
            ctx.load_forward = decision.forward;
            ctx.forward_value = decision.value;
          }
          const bool was_started = st.started();
          const bool was_finished = st.finished;
          const datapath::RegBinding pre_result = st.result;
          const bool mispredicted =
              StepStation(st, args_at[static_cast<std::size_t>(i)], ctx,
                          config_.latencies, mem, cycle, i,
                          static_cast<std::uint64_t>(i), inflight,
                          result.stats);
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
            for (int m = k + 1; m < count; ++m) {
              const int vi = (head + m) % n;
              Station& victim = stations[static_cast<std::size_t>(vi)];
              if (victim.valid) {
                ++result.stats.squashed_instructions;
                tel.OnSquash(cycle, vi, victim);
                packed_clear_slot(vi, victim);
                victim.Clear();
                ++victim.generation;
              }
            }
            count = k + 1;
            fetch.Redirect(st.actual_next_pc);
            squashed = true;
            break;
          }
        }
        processed += hi - lo;
        pos = (w << 6) + hi;
        if (pos >= n) pos = 0;
      }
    } else {
      for (int k = 0; k < live; ++k) {
      const int i = (head + k) % n;
      Station& st = stations[static_cast<std::size_t>(i)];
      if (!st.valid) continue;  // Squashed earlier this cycle.
      const datapath::ResolvedArgs& args =
          args_at[static_cast<std::size_t>(i)];
      StepContext ctx;
      ctx.prev_stores_done =
          k == 0 || prev_stores_done[static_cast<std::size_t>(i)] != 0;
      ctx.prev_loads_done =
          k == 0 || prev_loads_done[static_cast<std::size_t>(i)] != 0;
      ctx.committed_ok =
          k == 0 || prev_confirmed[static_cast<std::size_t>(i)] != 0;
      ctx.alu_granted = config_.num_alus == 0 ||
                        alu_grant[static_cast<std::size_t>(i)] != 0;
      ctx.forwarding_enabled = config_.store_forwarding;
      if (ctx.forwarding_enabled && st.inst().op == isa::Opcode::kLoad &&
          mem_window[static_cast<std::size_t>(k)].addr_known) {
        const auto decision = ResolveLoadForwarding(
            mem_window, static_cast<std::size_t>(k));
        ctx.load_can_proceed = decision.can_proceed;
        ctx.load_forward = decision.forward;
        ctx.forward_value = decision.value;
      }
      const bool was_started = st.started();
      const bool was_finished = st.finished;
      const bool mispredicted =
          StepStation(st, args, ctx, config_.latencies, mem, cycle, i,
                      static_cast<std::uint64_t>(i), inflight, result.stats);
      tel.OnStep(cycle, i, st, was_started, was_finished);
      if (mispredicted) {
        ++result.stats.mispredictions;
        for (int m = k + 1; m < count; ++m) {
          const int vi = (head + m) % n;
          Station& victim = stations[static_cast<std::size_t>(vi)];
          if (victim.valid) {
            ++result.stats.squashed_instructions;
            tel.OnSquash(cycle, vi, victim);
            victim.Clear();
            ++victim.generation;
          }
        }
        count = k + 1;
        fetch.Redirect(st.actual_next_pc);
      }
      }
    }

    // --- Phase 3c: forced mispredictions (fault injection). The recovery
    // machinery exercised is the normal one: squash everything younger
    // than the chosen station and redirect fetch. ---
    if (injector.active()) {
      for (const fault::FaultEvent& e : injector.pending()) {
        if (e.kind != fault::FaultKind::kForceMispredict) continue;
        if (count == 0) {
          injector.NoteMasked();
          continue;
        }
        const int k = e.station % count;
        const int i = (head + k) % n;
        Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid || st.inst().op == isa::Opcode::kHalt) {
          injector.NoteMasked();
          continue;
        }
        // A resolved control transfer replays its known successor; an
        // unresolved one replays the predicted path (if the prediction is
        // wrong the ordinary recovery fires when it resolves); anything
        // else falls through sequentially.
        std::size_t redirect_pc;
        if (isa::IsControlFlow(st.inst().op)) {
          redirect_pc = st.resolved ? st.actual_next_pc
                                    : st.fetched.predicted_next_pc;
        } else {
          redirect_pc = st.fetched.pc + 1;
        }
        injector.NoteForcedMispredict();
        for (int m = k + 1; m < count; ++m) {
          const int vi = (head + m) % n;
          Station& victim = stations[static_cast<std::size_t>(vi)];
          if (victim.valid) {
            ++result.stats.squashed_instructions;
            ++result.stats.fault.squashes;
            tel.OnSquash(cycle, vi, victim);
            packed_clear_slot(vi, victim);
            victim.Clear();
            ++victim.generation;
          }
        }
        count = k + 1;
        fetch.Redirect(redirect_pc);
      }
    }

    // --- Phase 4: commit finished instructions in program order. ---
    bool head_moved = false;
    while (count > 0) {
      Station& st = stations[static_cast<std::size_t>(head)];
      assert(st.valid && "the oldest slot is never a squash victim");
      if (!st.finished) break;
      const isa::Instruction& inst = st.inst();
      if (isa::WritesRd(inst.op)) {
        assert(st.result.ready);
        committed[inst.rd] = st.result;
        committed_at[inst.rd] = cycle;
        if (incremental) dp_state->SetCommitted(inst.rd, st.result);
        // The committed file changed: only the stations between the head
        // and the first in-flight writer of rd resolve against it (younger
        // readers bind to that writer), so only that span re-resolves.
        if (packed) {
          const int nw =
              wmap.NearestWriterAfter(head, static_cast<int>(inst.rd), head);
          wmap.OrReadersInCyclicRange(static_cast<int>(inst.rd),
                                      (head + 1) % n,
                                      nw >= 0 ? (nw + 1) % n : head, stale_b);
        }
      }
      if (isa::IsControlFlow(inst.op)) {
        fetch.NotifyOutcome(st.fetched.pc, st.actual_taken);
      }
      ++result.committed;
      tel.OnCommit(cycle, head, st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      if (packed) packed_clear_slot(head, st);
      st.Clear();
      head = (head + 1) % n;
      head_moved = true;
      --count;
      if (was_halt) {
        done = true;
        result.halted = true;
        break;
      }
    }
    // The station now at the head reads the committed file directly, a
    // different source than the ring resolution its cached args used.
    if (packed && head_moved && count > 0) stale_b.Set(head);

    // --- Phase 5: fetch into freed slots. ---
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
        FillStation(stations[static_cast<std::size_t>(slot)], f, next_seq++);
        tel.OnFetch(cycle, slot, stations[static_cast<std::size_t>(slot)]);
        if (packed) {
          packed_fill_slot(slot, stations[static_cast<std::size_t>(slot)]);
        }
        ++count;
      }
      if (fetch.stalled() && count == 0) {
        // Ran off the end of the program without a halt.
        done = true;
        result.halted = true;
      }
    }
  }

  result.regs.resize(static_cast<std::size_t>(L));
  for (int r = 0; r < L; ++r) {
    result.regs[static_cast<std::size_t>(r)] =
        committed[static_cast<std::size_t>(r)].value;
  }
  result.memory = mem.store().Snapshot();
  tel.FinalizeFaults(result.stats, injector, checker);
  tel.FinalizeMemory(result.stats, mem, fetch);
  return result;
}

}  // namespace ultra::core
