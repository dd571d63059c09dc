#include "core/hybrid_core.hpp"

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
#include "datapath/sequencing.hpp"
#include "fault/fault.hpp"

namespace ultra::core {

RunResult HybridCore::Run(const isa::Program& program) {
  const int C = config_.cluster_size;
  const int K = std::max(1, config_.window_size / C);
  const int n = K * C;  // Effective window (round down to whole clusters).
  const int L = config_.num_regs;
  datapath::HybridDatapath dp(n, L, C);
  memory::MemorySystem mem(config_.mem, n);
  mem.Reset(program.initial_memory());
  FetchEngine fetch(&program, config_, MakePredictor(config_, program));

  // Stations are stored cluster-major in absolute ring positions; program
  // position p (counted from the head cluster's slot 0) maps to station
  // StationIndex(p).
  std::vector<Station> stations(static_cast<std::size_t>(n));
  std::vector<datapath::RegBinding> committed(static_cast<std::size_t>(L));
  for (auto& b : committed) b.ready = true;

  int head_cluster = 0;
  int tail = 0;        // Program positions [0, tail) hold instructions.
  int commit_ptr = 0;  // Positions [0, commit_ptr) are committed.
  std::uint64_t next_seq = 0;
  InflightMap inflight;
  RunResult result;
  bool done = false;

  const auto station_index = [&](int pos) {
    const int cluster = (head_cluster + pos / C) % K;
    return cluster * C + pos % C;
  };

  // Evaluation modes. kPacked and kChecked share one word-parallel cycle
  // loop: sequencing flags, acyclic prefixes, ALU grants and the execute
  // phase's visit set evaluate 64 program positions per word op (the packed
  // lanes are position-indexed, not station-indexed), and argument delivery
  // is event-driven -- each station's resolved arguments are cached and
  // re-resolved, over per-register writer/reader rows, only when their
  // source changes. kChecked adds the DatapathChecker. kIncremental and
  // kFullRecompute run the byte-lane loop over the cluster propagation.
  const bool packed = config_.datapath_eval == DatapathEval::kPacked ||
                      config_.datapath_eval == DatapathEval::kChecked;
  const bool checked = config_.datapath_eval == DatapathEval::kChecked;
  const bool incremental =
      config_.datapath_eval == DatapathEval::kIncremental;

  fault::FaultInjector injector(config_.fault_plan.get());
  fault::DatapathChecker checker(config_.checker_stride);
  std::vector<int> fault_stall(static_cast<std::size_t>(n), 0);

  CoreTelemetry tel(config_);
  // Program-position last writer per register (propagation-distance metric).
  std::vector<int> last_writer(static_cast<std::size_t>(L));

  // Persistent datapath state for the incremental path; a function of the
  // stations and the committed file, so it is built after any restore.
  std::optional<datapath::HybridDatapathState> dp_state;
  // Full-recompute path, and the checker's recomputation target.
  datapath::HybridPropagation prop;

  std::vector<datapath::StationRequest> requests(
      static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_store(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> no_load(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> branch_ok(static_cast<std::size_t>(n));
  // Per-cycle scratch, hoisted out of the loop so the hot path does not
  // touch the allocator (capacity is reused across cycles).
  std::vector<std::uint8_t> prev_stores_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_loads_done(static_cast<std::size_t>(n));
  std::vector<std::uint8_t> prev_confirmed(static_cast<std::size_t>(n));
  std::vector<MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests;
  std::vector<std::uint8_t> alu_grant;  // Indexed by program position.
  std::vector<FetchedInstr> fetch_batch;

  // Packed state (kPacked/kChecked only). The masks, the writer/reader
  // rows and the stale mask live in position space: they shift down by C
  // when a cluster deallocates. The cached arguments, the memory-window
  // entries and mw_stale_b live in station space, which survives
  // renumbering untouched -- a station's cached binding is a value copy,
  // and a deallocated writer's readers re-resolve to the committed file,
  // which that writer's commit made byte-identical to its result.
  // Everything but the cached arguments and the stale set is derived from
  // the stations and rebuilt on restore.
  const int pw = datapath::PackedWordCount(n);
  datapath::PackedBits valid_b, fin_b, iss_b, res_b, msub_b, ld_b, stb_b,
      cf_b, alu_like_b, needs_alu_b, argr_b, cond_b, psd_b, pld_b, pcf_b,
      req_b, grant_b, stall_b, stale_b;
  datapath::PackedWriterMap wmap;
  std::vector<datapath::ResolvedArgs> args_at;
  std::vector<MemWindowEntry> mem_window_sta;
  datapath::PackedBits mw_stale_b;  // Station-indexed, unlike stale_b.
  if (packed) {
    for (auto* p : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
                    &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &cond_b,
                    &psd_b, &pld_b, &pcf_b, &req_b, &grant_b, &stall_b,
                    &stale_b, &mw_stale_b}) {
      p->Assign(n);
    }
    wmap.Assign(n, L);
    args_at.resize(static_cast<std::size_t>(n));
    mem_window_sta.resize(static_cast<std::size_t>(n));
  }
  // Live-lane mask for word @p w given @p limit live positions.
  const auto live_word_mask = [](int w, int limit) -> std::uint64_t {
    const int base = w << 6;
    if (base >= limit) return 0;
    const int lanes = limit - base;
    return lanes >= 64 ? ~0ULL : ((1ULL << lanes) - 1);
  };
  const bool fwd = config_.store_forwarding;

  // Byte-lane loop: station @p i's arguments from the propagation.
  const auto args_of = [&](int i) -> const datapath::ResolvedArgs& {
    return incremental ? dp_state->args(i)
                       : prop.args[static_cast<std::size_t>(i)];
  };
  const auto build_requests = [&] {
    for (int i = 0; i < n; ++i) {
      datapath::StationRequest& req = requests[static_cast<std::size_t>(i)];
      req = datapath::StationRequest{};
      const Station& st = stations[static_cast<std::size_t>(i)];
      if (st.valid) {
        const isa::Instruction& inst = st.inst();
        req.reads1 = isa::ReadsRs1(inst.op);
        req.arg1 = inst.rs1;
        req.reads2 = isa::ReadsRs2(inst.op);
        req.arg2 = inst.rs2;
        req.writes = isa::WritesRd(inst.op);
        req.dest = inst.rd;
        req.result = st.result;
      }
    }
  };

  // Packed event helpers, keyed by (position, station). Clearing must run
  // while the station still holds its instruction. An injected stall
  // sticks to its station, so a fill re-derives the position's stall lane.
  const auto packed_clear_slot = [&](int p, int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    if (isa::WritesRd(inst.op)) wmap.ClearWriter(p, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.ClearReader(p, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.ClearReader(p, inst.rs2);
    for (auto* m : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b, &stb_b,
                    &cf_b, &alu_like_b, &needs_alu_b, &argr_b, &stall_b,
                    &stale_b}) {
      m->Clear(p);
    }
    mw_stale_b.Clear(i);
    args_at[static_cast<std::size_t>(i)] = datapath::ResolvedArgs{};
    if (fwd) mem_window_sta[static_cast<std::size_t>(i)] = MemWindowEntry{};
  };
  const auto packed_fill_slot = [&](int p, int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    valid_b.Set(p);
    const isa::Opcode op = inst.op;
    if (op == isa::Opcode::kLoad) {
      ld_b.Set(p);
    } else if (op == isa::Opcode::kStore) {
      stb_b.Set(p);
    } else {
      alu_like_b.Set(p);
    }
    if (isa::IsControlFlow(op)) cf_b.Set(p);
    if (NeedsAlu(op)) needs_alu_b.Set(p);
    if (isa::WritesRd(op)) wmap.SetWriter(p, inst.rd);
    if (isa::ReadsRs1(op)) wmap.AddReader(p, inst.rs1);
    if (isa::ReadsRs2(op)) wmap.AddReader(p, inst.rs2);
    stall_b.SetTo(p, fault_stall[static_cast<std::size_t>(i)] > 0);
    stale_b.Set(p);
    if (fwd) mw_stale_b.Set(i);
  };
  // Position @p p's result binding for register @p r changed: only the
  // readers between p and the next writer of r (inclusive -- a position
  // both reading and writing r resolves its read against the previous
  // writer) see a different source. Acyclic position order.
  const auto mark_result_change = [&](int p, isa::RegId r) {
    const int nw = datapath::LowestSetInRange(
        wmap.writers(static_cast<int>(r)), p + 1, n);
    wmap.OrReadersInCyclicRange(static_cast<int>(r), p + 1,
                                nw >= 0 ? nw + 1 : 0, stale_b);
  };
  // Invert station_index: absolute station slot -> program position.
  const auto position_of = [&](int i) {
    return ((i / C - head_cluster + K) % K) * C + i % C;
  };
  // The cached arguments of station @p i, at position @p p, were
  // (re)written: refresh its readiness lane, and its memory-window entry
  // when they @p moved.
  const auto args_written = [&](int p, int i, bool moved) {
    const isa::Instruction& inst = stations[static_cast<std::size_t>(i)].inst();
    const datapath::ResolvedArgs& args = args_at[static_cast<std::size_t>(i)];
    argr_b.SetTo(p, (!isa::ReadsRs1(inst.op) || args.arg1.ready) &&
                        (!isa::ReadsRs2(inst.op) || args.arg2.ready));
    if (fwd && moved) mw_stale_b.Set(i);
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
        const int p = position_of(i);
        if (e.kind == fault::FaultKind::kStallStation) {
          fault_stall[static_cast<std::size_t>(i)] +=
              static_cast<int>(e.payload % 8) + 1;
          if (p < tail) stall_b.Set(p);
          injector.NoteStall();
        } else if (fault::TargetsDatapath(e.kind) && p < tail) {
          args_written(p, i, true);
        }
      }
    }
    if (!checked || !checker.Due(cycle, injector.HasHazardousPending())) {
      return;
    }
    checker.RecordCheck();
    tel.OnCheckerCheck(cycle);
    // Recompute every uncommitted station's arguments with the full cluster
    // propagation and overwrite the cached ones that differ.
    build_requests();
    prop = dp.Propagate(committed, requests, head_cluster);
    std::uint64_t mismatched = 0;
    for (int p = commit_ptr; p < tail; ++p) {
      const int i = station_index(p);
      const Station& st = stations[static_cast<std::size_t>(i)];
      const datapath::ResolvedArgs& full =
          prop.args[static_cast<std::size_t>(i)];
      datapath::ResolvedArgs truth;
      if (isa::ReadsRs1(st.inst().op)) truth.arg1 = full.arg1;
      if (isa::ReadsRs2(st.inst().op)) truth.arg2 = full.arg2;
      datapath::ResolvedArgs& seen = args_at[static_cast<std::size_t>(i)];
      if (seen == truth) continue;
      mismatched += (seen.arg1 != truth.arg1) + (seen.arg2 != truth.arg2);
      seen = truth;
      args_written(p, i, true);
    }
    if (mismatched > 0) {
      checker.RecordDivergence(cycle, mismatched);
      tel.OnCheckerResync(cycle, mismatched);
    }
  };

  CheckpointSession ckpt(config_, ProcessorKind::kHybrid, program);
  const auto save_state = [&](persist::Encoder& e) {
    for (const Station& st : stations) SaveStation(e, st);
    for (const auto& b : committed) datapath::Save(e, b);
    e.I32(head_cluster);
    e.I32(tail);
    e.I32(commit_ptr);
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
    head_cluster = d.I32();
    tail = d.I32();
    commit_ptr = d.I32();
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
      for (int p = 0; p < tail; ++p) {
        const int i = station_index(p);
        const Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid) continue;
        packed_fill_slot(p, i, st);
        fin_b.SetTo(p, st.finished);
        iss_b.SetTo(p, st.issued);
        res_b.SetTo(p, st.resolved);
        msub_b.SetTo(p, st.mem_submitted);
      }
      RestorePackedArgs(d, args_at, stale_b);
      for (int p = 0; p < tail; ++p) {
        if (stations[static_cast<std::size_t>(station_index(p))].valid) {
          args_written(p, station_index(p), false);
        }
      }
    }
    if (!d.AtEnd()) {
      throw persist::FormatError("trailing checkpoint bytes");
    }
    start_cycle = ckpt.resume()->header.cycle;
  }
  if (incremental) {
    dp_state.emplace(n, L, C);
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
    tel.OnCycle(cycle, tail - commit_ptr);

    // --- Phase 1: combinational propagation (end-of-last-cycle state). ---
    if (packed) {
      // Event-driven delivery: re-resolve only the positions whose
      // argument source changed since the last cycle (writer result
      // movement, their own fill, or a squash). Stations are untouched
      // since the end of the previous cycle, so this drain sees exactly
      // the snapshot the mesh propagation would have delivered.
      ForEachSetBit(stale_b, [&](int p) {
        const int i = station_index(p);
        const Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid) return;
        const isa::Instruction& inst = st.inst();
        datapath::ResolvedArgs args;
        // The nearest preceding writer's binding, verbatim (ready or
        // not); committed stations keep driving the ring until their
        // cluster deallocates, and a reader with no preceding writer
        // takes the committed file.
        const auto read = [&](isa::RegId r) -> datapath::RegBinding {
          const int j =
              wmap.NearestWriterBeforeAcyclic(p, static_cast<int>(r));
          return j >= 0
                     ? stations[static_cast<std::size_t>(station_index(j))]
                           .result
                     : committed[r];
        };
        if (isa::ReadsRs1(inst.op)) args.arg1 = read(inst.rs1);
        if (isa::ReadsRs2(inst.op)) args.arg2 = read(inst.rs2);
        args_at[static_cast<std::size_t>(i)] = args;
        args_written(p, i, true);
      });
      stale_b.ClearAll();
      // --- Phase 1b: fault injection + self-checking. ---
      inject_and_check(cycle);
    } else {
      build_requests();
      if (incremental) {
        dp_state->SetOldestCluster(head_cluster);
        for (int i = 0; i < n; ++i) {
          dp_state->SetStation(i, requests[static_cast<std::size_t>(i)]);
        }
        dp.PropagateIncremental(*dp_state);
      } else {
        prop = dp.Propagate(committed, requests, head_cluster);
      }
    }

    // Propagation distances in program order: positions crossed from each
    // operand's nearest preceding writer (committed stations still drive
    // the ring until their cluster is freed), or from the committed file at
    // the head cluster when no station in the window writes the register.
    if (tel.metrics_on()) {
      std::fill(last_writer.begin(), last_writer.end(), -1);
      for (int p = 0; p < tail; ++p) {
        const Station& st =
            stations[static_cast<std::size_t>(station_index(p))];
        if (!st.valid) continue;
        const isa::Instruction& inst = st.inst();
        if (p >= commit_ptr) {
          if (isa::ReadsRs1(inst.op)) {
            const int j = last_writer[static_cast<std::size_t>(inst.rs1)];
            tel.OnDistance(j >= 0 ? p - j : p + 1);
          }
          if (isa::ReadsRs2(inst.op)) {
            const int j = last_writer[static_cast<std::size_t>(inst.rs2)];
            tel.OnDistance(j >= 0 ? p - j : p + 1);
          }
        }
        if (isa::WritesRd(inst.op)) {
          last_writer[static_cast<std::size_t>(inst.rd)] = p;
        }
      }
    }

    // Sequencing flags in program order over the allocated positions.
    if (packed) {
      // Stale lanes >= tail cannot influence the acyclic prefixes (they
      // only look backward), and every other reduction masks them out.
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
      for (int p = 0; p < tail; ++p) {
        const Station& st =
            stations[static_cast<std::size_t>(station_index(p))];
        const bool is_store = st.valid && st.inst().op == isa::Opcode::kStore;
        const bool is_load = st.valid && st.inst().op == isa::Opcode::kLoad;
        no_store[static_cast<std::size_t>(p)] = !is_store || st.finished;
        no_load[static_cast<std::size_t>(p)] = !is_load || st.finished;
        branch_ok[static_cast<std::size_t>(p)] =
            !st.valid || !isa::IsControlFlow(st.inst().op) || st.resolved;
      }
      const std::span<const std::uint8_t> live_store(
          no_store.data(), static_cast<std::size_t>(tail));
      const std::span<const std::uint8_t> live_load(
          no_load.data(), static_cast<std::size_t>(tail));
      const std::span<const std::uint8_t> live_branch(
          branch_ok.data(), static_cast<std::size_t>(tail));
      datapath::AllPrecedingSatisfyAcyclicInto(
          live_store,
          std::span<std::uint8_t>(prev_stores_done.data(),
                                  static_cast<std::size_t>(tail)));
      datapath::AllPrecedingSatisfyAcyclicInto(
          live_load, std::span<std::uint8_t>(prev_loads_done.data(),
                                             static_cast<std::size_t>(tail)));
      datapath::AllPrecedingSatisfyAcyclicInto(
          live_branch,
          std::span<std::uint8_t>(prev_confirmed.data(),
                                  static_cast<std::size_t>(tail)));
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
          const int i = static_cast<int>(tag.tag);
          const int p = position_of(i);
          if (p < tail) {
            // The load's result binding just became ready: its readers
            // re-resolve at the next phase-1 drain, exactly when the
            // propagation would have delivered the new value.
            fin_b.Set(p);
            if (isa::WritesRd(st.inst().op)) {
              mark_result_change(p, st.inst().rd);
            }
            if (fwd) mw_stale_b.Set(i);
          }
        }
        tel.OnMemComplete(cycle, static_cast<int>(tag.tag), st, was_finished);
      }
    }

    // --- Phase 3: execute in program order. ---
    const int live = tail;
    if (fwd) {
      if (packed) {
        // Refresh only the station-indexed window entries whose station or
        // arguments moved -- after phase 2, so this cycle's memory
        // completions are visible to disambiguation, as in the rebuilt
        // window below.
        ForEachSetBit(mw_stale_b, [&](int i) {
          mem_window_sta[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
              stations[static_cast<std::size_t>(i)],
              args_at[static_cast<std::size_t>(i)]);
        });
        mw_stale_b.ClearAll();
      } else {
        mem_window.assign(static_cast<std::size_t>(live), MemWindowEntry{});
        for (int p = 0; p < live; ++p) {
          const int i = station_index(p);
          mem_window[static_cast<std::size_t>(p)] = MakeMemWindowEntry(
              stations[static_cast<std::size_t>(i)], args_of(i));
        }
      }
    }
    if (config_.num_alus > 0) {
      if (packed) {
        int occupied = 0;
        for (int w = 0; w < pw; ++w) {
          const std::uint64_t lm = live_word_mask(w, live);
          occupied += std::popcount(needs_alu_b.word(w) & iss_b.word(w) &
                                    ~fin_b.word(w) & lm);
          req_b.word(w) = needs_alu_b.word(w) & ~iss_b.word(w) &
                          ~fin_b.word(w) & argr_b.word(w) & lm;
        }
        datapath::AluScheduler::PackedGrantAcyclicInto(
            req_b, std::max(0, config_.num_alus - occupied), grant_b);
      } else {
        alu_requests.assign(static_cast<std::size_t>(live), 0);
        int occupied = 0;
        for (int p = 0; p < live; ++p) {
          const Station& st =
              stations[static_cast<std::size_t>(station_index(p))];
          alu_requests[static_cast<std::size_t>(p)] =
              WantsAlu(st, args_of(station_index(p)));
          if (st.valid && st.issued && !st.finished &&
              NeedsAlu(st.inst().op)) {
            ++occupied;
          }
        }
        alu_grant.resize(static_cast<std::size_t>(live));
        datapath::AluScheduler::GrantAcyclicInto(
            alu_requests, std::max(0, config_.num_alus - occupied),
            alu_grant);
      }
    }
    if (packed) {
      // Visit only stations whose StepStation call would act (the mask
      // mirrors its no-op predicate exactly, so skipping is identical),
      // plus unfinished stations serving an injected stall, which sit the
      // cycle out and count it down. With store forwarding on, a load's
      // gate is its disambiguation decision rather than the
      // prev-stores-done prefix, so the load term drops psd (an
      // undecidable load is visited and no-ops).
      int p0 = commit_ptr;
      bool squashed = false;
      while (p0 < tail && !squashed) {
        const int w = p0 >> 6;
        const int lo = p0 & 63;
        const int hi = std::min(64, tail - (w << 6));
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
            (stall_b.word(w) & valid_b.word(w) & ~fin_b.word(w));
        const int cw = hi - lo;
        mv &= (cw == 64 ? ~0ULL : ((1ULL << cw) - 1)) << lo;
        while (mv != 0) {
          const int b = std::countr_zero(mv);
          mv &= mv - 1;
          const int p = (w << 6) + b;
          const int i = station_index(p);
          if (stall_b.Test(p)) {
            // Injected stall: the station sits this cycle out.
            if (--fault_stall[static_cast<std::size_t>(i)] == 0) {
              stall_b.Clear(p);
            }
            continue;
          }
          Station& st = stations[static_cast<std::size_t>(i)];
          StepContext ctx;
          ctx.prev_stores_done = psd_b.Test(p);
          ctx.prev_loads_done = pld_b.Test(p);
          ctx.committed_ok = pcf_b.Test(p);
          ctx.alu_granted = config_.num_alus == 0 || grant_b.Test(p);
          ctx.forwarding_enabled = fwd;
          if (fwd && st.inst().op == isa::Opcode::kLoad &&
              mem_window_sta[static_cast<std::size_t>(i)].addr_known) {
            const auto decision = ResolveLoadForwardingMapped(
                [&](std::size_t k) -> const MemWindowEntry& {
                  return mem_window_sta[static_cast<std::size_t>(
                      station_index(static_cast<int>(k)))];
                },
                static_cast<std::size_t>(p));
            ctx.load_can_proceed = decision.can_proceed;
            ctx.load_forward = decision.forward;
            ctx.forward_value = decision.value;
          }
          const bool was_started = st.started();
          const bool was_finished = st.finished;
          const datapath::RegBinding pre_result = st.result;
          const bool mispredicted = StepStation(
              st, args_at[static_cast<std::size_t>(i)], ctx,
              config_.latencies, mem, cycle, i, static_cast<std::uint64_t>(i),
              inflight, result.stats);
          tel.OnStep(cycle, i, st, was_started, was_finished);
          iss_b.SetTo(p, st.issued);
          fin_b.SetTo(p, st.finished);
          res_b.SetTo(p, st.resolved);
          msub_b.SetTo(p, st.mem_submitted);
          if (st.result != pre_result && isa::WritesRd(st.inst().op)) {
            mark_result_change(p, st.inst().rd);
          }
          if (fwd) mw_stale_b.Set(i);
          if (mispredicted) {
            ++result.stats.mispredictions;
            for (int m = p + 1; m < tail; ++m) {
              const int vi = station_index(m);
              Station& victim = stations[static_cast<std::size_t>(vi)];
              if (victim.valid) {
                ++result.stats.squashed_instructions;
                tel.OnSquash(cycle, vi, victim);
                packed_clear_slot(m, vi, victim);
                victim.Clear();
                ++victim.generation;
              }
            }
            tail = p + 1;
            fetch.Redirect(st.actual_next_pc);
            squashed = true;
            break;
          }
        }
        p0 = (w << 6) + hi;
      }
    } else {
    for (int p = commit_ptr; p < live; ++p) {
      const int i = station_index(p);
      Station& st = stations[static_cast<std::size_t>(i)];
      if (!st.valid || st.finished) continue;
      StepContext ctx;
      ctx.prev_stores_done =
          prev_stores_done[static_cast<std::size_t>(p)] != 0;
      ctx.prev_loads_done = prev_loads_done[static_cast<std::size_t>(p)] != 0;
      ctx.committed_ok = prev_confirmed[static_cast<std::size_t>(p)] != 0;
      ctx.alu_granted = config_.num_alus == 0 ||
                        alu_grant[static_cast<std::size_t>(p)] != 0;
      ctx.forwarding_enabled = config_.store_forwarding;
      if (ctx.forwarding_enabled && st.inst().op == isa::Opcode::kLoad &&
          mem_window[static_cast<std::size_t>(p)].addr_known) {
        const auto decision =
            ResolveLoadForwarding(mem_window, static_cast<std::size_t>(p));
        ctx.load_can_proceed = decision.can_proceed;
        ctx.load_forward = decision.forward;
        ctx.forward_value = decision.value;
      }
      const bool was_started = st.started();
      const bool was_finished = st.finished;
      const bool mispredicted = StepStation(
          st, args_of(i), ctx, config_.latencies, mem, cycle, i,
          static_cast<std::uint64_t>(i), inflight, result.stats);
      tel.OnStep(cycle, i, st, was_started, was_finished);
      if (mispredicted) {
        ++result.stats.mispredictions;
        for (int m = p + 1; m < tail; ++m) {
          const int vi = station_index(m);
          Station& victim = stations[static_cast<std::size_t>(vi)];
          if (victim.valid) {
            ++result.stats.squashed_instructions;
            tel.OnSquash(cycle, vi, victim);
            victim.Clear();
            ++victim.generation;
          }
        }
        tail = p + 1;
        fetch.Redirect(st.actual_next_pc);
      }
    }
    }

    // Forced mispredictions (fault injection): squash + redirect through
    // the normal recovery machinery.
    if (injector.active()) {
      for (const fault::FaultEvent& e : injector.pending()) {
        if (e.kind != fault::FaultKind::kForceMispredict) continue;
        if (tail <= commit_ptr) {
          injector.NoteMasked();
          continue;
        }
        const int p = commit_ptr + e.station % (tail - commit_ptr);
        Station& st =
            stations[static_cast<std::size_t>(station_index(p))];
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
        for (int m = p + 1; m < tail; ++m) {
          const int vi = station_index(m);
          Station& victim = stations[static_cast<std::size_t>(vi)];
          if (victim.valid) {
            ++result.stats.squashed_instructions;
            ++result.stats.fault.squashes;
            tel.OnSquash(cycle, vi, victim);
            packed_clear_slot(m, vi, victim);
            victim.Clear();
            ++victim.generation;
          }
        }
        tail = p + 1;
        fetch.Redirect(redirect_pc);
      }
    }

    // --- Phase 4: commit in program order; free whole clusters. ---
    while (commit_ptr < tail) {
      Station& st =
          stations[static_cast<std::size_t>(station_index(commit_ptr))];
      assert(st.valid);
      if (!st.finished) break;
      const isa::Instruction& inst = st.inst();
      if (isa::WritesRd(inst.op)) {
        assert(st.result.ready);
        committed[inst.rd] = st.result;
        if (incremental) dp_state->SetCommitted(inst.rd, st.result);
        // Packed loop: no reader re-resolution is needed at commit. The
        // committing writer's station keeps driving the ring until its
        // cluster deallocates, so every in-window reader's nearest
        // preceding writer -- and the binding it delivers -- is unchanged.
      }
      if (isa::IsControlFlow(inst.op)) {
        fetch.NotifyOutcome(st.fetched.pc, st.actual_taken);
      }
      ++result.committed;
      tel.OnCommit(cycle, station_index(commit_ptr), st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      ++commit_ptr;
      if (was_halt) {
        done = true;
        result.halted = true;
        break;
      }
    }
    // A fully committed head cluster is deallocated as a unit and becomes
    // available for refilling (the "super execution station" reuse rule).
    while (commit_ptr >= C) {
      for (int s = 0; s < C; ++s) {
        const int i = head_cluster * C + s;
        Station& st = stations[static_cast<std::size_t>(i)];
        if (packed) {
          // Station-indexed caches are cleared point-wise; the slot is
          // about to be refilled with a new instruction.
          mw_stale_b.Clear(i);
          args_at[static_cast<std::size_t>(i)] = datapath::ResolvedArgs{};
          if (fwd) mem_window_sta[static_cast<std::size_t>(i)] =
              MemWindowEntry{};
        }
        st.Clear();
        ++st.generation;
      }
      if (packed) {
        // Every live position renumbers down by C. No reader goes stale:
        // a reader whose nearest preceding writer just deallocated must
        // have been reading r's last committed writer, whose commit made
        // committed[r] byte-identical to the binding it was delivering --
        // so re-resolving to the committed file yields the same value.
        // Cached arguments are value copies and survive untouched.
        for (auto* m : {&valid_b, &fin_b, &iss_b, &res_b, &msub_b, &ld_b,
                        &stb_b, &cf_b, &alu_like_b, &needs_alu_b, &argr_b,
                        &stall_b, &stale_b}) {
          datapath::PackedShiftDown(*m, C);
        }
        wmap.ShiftDown(C);
      }
      head_cluster = (head_cluster + 1) % K;
      commit_ptr -= C;
      tail -= C;
    }

    // --- Phase 5: fetch. ---
    if (!done) {
      const int free = n - tail;
      if (free == 0) ++result.stats.window_full_cycles;
      const int width = std::min(config_.EffectiveFetchWidth(), free);
      fetch.FetchCycle(width, fetch_batch);
      if (fetch_batch.empty() && free > 0 && tail > commit_ptr &&
          !fetch.stalled()) {
        ++result.stats.fetch_stall_cycles;
      }
      for (const auto& f : fetch_batch) {
        const int slot = station_index(tail);
        FillStation(stations[static_cast<std::size_t>(slot)], f, next_seq++);
        tel.OnFetch(cycle, slot, stations[static_cast<std::size_t>(slot)]);
        if (packed) {
          packed_fill_slot(tail, slot,
                           stations[static_cast<std::size_t>(slot)]);
        }
        ++tail;
      }
      if (fetch.stalled() && commit_ptr == tail) {
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
