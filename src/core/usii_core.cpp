#include "core/usii_core.hpp"

#include <cassert>

#include "core/cycle_engine.hpp"
#include "datapath/datapath.hpp"
#include "datapath/packed_resolve.hpp"

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
  CycleEngine eng(config_, ProcessorKind::kUltrascalarII, program, n, true);
  std::vector<Station>& stations = eng.stations;
  CoreTelemetry& tel = eng.tel;

  std::vector<datapath::RegBinding> regfile(static_cast<std::size_t>(L));
  for (auto& b : regfile) b.ready = true;

  int fill = 0;  // Slots [0, fill) of the current batch hold instructions.
  // Batch position is program order and station index alike.
  const auto batch = [](int p) { return p; };

  // Evaluation modes. kPacked and kChecked share one word-parallel cycle
  // loop: sequencing flags, acyclic prefixes, ALU grants and the execute
  // phase's visit set evaluate 64 stations per word op, and argument
  // delivery is event-driven -- each slot's resolved arguments are cached
  // and re-resolved, over per-register writer/reader rows, only when their
  // source changes. kChecked adds the DatapathChecker. kIncremental and
  // kFullRecompute run the byte-lane loop over the mesh propagation.
  const bool packed = config_.datapath_eval == DatapathEval::kPacked ||
                      config_.datapath_eval == DatapathEval::kChecked;
  const bool incremental =
      config_.datapath_eval == DatapathEval::kIncremental;
  const bool have_grants = config_.num_alus > 0;
  const bool fwd = eng.forwarding;

  // Batch-position last writer per register (propagation-distance metric).
  std::vector<int> last_writer(static_cast<std::size_t>(L));

  const std::size_t nz = static_cast<std::size_t>(n);
  std::vector<datapath::StationRequest> requests(nz);
  // Per-cycle scratch, hoisted out of the loop so the hot path does not
  // touch the allocator (capacity is reused across cycles). The
  // incremental path memoizes prop: it is a pure function of (regfile,
  // requests), so a restore simply recomputes it.
  std::vector<std::uint8_t> no_store(nz), no_load(nz), branch_ok(nz),
      prev_stores_done(nz), prev_loads_done(nz), prev_confirmed(nz);
  datapath::UsiiPropagation prop;  // Reused output buffer.
  bool prop_valid = false;   // prop matches the current (regfile, requests).
  bool regfile_changed = true;
  std::vector<MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests;
  std::vector<std::uint8_t> alu_grant;

  // Packed state (kPacked/kChecked only): the lanes, the writer/reader rows
  // that answer "whose value does slot i read?", the cached resolved
  // arguments per batch slot, and a slot-indexed memory window (batch
  // position IS age order here, so the forwarding walk reads it directly).
  // Everything but the cached arguments and the stale set is derived from
  // the stations and rebuilt on restore.
  PackedLanes lanes(packed ? n : 0);
  datapath::PackedWriterMap wmap;
  std::vector<datapath::ResolvedArgs> args_at;
  std::vector<MemWindowEntry> mem_window_pos;
  if (packed) {
    wmap.Assign(n, L);
    args_at.resize(nz);
    mem_window_pos.resize(nz);
  }

  // Packed event helpers; clearing must run while the station still holds
  // its instruction (rows are keyed by its register fields).
  const auto packed_clear_slot = [&](int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    if (isa::WritesRd(inst.op)) wmap.ClearWriter(i, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.ClearReader(i, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.ClearReader(i, inst.rs2);
    lanes.Clear(i);
    lanes.stale.Clear(i);
    lanes.mw_stale.Clear(i);
    args_at[static_cast<std::size_t>(i)] = datapath::ResolvedArgs{};
    if (fwd) mem_window_pos[static_cast<std::size_t>(i)] = MemWindowEntry{};
  };
  const auto packed_fill_slot = [&](int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    lanes.Fill(i, st);
    if (isa::WritesRd(inst.op)) wmap.SetWriter(i, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.AddReader(i, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.AddReader(i, inst.rs2);
    lanes.stale.Set(i);
    if (fwd) lanes.mw_stale.Set(i);
  };
  // A squash victim or a forced-mispredict victim leaves the batch.
  const auto drop = [&](int, int i, Station& victim) {
    if (packed) packed_clear_slot(i, victim);
    victim.Evict();
  };
  // Slot @p j's result binding for register @p r changed: only the readers
  // between j and the next writer of r (inclusive -- a slot both reading
  // and writing r resolves its read against the previous writer) see a
  // different source. Acyclic program order, so no wraparound.
  const auto mark_result_change = [&](int j, isa::RegId r) {
    const int nw = datapath::LowestSetInRange(
        wmap.writers(static_cast<int>(r)), j + 1, n);
    wmap.OrReadersInCyclicRange(static_cast<int>(r), j + 1,
                                nw >= 0 ? nw + 1 : 0, lanes.stale);
  };
  // Slot @p i's cached arguments were (re)written: refresh its readiness
  // lane, and its memory-window entry when they @p moved.
  const auto args_written = [&](int i, bool moved) {
    const isa::Instruction& inst = stations[static_cast<std::size_t>(i)].inst();
    const datapath::ResolvedArgs& args = args_at[static_cast<std::size_t>(i)];
    lanes.args_ready.SetTo(i, (!isa::ReadsRs1(inst.op) || args.arg1.ready) &&
                                  (!isa::ReadsRs2(inst.op) || args.arg2.ready));
    if (fwd && moved) lanes.mw_stale.Set(i);
  };
  // Fault injection and self-checking (packed loop only), once the cycle's
  // arguments are final and before the batch latch or any station reads
  // them. The checker recomputes every slot's arguments with the full mesh
  // propagation.
  const auto inject_and_check = [&](std::uint64_t cycle) {
    eng.InjectFaults(
        cycle, args_at, [&](int i) { lanes.stall.Set(i); },
        [&](int i) {
          if (stations[static_cast<std::size_t>(i)].valid) {
            args_written(i, true);
          }
        });
    eng.Check(cycle, [&] {
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
        mismatched += CycleEngine::Resync(seen, truth);
        args_written(i, true);
      }
      return mismatched;
    });
  };
  // Grid distance to each operand's source: rows crossed from the nearest
  // preceding writer, or from the register file (one row above the batch)
  // when no station in the batch writes it.
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

  const auto save_head = [&](persist::Encoder& e) {
    for (const Station& st : stations) SaveStation(e, st);
    for (const auto& b : regfile) datapath::Save(e, b);
    e.I32(fill);
  };
  const auto save_trailer = [&](persist::Encoder& e) {
    if (packed) SavePackedArgs(e, args_at, lanes.stale);
  };
  eng.Restore(
      [&](persist::Decoder& d) {
        for (Station& st : stations) RestoreStation(d, st);
        for (auto& b : regfile) datapath::Restore(d, b);
        fill = d.I32();
      },
      [&](persist::Decoder& d) {
        if (!packed) return;
        // Rebuild the derived packed state from the restored stations, then
        // take the cached arguments and the stale set verbatim.
        for (int i = 0; i < n; ++i) {
          if (eng.fault_stall[static_cast<std::size_t>(i)] > 0) {
            lanes.stall.Set(i);
          }
          const Station& st = stations[static_cast<std::size_t>(i)];
          if (st.valid) packed_fill_slot(i, st);
        }
        RestorePackedArgs(d, args_at, lanes.stale);
        for (int i = 0; i < n; ++i) {
          if (stations[static_cast<std::size_t>(i)].valid) {
            args_written(i, false);
          }
        }
      });

  for (std::uint64_t cycle = eng.start_cycle();
       eng.BeginCycle(cycle, fill, save_head, save_trailer); ++cycle) {
    // --- Phase 1: combinational propagation and batch-completion check,
    // both against end-of-last-cycle state. ---
    bool all_finished = true;
    bool any_valid = false;
    if (tel.metrics_on()) {
      std::fill(last_writer.begin(), last_writer.end(), -1);
    }
    if (packed) {
      // Event-driven delivery: the lanes carry end-of-last-cycle state, so
      // batch completion is a word scan and only slots whose argument
      // source changed since the last cycle re-resolve.
      for (int w = 0; w < lanes.valid.num_words(); ++w) {
        const std::uint64_t v = lanes.valid.word(w);
        if (v != 0) any_valid = true;
        if ((v & ~lanes.finished.word(w)) != 0) all_finished = false;
      }
      if (tel.metrics_on()) {
        for (int i = 0; i < fill; ++i) {
          const Station& st = stations[static_cast<std::size_t>(i)];
          if (st.valid) record_distances(i, st);
        }
      }
      ForEachSetBit(lanes.stale, [&](int i) {
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
      lanes.stale.ClearAll();
      // --- Phase 1b: fault injection + self-checking. ---
      inject_and_check(cycle);
      lanes.OrderPrefixes(-1);
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
      datapath::AllPrecedingSatisfyAcyclicInto(no_store, prev_stores_done);
      datapath::AllPrecedingSatisfyAcyclicInto(no_load, prev_loads_done);
      datapath::AllPrecedingSatisfyAcyclicInto(branch_ok, prev_confirmed);
    }

    // The batch completes once every station is finished and no more
    // instructions are on the way into it ("At that time, the final values
    // are latched into the register file. The stations refill ... and
    // computation resumes.").
    const bool batch_complete =
        any_valid && all_finished && (fill == n || eng.fetch.stalled());
    if (batch_complete) {
      for (int r = 0; r < L; ++r) {
        if (packed) {
          // Each register's final value comes from its last in-batch
          // writer; unwritten registers keep their incoming file value,
          // matching the propagation's final row.
          const int j = wmap.HighestWriter(r);
          if (j < 0) continue;
          assert(stations[static_cast<std::size_t>(j)].result.ready);
          regfile[static_cast<std::size_t>(r)] =
              stations[static_cast<std::size_t>(j)].result;
        } else {
          assert(prop.final_regs[static_cast<std::size_t>(r)].ready);
          regfile[static_cast<std::size_t>(r)] =
              prop.final_regs[static_cast<std::size_t>(r)];
        }
      }
      regfile_changed = true;
      const std::uint64_t committed_before = eng.result.committed;
      for (int i = 0; i < fill && !eng.done; ++i) {
        Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid) continue;
        eng.Retire(cycle, i, st);
        if (st.inst().op == isa::Opcode::kHalt) eng.Halt();
        st.Evict();
      }
      tel.OnBatchRetire(cycle, eng.result.committed - committed_before);
      for (auto& st : stations) {
        if (st.valid) st.Evict();
      }
      if (packed) {
        // The whole batch left at once: reset the packed state wholesale
        // instead of slot-by-slot. The stall lanes survive -- pending
        // injected stalls stick to the slot and hit its next occupant.
        wmap.ClearAllRows();
        lanes.ClearAll();
        lanes.stale.ClearAll();
        lanes.mw_stale.ClearAll();
      }
      fill = 0;
    }

    // --- Phase 2: memory responses. ---
    eng.DrainMemory(
        cycle, [&](const MemTag& tag) { return eng.SlotByGeneration(tag); },
        [&](int i, const Station& st) {
          if (!packed) return;
          // The load's result binding just became ready: its readers
          // re-resolve at the next phase-1 drain, exactly when the
          // propagation would deliver the new value.
          lanes.finished.Set(i);
          if (isa::WritesRd(st.inst().op)) mark_result_change(i, st.inst().rd);
          if (fwd) lanes.mw_stale.Set(i);
        });

    // --- Phase 3: execute, in program order within the batch, and the
    // forced mispredictions; a batch-retire cycle skips both. ---
    if (!batch_complete && !eng.done) {
      if (packed) {
        // Refresh only the window entries whose station or arguments moved
        // -- after phase 2, so this cycle's memory completions are visible
        // to disambiguation, as in the rebuilt window below.
        if (fwd) {
          ForEachSetBit(lanes.mw_stale, [&](int i) {
            mem_window_pos[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
                stations[static_cast<std::size_t>(i)],
                args_at[static_cast<std::size_t>(i)]);
          });
          lanes.mw_stale.ClearAll();
        }
        if (have_grants) lanes.GrantAlus(config_.num_alus, -1, n);
        const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
          return mem_window_pos[a];
        };
        lanes.ForEachMustVisit(0, fill, fwd, have_grants, false, [&](int i) {
          if (eng.SitOut(lanes, i, i)) return true;
          Station& st = stations[static_cast<std::size_t>(i)];
          const datapath::RegBinding pre_result = st.result;
          const bool mispredicted =
              eng.Step(cycle, i, st, args_at[static_cast<std::size_t>(i)],
                       lanes.OrderAt(i, have_grants), entry_at, i, i,
                       static_cast<std::uint64_t>(i));
          lanes.Sync(i, st);
          if (st.result != pre_result && isa::WritesRd(st.inst().op)) {
            mark_result_change(i, st.inst().rd);
          }
          if (fwd) lanes.mw_stale.Set(i);
          if (!mispredicted) return true;
          eng.Squash(cycle, i, fill, st.actual_next_pc, false, batch, drop);
          return false;
        });
      } else {
        if (fwd) {
          mem_window.assign(static_cast<std::size_t>(fill), MemWindowEntry{});
          for (int i = 0; i < fill; ++i) {
            mem_window[static_cast<std::size_t>(i)] = MakeMemWindowEntry(
                stations[static_cast<std::size_t>(i)],
                prop.args[static_cast<std::size_t>(i)]);
          }
        }
        if (have_grants) {
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
        const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
          return mem_window[a];
        };
        for (int i = 0; i < fill; ++i) {
          const std::size_t is = static_cast<std::size_t>(i);
          Station& st = stations[is];
          if (!st.valid) continue;
          const StepOrder order{prev_stores_done[is] != 0,
                                prev_loads_done[is] != 0,
                                prev_confirmed[is] != 0,
                                !have_grants || alu_grant[is] != 0};
          if (eng.Step(cycle, i, st, prop.args[is], order, entry_at, i, i,
                       static_cast<std::uint64_t>(i))) {
            eng.Squash(cycle, i, fill, st.actual_next_pc, false, batch, drop);
          }
        }
      }
      eng.ForceMispredicts(cycle, 0, fill, batch, drop);
    }

    // --- Phase 4: fill the batch. ---
    eng.Fetch(cycle, 0, fill, batch, [&](int, int slot, const Station& st) {
      if (packed) packed_fill_slot(slot, st);
    });
  }
  return eng.Finish(CycleEngine::Values(regfile));
}

}  // namespace ultra::core
