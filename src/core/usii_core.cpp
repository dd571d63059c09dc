#include "core/usii_core.hpp"

#include <cassert>

#include "core/writer_map_network.hpp"
#include "datapath/datapath.hpp"

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
  // delivery is event-driven through the writer-map network, whose lanes
  // are the batch slots and whose oldest lane is slot 0. kChecked adds the
  // DatapathChecker. kIncremental and kFullRecompute run the byte-lane loop
  // over the mesh propagation.
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

  // The packed loop's operand network (kPacked/kChecked only); a lane is
  // a batch slot, so batch position is age order and the forwarding walk
  // reads the slot-indexed memory window directly.
  WriterMapNetwork net(eng, packed ? n : 0, L);
  PackedLanes& lanes = net.lanes;
  // A squash victim or a forced-mispredict victim leaves the batch.
  const auto drop = [&](int, int i, Station& victim) {
    if (packed) net.Clear(i, i, victim);
    victim.Evict();
  };
  // Fault injection and self-checking (packed loop only), before the batch
  // latch reads the arguments. The checker recomputes every slot's
  // arguments with the full mesh propagation.
  const auto inject_and_check = [&](std::uint64_t cycle) {
    net.InjectAndCheck(cycle, [&](auto&& resync) {
      for (int i = 0; i < n; ++i) {
        requests[static_cast<std::size_t>(i)] =
            MakeRequest(stations[static_cast<std::size_t>(i)]);
      }
      dp.PropagateInto(regfile, requests, prop);
      for (int i = 0; i < fill; ++i) {
        resync(i, i, prop.args[static_cast<std::size_t>(i)]);
      }
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
    if (packed) net.Save(e);
  };
  eng.Restore(
      [&](persist::Decoder& d) {
        for (Station& st : stations) RestoreStation(d, st);
        for (auto& b : regfile) datapath::Restore(d, b);
        fill = d.I32();
      },
      [&](persist::Decoder& d) {
        if (packed) net.Restore(d, 0, fill);
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
      net.Drain(0, regfile);
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
          const int j = net.wmap.HighestWriter(r);
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
        net.wmap.ClearAllRows();
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
          // The load's result binding just became ready: its readers
          // re-resolve at the next phase-1 drain, exactly when the
          // propagation would deliver the new value.
          if (packed) net.Stepped(i, i, st, true, 0);
        });

    // --- Phase 3: execute, in program order within the batch, and the
    // forced mispredictions; a batch-retire cycle skips both. ---
    if (!batch_complete && !eng.done) {
      if (packed) {
        net.RefreshMemWindow();
        if (have_grants) lanes.GrantAlus(config_.num_alus, -1, n);
        net.Execute(cycle, 0, 0, fill, false, drop);
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
      if (packed) net.Fill(slot, slot, st);
    });
  }
  return eng.Finish(CycleEngine::Values(regfile));
}

}  // namespace ultra::core
