#include "core/hybrid_core.hpp"

#include <cassert>

#include <optional>

#include "core/writer_map_network.hpp"
#include "datapath/datapath.hpp"

namespace ultra::core {

RunResult HybridCore::Run(const isa::Program& program) {
  const int C = config_.cluster_size;
  const int K = std::max(1, config_.window_size / C);
  const int n = K * C;  // Effective window (round down to whole clusters).
  const int L = config_.num_regs;
  datapath::HybridDatapath dp(n, L, C);
  CycleEngine eng(config_, ProcessorKind::kHybrid, program, n, true);
  // Stations are stored cluster-major in absolute ring positions; program
  // position p (counted from the head cluster's slot 0) maps to station
  // station_index(p).
  std::vector<Station>& stations = eng.stations;
  CoreTelemetry& tel = eng.tel;

  std::vector<datapath::RegBinding> committed(static_cast<std::size_t>(L));
  for (auto& b : committed) b.ready = true;

  int head_cluster = 0;
  int tail = 0;        // Program positions [0, tail) hold instructions.
  int commit_ptr = 0;  // Positions [0, commit_ptr) are committed.

  const auto station_index = [&](int pos) {
    const int cluster = (head_cluster + pos / C) % K;
    return cluster * C + pos % C;
  };
  // Invert station_index: absolute station slot -> program position.
  const auto position_of = [&](int i) {
    return ((i / C - head_cluster + K) % K) * C + i % C;
  };

  // Evaluation modes. kPacked and kChecked share one word-parallel cycle
  // loop: sequencing flags, acyclic prefixes, ALU grants and the execute
  // phase's visit set evaluate 64 program positions per word op, and
  // argument delivery is event-driven through the writer-map network, whose
  // lanes are program positions (oldest lane 0) mapped to stations by
  // station_index. kChecked adds the DatapathChecker. kIncremental and
  // kFullRecompute run the byte-lane loop over the cluster propagation.
  const bool packed = config_.datapath_eval == DatapathEval::kPacked ||
                      config_.datapath_eval == DatapathEval::kChecked;
  const bool incremental =
      config_.datapath_eval == DatapathEval::kIncremental;
  const bool have_grants = config_.num_alus > 0;
  const bool fwd = eng.forwarding;

  // Program-position last writer per register (propagation-distance metric).
  std::vector<int> last_writer(static_cast<std::size_t>(L));

  // Persistent datapath state for the incremental path; a function of the
  // stations and the committed file, so it is built after any restore.
  std::optional<datapath::HybridDatapathState> dp_state;
  // Full-recompute path, and the checker's recomputation target.
  datapath::HybridPropagation prop;

  const std::size_t nz = static_cast<std::size_t>(n);
  std::vector<datapath::StationRequest> requests(nz);
  // Per-cycle scratch, hoisted out of the loop so the hot path does not
  // touch the allocator (capacity is reused across cycles).
  std::vector<std::uint8_t> no_store(nz), no_load(nz), branch_ok(nz),
      prev_stores_done(nz), prev_loads_done(nz), prev_confirmed(nz);
  std::vector<MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests;
  std::vector<std::uint8_t> alu_grant;  // Indexed by program position.

  // The packed loop's operand network (kPacked/kChecked only). Its lanes
  // (the stall lanes and the stale set included) and writer/reader rows
  // live in position space: they shift down by C when a cluster
  // deallocates. The cached arguments, the memory-window entries and the
  // mw_stale lanes live in station space, which survives renumbering
  // untouched -- a station's cached binding is a value copy, and a
  // deallocated writer's readers re-resolve to the committed file, which
  // that writer's commit made byte-identical to its result.
  WriterMapNetwork net(eng, packed ? n : 0, L, station_index);
  PackedLanes& lanes = net.lanes;

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

  // A squash victim or a forced-mispredict victim leaves the window.
  const auto drop = [&](int p, int i, Station& victim) {
    if (packed) net.Clear(p, i, victim);
    victim.Evict();
  };
  // Fault injection and self-checking (packed loop only). The checker
  // recomputes every uncommitted station's arguments with the full cluster
  // propagation.
  const auto inject_and_check = [&](std::uint64_t cycle) {
    net.InjectAndCheck(
        cycle,
        [&](auto&& resync) {
          build_requests();
          prop = dp.Propagate(committed, requests, head_cluster);
          for (int p = commit_ptr; p < tail; ++p) {
            const int i = station_index(p);
            resync(p, i, prop.args[static_cast<std::size_t>(i)]);
          }
        },
        position_of);
  };

  const auto save_head = [&](persist::Encoder& e) {
    for (const Station& st : stations) SaveStation(e, st);
    for (const auto& b : committed) datapath::Save(e, b);
    e.I32(head_cluster);
    e.I32(tail);
    e.I32(commit_ptr);
  };
  const auto save_trailer = [&](persist::Encoder& e) {
    if (packed) net.Save(e);
  };
  eng.Restore(
      [&](persist::Decoder& d) {
        for (Station& st : stations) RestoreStation(d, st);
        for (auto& b : committed) datapath::Restore(d, b);
        head_cluster = d.I32();
        tail = d.I32();
        commit_ptr = d.I32();
      },
      [&](persist::Decoder& d) {
        if (packed) net.Restore(d, 0, tail);
      });
  if (incremental) {
    dp_state.emplace(n, L, C);
    for (int r = 0; r < L; ++r) {
      dp_state->SetCommitted(r, committed[static_cast<std::size_t>(r)]);
    }
  }

  for (std::uint64_t cycle = eng.start_cycle();
       eng.BeginCycle(cycle, tail - commit_ptr, save_head, save_trailer);
       ++cycle) {
    // --- Phase 1: combinational propagation (end-of-last-cycle state). ---
    if (packed) {
      // Event-driven delivery: re-resolve only the positions whose
      // argument source changed since the last cycle (writer result
      // movement, their own fill, or a squash). Committed stations keep
      // driving the ring until their cluster deallocates.
      net.Drain(0, committed);
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
      lanes.OrderPrefixes(-1);
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
      const std::size_t live = static_cast<std::size_t>(tail);
      datapath::AllPrecedingSatisfyAcyclicInto(
          std::span<const std::uint8_t>(no_store.data(), live),
          std::span<std::uint8_t>(prev_stores_done.data(), live));
      datapath::AllPrecedingSatisfyAcyclicInto(
          std::span<const std::uint8_t>(no_load.data(), live),
          std::span<std::uint8_t>(prev_loads_done.data(), live));
      datapath::AllPrecedingSatisfyAcyclicInto(
          std::span<const std::uint8_t>(branch_ok.data(), live),
          std::span<std::uint8_t>(prev_confirmed.data(), live));
    }

    // --- Phase 2: memory responses. ---
    eng.DrainMemory(
        cycle, [&](const MemTag& tag) { return eng.SlotByGeneration(tag); },
        [&](int i, const Station& st) {
          // The load's result binding just became ready: its readers
          // re-resolve at the next phase-1 drain, exactly when the
          // propagation would have delivered the new value.
          if (packed) net.Stepped(position_of(i), i, st, true, 0);
        });

    // --- Phase 3: execute in program order. ---
    const int live = tail;
    if (packed) {
      net.RefreshMemWindow();
      if (have_grants) lanes.GrantAlus(config_.num_alus, -1, live);
      // A stalled station sits out only while unfinished.
      net.Execute(cycle, 0, commit_ptr, tail, true, drop);
    } else {
      if (fwd) {
        mem_window.assign(static_cast<std::size_t>(live), MemWindowEntry{});
        for (int p = 0; p < live; ++p) {
          const int i = station_index(p);
          mem_window[static_cast<std::size_t>(p)] = MakeMemWindowEntry(
              stations[static_cast<std::size_t>(i)], args_of(i));
        }
      }
      if (have_grants) {
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
      const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
        return mem_window[a];
      };
      for (int p = commit_ptr; p < live; ++p) {
        const int i = station_index(p);
        Station& st = stations[static_cast<std::size_t>(i)];
        if (!st.valid || st.finished) continue;
        const std::size_t ps = static_cast<std::size_t>(p);
        const StepOrder order{prev_stores_done[ps] != 0,
                              prev_loads_done[ps] != 0,
                              prev_confirmed[ps] != 0,
                              !have_grants || alu_grant[ps] != 0};
        if (eng.Step(cycle, i, st, args_of(i), order, entry_at, p, i,
                     static_cast<std::uint64_t>(i))) {
          eng.Squash(cycle, p, tail, st.actual_next_pc, false, station_index,
                     drop);
        }
      }
    }
    eng.ForceMispredicts(cycle, commit_ptr, tail, station_index, drop);

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
      eng.Retire(cycle, station_index(commit_ptr), st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      ++commit_ptr;
      if (was_halt) {
        eng.Halt();
        break;
      }
    }
    // A fully committed head cluster is deallocated as a unit and becomes
    // available for refilling (the "super execution station" reuse rule).
    while (commit_ptr >= C) {
      for (int s = 0; s < C; ++s) {
        const int i = head_cluster * C + s;
        // Station-indexed caches are cleared point-wise; the slot is about
        // to be refilled with a new instruction.
        if (packed) net.ClearStation(i);
        stations[static_cast<std::size_t>(i)].Evict();
      }
      if (packed) {
        // Every live position renumbers down by C. No reader goes stale:
        // a reader whose nearest preceding writer just deallocated must
        // have been reading r's last committed writer, whose commit made
        // committed[r] byte-identical to the binding it was delivering --
        // so re-resolving to the committed file yields the same value.
        // Cached arguments are value copies and survive untouched.
        lanes.ShiftDown(C);
        net.wmap.ShiftDown(C);
      }
      head_cluster = (head_cluster + 1) % K;
      commit_ptr -= C;
      tail -= C;
    }

    // --- Phase 5: fetch. ---
    eng.Fetch(cycle, commit_ptr, tail, station_index,
              [&](int p, int slot, const Station& st) {
                if (packed) net.Fill(p, slot, st);
              });
  }

  return eng.Finish(CycleEngine::Values(committed));
}

}  // namespace ultra::core
