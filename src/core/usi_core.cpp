#include "core/usi_core.hpp"

#include <cassert>

#include <optional>

#include "core/writer_map_network.hpp"
#include "datapath/datapath.hpp"

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
  CycleEngine eng(config_, ProcessorKind::kUltrascalarI, program, n, true);
  std::vector<Station>& stations = eng.stations;
  CoreTelemetry& tel = eng.tel;

  std::vector<datapath::RegBinding> committed(static_cast<std::size_t>(L));
  for (auto& b : committed) b.ready = true;
  // Cycle at which each committed register last changed (pipelined-datapath
  // visibility; see the read lambda below).
  std::vector<std::uint64_t> committed_at(static_cast<std::size_t>(L), 0);

  int head = 0;   // Ring index of the oldest station.
  int count = 0;  // Allocated stations: [head, head + count) mod n.
  const auto ring = [&](int k) { return (head + k) % n; };

  // Evaluation modes. kPacked and kChecked share one word-parallel cycle
  // loop: the Figure 5 flags, their CSPP prefixes, the ALU grants and the
  // execute phase's visit set evaluate 64 stations per word op, and
  // argument delivery is event-driven through the writer-map network,
  // whose lanes are the ring slots and whose oldest lane is the head.
  // Pipelined delivery is a function of wall-clock distance, so under it
  // the packed loop re-resolves every live station each cycle with the
  // program-order last-writer sweep instead. kChecked adds the
  // DatapathChecker. kIncremental and kFullRecompute run the byte-lane loop
  // over the propagated ring.
  const bool packed = config_.datapath_eval == DatapathEval::kPacked ||
                      config_.datapath_eval == DatapathEval::kChecked;
  const bool incremental =
      config_.datapath_eval == DatapathEval::kIncremental;
  const bool pipelined = config_.pipeline_levels_per_stage > 0;
  const bool have_grants = config_.num_alus > 0;
  const bool fwd = eng.forwarding;
  // The program-order last-writer sweep serves both the pipelined datapath
  // and the propagation-distance histogram.
  const bool track_writers = pipelined || tel.metrics_on();

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
  if (config_.datapath_eval == DatapathEval::kFullRecompute ||
      config_.datapath_eval == DatapathEval::kChecked) {
    outgoing.resize(static_cast<std::size_t>(n) * L);
    modified.resize(static_cast<std::size_t>(n) * L);
  }

  // Byte-lane per-cycle scratch, hoisted out of the loop so the hot path
  // does not touch the allocator (capacity is reused across cycles).
  const std::size_t nz = static_cast<std::size_t>(n);
  std::vector<std::uint8_t> no_store(nz), no_load(nz), branch_ok(nz),
      prev_stores_done(nz), prev_loads_done(nz), prev_confirmed(nz),
      alu_requests(nz), alu_grant(nz);
  // Resolved arguments per station, rebuilt every cycle by the byte-lane
  // loop (the packed loop's network caches its own).
  std::vector<datapath::ResolvedArgs> args_at(packed ? 0 : nz);
  std::vector<core::MemWindowEntry> mem_window;
  // Program-order last writer per register during a window sweep; replaces
  // the per-operand backward window scan.
  std::vector<int> last_writer(static_cast<std::size_t>(L));

  // The packed loop's operand network (kPacked/kChecked only); a lane is
  // a ring slot.
  WriterMapNetwork net(eng, packed ? n : 0, L);
  PackedLanes& lanes = net.lanes;
  // A squash victim or a forced-mispredict victim leaves the window.
  const auto drop = [&](int, int i, Station& victim) {
    if (packed) net.Clear(i, i, victim);
    victim.Evict();
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
      const int i = ring(k);
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
  // Fault injection and self-checking (packed loop only). The checker
  // recomputes every live station's arguments from scratch (the full ring
  // propagation, or the pipelined sweep itself).
  const auto inject_and_check = [&](std::uint64_t cycle) {
    net.InjectAndCheck(cycle, [&](auto&& resync) {
      if (!pipelined) propagate_full();
      sweep([&](int k, int i, const Station& st) {
        resync(i, i, resolve(k, i, st, cycle));
      });
    });
  };

  const auto save_head = [&](persist::Encoder& e) {
    for (const Station& st : stations) SaveStation(e, st);
    for (const auto& b : committed) datapath::Save(e, b);
    for (const std::uint64_t c : committed_at) e.U64(c);
    e.I32(head);
    e.I32(count);
  };
  const auto save_trailer = [&](persist::Encoder& e) {
    if (packed) net.Save(e);
  };
  eng.Restore(
      [&](persist::Decoder& d) {
        for (Station& st : stations) RestoreStation(d, st);
        for (auto& b : committed) datapath::Restore(d, b);
        for (std::uint64_t& c : committed_at) c = d.U64();
        head = d.I32();
        count = d.I32();
      },
      [&](persist::Decoder& d) {
        if (packed) net.Restore(d, head, count);
      });
  if (incremental) {
    dp_state.emplace(n, L);
    for (int r = 0; r < L; ++r) {
      dp_state->SetCommitted(r, committed[static_cast<std::size_t>(r)]);
    }
  }

  for (std::uint64_t cycle = eng.start_cycle();
       eng.BeginCycle(cycle, count, save_head, save_trailer); ++cycle) {
    // --- Phase 1: combinational propagation (end-of-last-cycle state). ---
    if (packed) {
      // Event-driven delivery: re-resolve only stations whose argument
      // source changed since the last cycle (writer result movement, a
      // commit touching their register, a squash, their own fill, or the
      // head advancing onto them). Pipelined delivery re-resolves every
      // station in phase 3a instead.
      if (pipelined) {
        lanes.stale.ClearAll();
      } else {
        net.Drain(head, committed);
        // --- Phase 1b: fault injection + self-checking. ---
        inject_and_check(cycle);
      }
      lanes.OrderPrefixes(head);
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
      seq.AllPrecedingSatisfyInto(no_store, head, prev_stores_done);
      seq.AllPrecedingSatisfyInto(no_load, head, prev_loads_done);
      seq.AllPrecedingSatisfyInto(branch_ok, head, prev_confirmed);
    }

    // --- Phase 2: memory responses arriving this cycle. ---
    eng.DrainMemory(
        cycle, [&](const MemTag& tag) { return eng.SlotByGeneration(tag); },
        [&](int i, const Station& st) {
          // The load's result binding just became ready: its readers
          // re-resolve at the next phase-1 drain, exactly when the ring
          // propagation would deliver the new value.
          if (packed) net.Stepped(i, i, st, true, head);
        });

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
              net.args[static_cast<std::size_t>(i)];
          const bool moved = args != cached;
          cached = args;
          net.Written(i, i, moved);
        });
      }
      if (pipelined) inject_and_check(cycle);
      net.RefreshMemWindow();
      if (have_grants) lanes.GrantAlus(config_.num_alus, head, n);
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
      if (have_grants) {
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
      net.Execute(cycle, head, 0, count, false, drop);
    } else {
      const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
        return mem_window[a];
      };
      for (int k = 0; k < live; ++k) {
        const int i = ring(k);
        const std::size_t is = static_cast<std::size_t>(i);
        Station& st = stations[is];
        if (!st.valid) continue;  // Squashed earlier this cycle.
        const StepOrder order{k == 0 || prev_stores_done[is] != 0,
                              k == 0 || prev_loads_done[is] != 0,
                              k == 0 || prev_confirmed[is] != 0,
                              !have_grants || alu_grant[is] != 0};
        if (eng.Step(cycle, i, st, args_at[is], order, entry_at, k, i,
                     static_cast<std::uint64_t>(i))) {
          eng.Squash(cycle, k, count, st.actual_next_pc, false, ring, drop);
        }
      }
    }

    // --- Phase 3c: forced mispredictions (fault injection). ---
    eng.ForceMispredicts(cycle, 0, count, ring, drop);

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
        if (packed) net.MarkResultChange(head, inst.rd, head);
      }
      eng.Retire(cycle, head, st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      if (packed) net.Clear(head, head, st);
      st.Clear();
      head = (head + 1) % n;
      head_moved = true;
      --count;
      if (was_halt) {
        eng.Halt();
        break;
      }
    }
    // The station now at the head reads the committed file directly, a
    // different source than the ring resolution its cached args used.
    if (packed && head_moved && count > 0) lanes.stale.Set(head);

    // --- Phase 5: fetch into freed slots. ---
    eng.Fetch(cycle, 0, count, ring, [&](int, int slot, const Station& st) {
      if (packed) net.Fill(slot, slot, st);
    });
  }

  return eng.Finish(CycleEngine::Values(committed));
}

}  // namespace ultra::core
