#include "core/ideal_core.hpp"

#include <array>
#include <cassert>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>

#include "core/cycle_engine.hpp"

namespace ultra::core {

namespace {

/// A renamed source operand: a value captured from the committed register
/// file at rename time, or the sequence number of its in-flight producer.
struct Source {
  bool inflight = false;
  std::uint64_t seq = 0;
  isa::Word val = 0;
};

bool ReadsSource(const isa::Instruction& inst, int j) {
  return j == 0 ? isa::ReadsRs1(inst.op) : isa::ReadsRs2(inst.op);
}
datapath::RegBinding& ArgOf(datapath::ResolvedArgs& args, int j) {
  return j == 0 ? args.arg1 : args.arg2;
}

/// The Ideal core's window discipline and rename table, shared by its two
/// loops: a fixed ring of n stations whose program positions [0, count)
/// live at slots (head + k) % n, so commits and refills reuse storage; each
/// slot's two renamed sources; the committed register values; and the
/// rename map.
struct RenameWindow {
  RenameWindow(int n, int L)
      : n(n),
        sources(static_cast<std::size_t>(n)),
        regs(static_cast<std::size_t>(L), 0),
        rename(static_cast<std::size_t>(L)),
        rename_slot(static_cast<std::size_t>(L), -1) {}

  int n;
  int head = 0;
  int count = 0;
  std::vector<std::array<Source, 2>> sources;
  std::vector<isa::Word> regs;
  // rename[r]: sequence number of the youngest in-flight writer of r, and
  // (meaningful only while it holds a value) that writer's slot.
  std::vector<std::optional<std::uint64_t>> rename;
  std::vector<int> rename_slot;

  [[nodiscard]] int Slot(int k) const { return (head + k) % n; }

  /// The checkpoint head. Ring position matters downstream (trace events
  /// name the slot a future allocation lands in), so head is preserved,
  /// not normalized.
  void Save(persist::Encoder& e, const std::vector<Station>& stations) const {
    e.I32(head);
    e.I32(count);
    for (int k = 0; k < count; ++k) {
      SaveStation(e, stations[static_cast<std::size_t>(Slot(k))]);
      for (const Source& s : sources[static_cast<std::size_t>(Slot(k))]) {
        e.Bool(s.inflight);
        e.U64(s.seq);
        e.U32(s.val);
      }
    }
    for (const isa::Word r : regs) e.U32(r);
    for (const auto& r : rename) {
      e.Bool(r.has_value());
      e.U64(r.has_value() ? *r : 0);
    }
  }
  void Restore(persist::Decoder& d, std::vector<Station>& stations) {
    head = d.I32();
    count = d.I32();
    if (head < 0 || head >= n || count < 0 || count > n) {
      throw persist::FormatError("ideal window geometry out of range");
    }
    for (int k = 0; k < count; ++k) {
      RestoreStation(d, stations[static_cast<std::size_t>(Slot(k))]);
      for (Source& s : sources[static_cast<std::size_t>(Slot(k))]) {
        s.inflight = d.Bool();
        s.seq = d.U64();
        s.val = d.U32();
      }
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
  }

  /// After a squash: the youngest surviving writer of each register.
  void RebuildRename(const std::vector<Station>& stations) {
    for (auto& r : rename) r.reset();
    for (int k = 0; k < count; ++k) {
      const Station& st = stations[static_cast<std::size_t>(Slot(k))];
      if (isa::WritesRd(st.inst().op)) {
        rename[st.inst().rd] = st.seq;
        rename_slot[st.inst().rd] = Slot(k);
      }
    }
  }

  /// Renames the instruction just fetched into @p slot: each source reads
  /// the committed file or adopts its youngest in-flight writer, and the
  /// destination becomes that register's youngest writer. Returns the
  /// producers' slots (-1 for a source not in flight), captured before a
  /// same-register write retargets the map.
  std::array<int, 2> Rename(int slot, const Station& st) {
    const isa::Instruction& inst = st.inst();
    const isa::RegId reg[2] = {inst.rs1, inst.rs2};
    std::array<int, 2> producers = {-1, -1};
    for (int j = 0; j < 2; ++j) {
      Source& s = sources[static_cast<std::size_t>(slot)][j];
      s = Source{};
      if (!ReadsSource(inst, j)) continue;
      if (rename[reg[j]].has_value()) {
        s.inflight = true;
        s.seq = *rename[reg[j]];
        producers[j] = rename_slot[reg[j]];
      } else {
        s.val = regs[reg[j]];
      }
    }
    if (isa::WritesRd(inst.op)) {
      rename[inst.rd] = st.seq;
      rename_slot[inst.rd] = slot;
    }
    return producers;
  }

  /// Traces the producers the fetched station at @p slot adopted.
  void TraceRenames(CoreTelemetry& tel, std::uint64_t cycle, int slot,
                    const Station& st) const {
    for (const Source& s : sources[static_cast<std::size_t>(slot)]) {
      if (s.inflight) tel.OnRename(cycle, slot, st, s.seq);
    }
  }
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
  CycleEngine eng(config_, ProcessorKind::kIdeal, program, n, false);
  std::vector<Station>& stations = eng.stations;
  RenameWindow win(n, L);
  const auto slot_of = [&](int k) { return win.Slot(k); };
  const bool have_grants = config_.num_alus > 0;

  // The slot of the window station with sequence number @p seq, or -1.
  const auto find_slot = [&](std::uint64_t seq) {
    for (int k = 0; k < win.count; ++k) {
      if (stations[static_cast<std::size_t>(win.Slot(k))].seq == seq) {
        return win.Slot(k);
      }
    }
    return -1;
  };

  // Per-cycle scratch, hoisted so the steady-state loop never allocates.
  const std::size_t nz = static_cast<std::size_t>(n);
  std::vector<std::uint64_t> finished_seqs;
  finished_seqs.reserve(nz);
  std::vector<std::uint8_t> no_store(nz), no_load(nz), branch_ok(nz),
      prev_stores_done(nz), prev_loads_done(nz), prev_confirmed(nz);
  std::vector<datapath::ResolvedArgs> args_at(nz);
  std::vector<MemWindowEntry> mem_window;
  std::vector<std::uint8_t> alu_requests;
  std::vector<std::uint8_t> alu_grant;

  const auto save_head = [&](persist::Encoder& e) { win.Save(e, stations); };
  const auto no_trailer = [](auto&) {};
  eng.Restore([&](persist::Decoder& d) { win.Restore(d, stations); },
              no_trailer);

  for (std::uint64_t cycle = eng.start_cycle();
       eng.BeginCycle(cycle, win.count, save_head, no_trailer); ++cycle) {
    // --- Phase 1: snapshot end-of-last-cycle readiness (results become
    // visible to consumers one cycle after they are produced, matching the
    // Ultrascalar datapath propagation). ---
    finished_seqs.clear();
    for (int k = 0; k < win.count; ++k) {
      const Station& st = stations[static_cast<std::size_t>(win.Slot(k))];
      if (st.finished) finished_seqs.push_back(st.seq);
      const bool is_store = st.inst().op == isa::Opcode::kStore;
      const bool is_load = st.inst().op == isa::Opcode::kLoad;
      const std::size_t ks = static_cast<std::size_t>(k);
      no_store[ks] = !is_store || st.finished;
      no_load[ks] = !is_load || st.finished;
      branch_ok[ks] = !isa::IsControlFlow(st.inst().op) || st.resolved;
    }
    const std::size_t live_size = static_cast<std::size_t>(win.count);
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

    // --- Phase 2: memory responses, found by sequence number. ---
    eng.DrainMemory(
        cycle, [&](const MemTag& tag) { return find_slot(tag.tag); },
        [](int, const Station&) {});

    // --- Phase 3a: wake-up (argument resolution) in program order. ---
    const int live = win.count;
    std::fill(args_at.begin(), args_at.begin() + live,
              datapath::ResolvedArgs{});
    mem_window.assign(
        eng.forwarding ? static_cast<std::size_t>(live) : 0, MemWindowEntry{});
    for (int k = 0; k < live; ++k) {
      const int slot = win.Slot(k);
      const Station& st = stations[static_cast<std::size_t>(slot)];
      datapath::ResolvedArgs& args = args_at[static_cast<std::size_t>(k)];
      for (int j = 0; j < 2; ++j) {
        if (!ReadsSource(st.inst(), j)) continue;
        const Source& s = win.sources[static_cast<std::size_t>(slot)][j];
        if (!s.inflight) {
          ArgOf(args, j) = {s.val, true};
        } else if (was_finished(s.seq)) {
          const Station& prod =
              stations[static_cast<std::size_t>(find_slot(s.seq))];
          assert(prod.result.ready);
          ArgOf(args, j) = prod.result;
        }
      }
      if (eng.forwarding) {
        mem_window[static_cast<std::size_t>(k)] = MakeMemWindowEntry(st, args);
      }
    }
    if (have_grants) {
      alu_requests.assign(static_cast<std::size_t>(live), 0);
      int occupied = 0;
      for (int k = 0; k < live; ++k) {
        const Station& st = stations[static_cast<std::size_t>(win.Slot(k))];
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
    const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
      return mem_window[a];
    };
    for (int k = 0; k < live && k < win.count; ++k) {
      const int slot = win.Slot(k);
      Station& st = stations[static_cast<std::size_t>(slot)];
      const std::size_t ks = static_cast<std::size_t>(k);
      const StepOrder order{prev_stores_done[ks] != 0,
                            prev_loads_done[ks] != 0, prev_confirmed[ks] != 0,
                            !have_grants || alu_grant[ks] != 0};
      if (eng.Step(cycle, slot, st, args_at[ks], order, entry_at, k, k,
                   st.seq)) {
        eng.Squash(cycle, k, win.count, st.actual_next_pc, false, slot_of,
                   [](int, int, Station&) {});
        win.RebuildRename(stations);
      }
    }

    // --- Phase 4: in-order commit. ---
    while (win.count > 0) {
      Station& st = stations[static_cast<std::size_t>(win.head)];
      if (!st.finished) break;
      const isa::Instruction& inst = st.inst();
      if (isa::WritesRd(inst.op)) {
        assert(st.result.ready);
        win.regs[inst.rd] = st.result.value;
        if (win.rename[inst.rd] == st.seq) win.rename[inst.rd].reset();
        // The producer leaves the window: convert consumers' renamed
        // dependencies into immediate values so they can still wake up.
        for (int k = 1; k < win.count; ++k) {
          for (Source& s : win.sources[static_cast<std::size_t>(win.Slot(k))]) {
            if (s.inflight && s.seq == st.seq) {
              s.inflight = false;
              s.val = st.result.value;
            }
          }
        }
      }
      eng.Retire(cycle, win.head, st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      win.head = (win.head + 1) % n;
      --win.count;
      if (was_halt) {
        eng.Halt();
        break;
      }
    }

    // --- Phase 5: fetch and rename. ---
    eng.Fetch(cycle, 0, win.count, slot_of,
              [&](int, int slot, const Station& st) {
                win.Rename(slot, st);
                win.TraceRenames(eng.tel, cycle, slot, st);
              });
  }

  return eng.Finish(win.regs);
}

namespace {

/// Bit-packed word-parallel twin of RunReference. Cycle-for-cycle and
/// byte-for-byte identical output (the differential tests assert this), but
/// the per-cycle cost is O(n/64) words plus work proportional to what
/// actually happens:
///  * the Figure 5 ordering conditions and their prefixes are PackedLanes
///    words (64 stations per op) instead of byte loops;
///  * wake-up is event-driven through per-producer consumer lists instead
///    of an O(n) scan consulting an O(n) finished-sequence list;
///  * only stations that can act this cycle are stepped (the must-visit
///    word mirrors StepStation's no-op predicate exactly, so skipping is
///    provably identical);
///  * commit converts consumers through the producer's list, and memory
///    responses find their station through a seq->slot map.
/// Canonical state (stations, sources, rename map, fetch, memory, inflight)
/// is maintained exactly as the reference loop does, so checkpoints saved
/// from either path are interchangeable.
RunResult RunPackedIdeal(const CoreConfig& config_,
                         const isa::Program& program) {
  const int n = config_.window_size;
  const int L = config_.num_regs;
  CycleEngine eng(config_, ProcessorKind::kIdeal, program, n, false);
  std::vector<Station>& stations = eng.stations;
  RenameWindow win(n, L);
  const auto slot_of = [&](int k) { return win.Slot(k); };
  const bool have_grants = config_.num_alus > 0;
  const bool fwd = eng.forwarding;

  // --- Packed acceleration structures (derived from the canonical state,
  // never checkpointed). All are slot-indexed. ---
  PackedLanes lanes(n);
  std::vector<datapath::ResolvedArgs> args_cache(static_cast<std::size_t>(n));
  // consumers[p]: (consumer slot, which source) pairs registered at rename
  // time; entries are verified against the consumer's source seq at use, so
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
  // Store forwarding: slot-indexed disambiguation window, refreshed
  // event-driven (a slot's entry changes only when its station steps, its
  // memory op completes, its cached args move, or the slot turns over).
  std::vector<MemWindowEntry> mem_window_slot;
  if (fwd) mem_window_slot.resize(static_cast<std::size_t>(n));

  // Slot @p slot's cached args changed: refresh its readiness lane and,
  // with store forwarding, its memory-window entry.
  const auto args_changed = [&](int slot) {
    const datapath::ResolvedArgs& args =
        args_cache[static_cast<std::size_t>(slot)];
    const isa::Instruction& inst =
        stations[static_cast<std::size_t>(slot)].inst();
    lanes.args_ready.SetTo(slot,
                           (!ReadsSource(inst, 0) || args.arg1.ready) &&
                               (!ReadsSource(inst, 1) || args.arg2.ready));
    if (fwd) lanes.mw_stale.Set(slot);
  };
  // Consumer @p slot's source @p j now delivers @p value.
  const auto deliver = [&](int slot, int j, const datapath::RegBinding& value) {
    ArgOf(args_cache[static_cast<std::size_t>(slot)], j) = value;
    args_changed(slot);
  };
  const auto clear_slot_bits = [&](int slot) {
    lanes.Clear(slot);
    args_cache[static_cast<std::size_t>(slot)] = {};
    consumers[static_cast<std::size_t>(slot)].clear();
    lanes.mw_stale.Clear(slot);
    if (fwd) mem_window_slot[static_cast<std::size_t>(slot)] = MemWindowEntry{};
  };
  // Registers a freshly filled/restored slot's lanes and seeds its cached
  // args (immediates now; in-flight producers that have already finished
  // deliver immediately, matching the snapshot the reference wake-up loop
  // would see next cycle). @p producers are the slots of the sources in
  // flight: the fill path passes the rename map's (a fresh source is always
  // the youngest writer), the restore path resolves arbitrary source seqs
  // through its own scan.
  const auto register_slot = [&](int slot, std::array<int, 2> producers) {
    const Station& st = stations[static_cast<std::size_t>(slot)];
    lanes.Fill(slot, st);
    datapath::ResolvedArgs& args = args_cache[static_cast<std::size_t>(slot)];
    args = {};
    for (int j = 0; j < 2; ++j) {
      if (!ReadsSource(st.inst(), j)) continue;
      const Source& s = win.sources[static_cast<std::size_t>(slot)][j];
      if (!s.inflight) {
        ArgOf(args, j) = {s.val, true};
        continue;
      }
      const int prod = producers[static_cast<std::size_t>(j)];
      assert(prod >= 0);
      const Station& producer = stations[static_cast<std::size_t>(prod)];
      assert(producer.seq == s.seq);
      consumers[static_cast<std::size_t>(prod)].emplace_back(slot, j);
      if (producer.finished) ArgOf(args, j) = producer.result;
    }
    args_changed(slot);
  };

  const auto save_head = [&](persist::Encoder& e) { win.Save(e, stations); };
  const auto no_trailer = [](auto&) {};
  eng.Restore([&](persist::Decoder& d) { win.Restore(d, stations); },
              no_trailer);
  if (eng.resumed()) {
    // Rebuild the packed shadow from the canonical window. A restored
    // source may point at any older writer (not just the youngest), so
    // producer slots are resolved by scanning the window -- restore-only
    // cost.
    const auto slot_of_seq = [&](std::uint64_t seq) {
      for (int k = 0; k < win.count; ++k) {
        if (stations[static_cast<std::size_t>(win.Slot(k))].seq == seq) {
          return win.Slot(k);
        }
      }
      return -1;
    };
    for (int k = 0; k < win.count; ++k) {
      const Station& st = stations[static_cast<std::size_t>(win.Slot(k))];
      const isa::Opcode op = st.inst().op;
      if (op == isa::Opcode::kLoad || op == isa::Opcode::kStore) {
        seq_slot.emplace(st.seq, win.Slot(k));
      }
    }
    for (int k = 0; k < win.count; ++k) {
      const int slot = win.Slot(k);
      std::array<int, 2> producers = {-1, -1};
      for (int j = 0; j < 2; ++j) {
        const Source& s = win.sources[static_cast<std::size_t>(slot)][j];
        if (s.inflight) {
          producers[static_cast<std::size_t>(j)] = slot_of_seq(s.seq);
        }
      }
      register_slot(slot, producers);
    }
    for (int r = 0; r < L; ++r) {
      if (win.rename[static_cast<std::size_t>(r)].has_value()) {
        win.rename_slot[static_cast<std::size_t>(r)] =
            slot_of_seq(*win.rename[static_cast<std::size_t>(r)]);
      }
    }
  }

  for (std::uint64_t cycle = eng.start_cycle();
       eng.BeginCycle(cycle, win.count, save_head, no_trailer); ++cycle) {
    // --- Phase 1: the Figure 5 ordering prefixes from end-of-last-cycle
    // state. Dead slots contribute vacuously true conditions, so the
    // cyclic prefix from the head equals the reference loop's acyclic
    // prefix over live positions. ---
    lanes.OrderPrefixes(win.head);

    // --- Phase 2: memory responses (seq->slot map instead of a window
    // scan). ---
    eng.DrainMemory(
        cycle,
        [&](const MemTag& tag) {
          const auto it = seq_slot.find(tag.tag);
          return it == seq_slot.end() ? -1 : it->second;
        },
        [&](int slot, const Station& st) {
          lanes.finished.Set(slot);
          if (fwd) lanes.mw_stale.Set(slot);
          finish_events.emplace_back(slot, st.seq);
        });

    // --- Phase 3a: refresh moved disambiguation-window entries (after
    // phase 2, so this cycle's memory completions are visible, matching
    // the reference loop's per-cycle rebuild), then ALU scheduling. ---
    if (fwd) {
      ForEachSetBit(lanes.mw_stale, [&](int slot) {
        mem_window_slot[static_cast<std::size_t>(slot)] = MakeMemWindowEntry(
            stations[static_cast<std::size_t>(slot)],
            args_cache[static_cast<std::size_t>(slot)]);
      });
      lanes.mw_stale.ClearAll();
    }
    if (have_grants) lanes.GrantAlus(config_.num_alus, win.head, n);

    // --- Phase 3b: execute only stations that can act, in program order.
    const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
      return mem_window_slot[static_cast<std::size_t>(
          win.Slot(static_cast<int>(a)))];
    };
    lanes.ForEachMustVisit(win.head, win.count, fwd, have_grants, false,
                           [&](int slot) {
      const int k = (slot - win.head + n) % n;
      Station& st = stations[static_cast<std::size_t>(slot)];
      const bool mispredicted =
          eng.Step(cycle, slot, st, args_cache[static_cast<std::size_t>(slot)],
                   lanes.OrderAt(slot, have_grants), entry_at, k, k, st.seq);
      lanes.Sync(slot, st);
      if (fwd) lanes.mw_stale.Set(slot);
      if (st.finished) finish_events.emplace_back(slot, st.seq);
      if (!mispredicted) return true;
      eng.Squash(cycle, k, win.count, st.actual_next_pc, false, slot_of,
                 [&](int, int victim_slot, Station& victim) {
                   seq_slot.erase(victim.seq);
                   clear_slot_bits(victim_slot);
                 });
      win.RebuildRename(stations);
      return false;
    });

    // --- Phase 4: in-order commit; consumers convert via the producer's
    // list instead of a window scan. ---
    while (win.count > 0) {
      Station& st = stations[static_cast<std::size_t>(win.head)];
      if (!st.finished) break;
      const isa::Instruction& inst = st.inst();
      if (isa::WritesRd(inst.op)) {
        assert(st.result.ready);
        win.regs[inst.rd] = st.result.value;
        if (win.rename[inst.rd] == st.seq) win.rename[inst.rd].reset();
        for (const auto& [cslot, j] :
             consumers[static_cast<std::size_t>(win.head)]) {
          if (!lanes.valid.Test(cslot)) continue;
          Source& s = win.sources[static_cast<std::size_t>(cslot)][j];
          if (!s.inflight || s.seq != st.seq) continue;
          s.inflight = false;
          s.val = st.result.value;
          deliver(cslot, j, {st.result.value, true});
        }
      }
      eng.Retire(cycle, win.head, st);
      const bool was_halt = inst.op == isa::Opcode::kHalt;
      seq_slot.erase(st.seq);
      clear_slot_bits(win.head);
      win.head = (win.head + 1) % n;
      --win.count;
      if (was_halt) {
        eng.Halt();
        break;
      }
    }

    // --- Phase 5: fetch and rename. ---
    eng.Fetch(cycle, 0, win.count, slot_of,
              [&](int, int slot, const Station& st) {
                const std::array<int, 2> producers = win.Rename(slot, st);
                clear_slot_bits(slot);
                // Only memory ops enter the seq->slot map (its sole
                // steady-state consumer is the memory-response path),
                // keeping the allocator out of the ALU fill path.
                const isa::Opcode op = st.inst().op;
                if (op == isa::Opcode::kLoad || op == isa::Opcode::kStore) {
                  seq_slot.emplace(st.seq, slot);
                }
                register_slot(slot, producers);
                win.TraceRenames(eng.tel, cycle, slot, st);
              });

    // --- End of cycle: deliver this cycle's finish events to registered
    // consumers. Running after commit/fetch makes the refreshed args
    // visible exactly from the next cycle on, matching the reference
    // loop's start-of-cycle readiness snapshot, and leaves no pending
    // event state for checkpoints to carry. ---
    for (const auto& [slot, seq] : finish_events) {
      if (!lanes.valid.Test(slot)) continue;  // Committed/squashed.
      const Station& prod = stations[static_cast<std::size_t>(slot)];
      if (prod.seq != seq || !prod.finished) continue;
      for (const auto& [cslot, j] : consumers[static_cast<std::size_t>(slot)]) {
        if (!lanes.valid.Test(cslot)) continue;
        const Source& s = win.sources[static_cast<std::size_t>(cslot)][j];
        if (s.inflight && s.seq == seq) deliver(cslot, j, prod.result);
      }
    }
    finish_events.clear();
  }

  return eng.Finish(win.regs);
}

}  // namespace

}  // namespace ultra::core
