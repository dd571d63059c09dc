// WriterMapNetwork: the operand network of the Ultrascalar I, II and hybrid
// packed loops.
//
// The three processors deliver every source operand from its nearest
// preceding writer in program order, or from the committed register file,
// and differ only in the wires that carry it (Sections 2-7). In the packed
// loops that delivery is one algorithm over one PackedWriterMap, so it
// lives here once; each core keeps its window discipline, names its lanes'
// stations and passes its oldest lane every cycle.
//
// Lanes are program positions, cyclic from an oldest lane: Ultrascalar I
// passes its ring head, Ultrascalar II and the hybrid pass 0, for which the
// writer map's cyclic queries give the acyclic answers. The writer/reader
// rows and the PackedLanes flags are lane-indexed; the cached arguments,
// the memory-window entries and mw_stale are station-indexed, so the
// hybrid's lane renumbering (ShiftDown) leaves them in place. Everything
// but the cached arguments and the stale set derives from the stations and
// is rebuilt on restore. Every entry point is an inline template over the
// core's callables: nothing here is a std::function or a virtual call.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/cycle_engine.hpp"
#include "datapath/packed_resolve.hpp"

namespace ultra::core {

template <typename StationOf = std::identity>
class WriterMapNetwork {
 public:
  /// A network of @p n lanes (zero for the byte-lane loops: nothing is
  /// allocated) over @p regs registers; @p station_of(lane) is a lane's
  /// station (by default the lane itself: Ultrascalar I's ring slots and
  /// Ultrascalar II's batch slots are their stations).
  WriterMapNetwork(CycleEngine& eng, int n, int regs,
                   StationOf station_of = {})
      : lanes(n), eng_(eng), station_of_(station_of), n_(n) {
    if (n == 0) return;
    wmap.Assign(n, regs);
    args.resize(static_cast<std::size_t>(n));
    mem_window_.resize(static_cast<std::size_t>(n));
  }

  PackedLanes lanes;
  datapath::PackedWriterMap wmap;
  std::vector<datapath::ResolvedArgs> args;  // Cached, by station.

  /// Lane @p p now holds station @p i: its reads and write join the rows
  /// and it goes stale. An injected stall sticks to the station, so the
  /// lane's stall flag is re-derived.
  void Fill(int p, int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    lanes.Fill(p, st);
    if (isa::WritesRd(inst.op)) wmap.SetWriter(p, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.AddReader(p, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.AddReader(p, inst.rs2);
    lanes.stall.SetTo(p, eng_.fault_stall[static_cast<std::size_t>(i)] > 0);
    lanes.stale.Set(p);
    if (eng_.forwarding) lanes.mw_stale.Set(i);
  }

  /// Lane @p p empties; its station @p i must still hold its instruction.
  void Clear(int p, int i, const Station& st) {
    const isa::Instruction& inst = st.inst();
    if (isa::WritesRd(inst.op)) wmap.ClearWriter(p, inst.rd);
    if (isa::ReadsRs1(inst.op)) wmap.ClearReader(p, inst.rs1);
    if (isa::ReadsRs2(inst.op)) wmap.ClearReader(p, inst.rs2);
    lanes.Clear(p);
    lanes.stall.Clear(p);
    lanes.stale.Clear(p);
    ClearStation(i);
  }

  /// Resets station @p i's cached entries (the hybrid frees a cluster this
  /// way, and shifts its lanes out).
  void ClearStation(int i) {
    lanes.mw_stale.Clear(i);
    args[static_cast<std::size_t>(i)] = datapath::ResolvedArgs{};
    if (eng_.forwarding) mem_window_[static_cast<std::size_t>(i)] = {};
  }

  /// Lane @p p's binding of register @p r changed (it issued, finished,
  /// its load data arrived, or it committed as the oldest lane): only the
  /// readers up to the next writer of r see a different source, so only
  /// that span goes stale. The next writer is included, because a lane that
  /// reads and writes r reads the previous writer.
  void MarkResultChange(int p, isa::RegId r, int oldest) {
    const int next = wmap.NearestWriterAfter(p, r, oldest);
    wmap.OrReadersInCyclicRange(r, LaneAt(p, 1),
                                next >= 0 ? LaneAt(next, 1) : oldest,
                                lanes.stale);
  }

  /// Re-resolves the station of every stale lane, from its nearest
  /// preceding writer's binding (ready or not) or, when none precedes it,
  /// from @p committed; the oldest lane always reads the file. Then clears
  /// the stale set. The stations are as the last cycle left them, so this
  /// delivers what the core's propagation circuit would.
  void Drain(int oldest, std::span<const datapath::RegBinding> committed) {
    datapath::ForEachSetBit(lanes.stale, [&](int p) {
      const int i = station_of_(p);
      const Station& st = eng_.stations[static_cast<std::size_t>(i)];
      if (!st.valid) return;
      const auto read = [&](isa::RegId r) -> datapath::RegBinding {
        const int j = wmap.NearestWriterBefore(p, r, oldest);
        return j < 0 ? committed[r]
                     : eng_.stations[static_cast<std::size_t>(station_of_(j))]
                           .result;
      };
      datapath::ResolvedArgs& a = args[static_cast<std::size_t>(i)];
      a = datapath::ResolvedArgs{};
      if (isa::ReadsRs1(st.inst().op)) a.arg1 = read(st.inst().rs1);
      if (isa::ReadsRs2(st.inst().op)) a.arg2 = read(st.inst().rs2);
      Written(p, i, true);
    });
    lanes.stale.ClearAll();
  }

  /// Station @p i's cached arguments, at lane @p p, were (re)written:
  /// refreshes its readiness flag, and its memory-window entry when they
  /// @p moved.
  void Written(int p, int i, bool moved) {
    const isa::Opcode op = eng_.stations[static_cast<std::size_t>(i)].inst().op;
    const datapath::ResolvedArgs& a = args[static_cast<std::size_t>(i)];
    lanes.args_ready.SetTo(p, (!isa::ReadsRs1(op) || a.arg1.ready) &&
                                  (!isa::ReadsRs2(op) || a.arg2.ready));
    if (eng_.forwarding && moved) lanes.mw_stale.Set(i);
  }

  /// Station @p i, at lane @p p, stepped or its memory operation landed:
  /// syncs its progress flags, marks its readers stale when its result
  /// @p moved, and schedules its memory-window refresh.
  void Stepped(int p, int i, const Station& st, bool moved, int oldest) {
    lanes.Sync(p, st);
    if (moved && isa::WritesRd(st.inst().op)) {
      MarkResultChange(p, st.inst().rd, oldest);
    }
    if (eng_.forwarding) lanes.mw_stale.Set(i);
  }

  /// Fault injection and the checker, once the cycle's arguments are final
  /// and before any station reads them; @p lane_of(i) is live station i's
  /// lane. When the checker is due, @p recompute(resync) recomputes every
  /// argument from scratch and calls resync(p, i, full) for each station i
  /// at lane p: when a live station's operands differ from the ones it
  /// reads in @p full, they are counted and overwritten.
  template <typename Recompute, typename LaneOf = std::identity>
  void InjectAndCheck(std::uint64_t cycle, Recompute&& recompute,
                      LaneOf&& lane_of = {}) {
    const auto live = [&](int i) {
      return eng_.stations[static_cast<std::size_t>(i)].valid;
    };
    eng_.InjectFaults(
        cycle, args, [&](int i) { if (live(i)) lanes.stall.Set(lane_of(i)); },
        [&](int i) { if (live(i)) Written(lane_of(i), i, true); });
    eng_.Check(cycle, [&] {
      std::uint64_t mismatched = 0;
      recompute([&](int p, int i, const datapath::ResolvedArgs& full) {
        const Station& st = eng_.stations[static_cast<std::size_t>(i)];
        if (!st.valid) return;
        datapath::ResolvedArgs truth;
        if (isa::ReadsRs1(st.inst().op)) truth.arg1 = full.arg1;
        if (isa::ReadsRs2(st.inst().op)) truth.arg2 = full.arg2;
        datapath::ResolvedArgs& seen = args[static_cast<std::size_t>(i)];
        if (seen == truth) return;
        mismatched += (seen.arg1 != truth.arg1) + (seen.arg2 != truth.arg2);
        seen = truth;
        Written(p, i, true);
      });
      return mismatched;
    });
  }

  /// Rewrites the memory-window entries whose station or arguments moved
  /// (store forwarding only). It runs after the memory drain, so this
  /// cycle's completions are visible to disambiguation.
  void RefreshMemWindow() {
    if (!eng_.forwarding) return;
    datapath::ForEachSetBit(lanes.mw_stale, [&](int i) {
      mem_window_[static_cast<std::size_t>(i)] =
          MakeMemWindowEntry(eng_.stations[static_cast<std::size_t>(i)],
                             args[static_cast<std::size_t>(i)]);
    });
    lanes.mw_stale.ClearAll();
  }

  /// The execute phase over program positions [@p first, @p end), counted
  /// from lane @p oldest: each must-visit lane, in program order, sits out
  /// an injected stall or steps with its cached arguments; a mispredict
  /// squashes the younger positions through @p drop and ends the walk.
  /// Stalled lanes are visited only while unfinished with
  /// @p stall_unfinished.
  template <typename Drop>
  void Execute(std::uint64_t cycle, int oldest, int first, int& end,
               bool stall_unfinished, Drop&& drop) {
    const bool have_grants = eng_.config.num_alus > 0;
    const auto slot_at = [&](int a) { return station_of_(LaneAt(oldest, a)); };
    const auto entry_at = [&](std::size_t a) -> const MemWindowEntry& {
      return mem_window_[static_cast<std::size_t>(
          slot_at(static_cast<int>(a)))];
    };
    lanes.ForEachMustVisit(
        LaneAt(oldest, first), end - first, eng_.forwarding, have_grants,
        stall_unfinished, [&](int p) {
          const int i = station_of_(p);
          if (eng_.SitOut(lanes, p, i)) return true;
          const int age = p >= oldest ? p - oldest : p - oldest + n_;
          Station& st = eng_.stations[static_cast<std::size_t>(i)];
          const datapath::RegBinding before = st.result;
          const bool mispredicted = eng_.Step(
              cycle, i, st, args[static_cast<std::size_t>(i)],
              lanes.OrderAt(p, have_grants), entry_at, age, i,
              static_cast<std::uint64_t>(i));
          Stepped(p, i, st, st.result != before, oldest);
          if (!mispredicted) return true;
          eng_.Squash(cycle, age, end, st.actual_next_pc, false, slot_at,
                      drop);
          return false;
        });
  }

  /// The checkpoint trailer: the cached arguments and the stale set. Both
  /// are machine state: a live fault corruption sits in a cached argument
  /// until its station re-resolves, so recomputing them would heal it.
  void Save(persist::Encoder& e) const {
    for (const datapath::ResolvedArgs& a : args) datapath::Save(e, a);
    const datapath::PackedBits& stale = lanes.stale;
    for (int w = 0; w < stale.num_words(); ++w) e.U64(stale.word(w));
  }

  /// Rebuilds the derived state from the restored stations at positions
  /// [0, @p end) from lane @p oldest, then reads the trailer back.
  void Restore(persist::Decoder& d, int oldest, int end) {
    const auto each_live = [&](auto&& fn) {
      for (int a = 0; a < end; ++a) {
        const int p = LaneAt(oldest, a);
        const int i = station_of_(p);
        const Station& st = eng_.stations[static_cast<std::size_t>(i)];
        if (st.valid) fn(p, i, st);
      }
    };
    each_live([&](int p, int i, const Station& st) { Fill(p, i, st); });
    for (datapath::ResolvedArgs& a : args) datapath::Restore(d, a);
    datapath::PackedBits& stale = lanes.stale;
    for (int w = 0; w < stale.num_words(); ++w) stale.word(w) = d.U64();
    stale.word(stale.num_words() - 1) &= datapath::PackedTailMask(n_);
    each_live([&](int p, int i, const Station&) { Written(p, i, false); });
  }

 private:
  /// The lane @p a positions after lane @p p, for @p a below the lane count.
  [[nodiscard]] int LaneAt(int p, int a) const {
    const int q = p + a;
    return q >= n_ ? q - n_ : q;
  }

  CycleEngine& eng_;
  StationOf station_of_;
  int n_;
  std::vector<MemWindowEntry> mem_window_;  // By station.
};

}  // namespace ultra::core
