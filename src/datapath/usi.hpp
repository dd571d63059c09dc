// The Ultrascalar I register datapath (Sections 2-3, Figures 1 and 4).
//
// One cyclic segmented parallel-prefix circuit per logical register carries
// the register's latest (value, ready) to successive stations. A station
// that writes the register asserts its "modified" bit (the CSPP segment
// bit); the oldest station asserts modified for every register, inserting
// the committed register file into the ring.
//
// Two evaluation paths compute the same function:
//  * Propagate() — the full recompute over station-major buffers. This is
//    the reference path: every call re-evaluates all L register columns and
//    allocates its result.
//  * PropagateIncremental(UsiDatapathState&) — allocation-free and
//    incremental. The caller owns a UsiDatapathState holding the ring's
//    inputs in register-major (SoA) layout and mutates it through
//    self-diffing setters; propagation re-runs only the register columns
//    whose inputs changed since the last call and leaves the rest of the
//    incoming buffer valid. See docs/runtime.md for the dirty-set
//    invariants.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "datapath/reg_binding.hpp"

namespace ultra::datapath {

/// Which circuit family implements the datapath.
enum class PrefixImpl : std::uint8_t {
  kRing,  // Figure 1: ring of multiplexers, Theta(n) gate delay.
  kTree,  // Figure 4: CSPP tree, Theta(log n) gate delay.
};

/// Caller-owned state for incremental, allocation-free propagation.
///
/// Layout is register-major: cell (station i, register r) lives at
/// [r * n + i], so one register's CSPP column is a contiguous O(n) walk.
/// All mutators are self-diffing — re-asserting the current value is a
/// no-op — and mark the affected register columns dirty:
///  * SetWrite/ClearWrite dirty the written register's column;
///  * SetCommitted dirties the register's column when the value changes;
///  * SetOldest dirties every column that currently has at least one
///    writer (columns with no writers broadcast the committed value from
///    whichever station is oldest, so their outputs cannot change).
///
/// After PropagateIncremental, incoming() is element-for-element identical
/// to what the full Propagate would return for the same inputs — including
/// cells of stations the core considers dead (the differential tests rely
/// on this).
class UsiDatapathState {
 public:
  UsiDatapathState(int num_stations, int num_regs);

  [[nodiscard]] int num_stations() const { return n_; }
  [[nodiscard]] int num_regs() const { return L_; }

  /// Marks station @p station as driving @p value into register @p reg's
  /// ring (its modified/segment bit raised).
  void SetWrite(int station, int reg, const RegBinding& value);

  /// Drops station @p station's write to register @p reg (squash, commit,
  /// or slot reuse). No-op when the cell is not set.
  void ClearWrite(int station, int reg);

  /// Convenience for cores whose stations write at most one register:
  /// asserts the station's (possibly absent) write, clearing any previous
  /// write to a different register. Do not mix with raw SetWrite/ClearWrite
  /// on the same station.
  void SetStationWrite(int station, bool writes, int reg,
                       const RegBinding& value);

  /// Updates the committed register file the oldest station inserts.
  void SetCommitted(int reg, const RegBinding& value);

  /// Moves the oldest-station (forced segment) position.
  void SetOldest(int station);

  /// Forces the next PropagateIncremental to re-run every column.
  void MarkAllDirty();

  [[nodiscard]] int oldest() const { return oldest_; }
  [[nodiscard]] bool has_write(int station, int reg) const {
    return modified_[Cell(station, reg)] != 0;
  }
  [[nodiscard]] const RegBinding& committed(int reg) const {
    return committed_[static_cast<std::size_t>(reg)];
  }
  /// Valid after PropagateIncremental: what the ring delivers to
  /// (station, reg). The oldest station's cell holds the wrap-around value,
  /// which the cores ignore.
  [[nodiscard]] const RegBinding& incoming(int station, int reg) const {
    return incoming_[Cell(station, reg)];
  }

 private:
  friend class UltrascalarIDatapath;

  [[nodiscard]] std::size_t Cell(int station, int reg) const {
    return static_cast<std::size_t>(reg) * static_cast<std::size_t>(n_) +
           static_cast<std::size_t>(station);
  }

  int n_;
  int L_;
  int oldest_ = 0;
  std::vector<RegBinding> cell_;        // [r*n + i], valid when modified_.
  std::vector<std::uint8_t> modified_;  // [r*n + i].
  std::vector<RegBinding> incoming_;    // [r*n + i].
  std::vector<RegBinding> committed_;   // [r].
  std::vector<std::uint8_t> dirty_;     // [r].
  std::vector<int> writer_count_;       // [r]: set modified_ bits in column.
  // SetStationWrite shadow: the single register each station last drove.
  std::vector<std::uint8_t> station_writes_;  // [i].
  std::vector<std::uint8_t> station_reg_;     // [i].
};

class UltrascalarIDatapath {
 public:
  /// @p num_stations is n, @p num_regs is L.
  UltrascalarIDatapath(int num_stations, int num_regs,
                       PrefixImpl impl = PrefixImpl::kTree);

  [[nodiscard]] int num_stations() const { return n_; }
  [[nodiscard]] int num_regs() const { return L_; }
  [[nodiscard]] PrefixImpl impl() const { return impl_; }

  /// Combinational propagation for one cycle — the full-recompute
  /// reference path.
  ///
  /// @p outgoing  n*L bindings, indexed [station*L + reg]: what each station
  ///              drives into the ring for each register (its result for the
  ///              destination register; its register-file copy otherwise).
  /// @p modified  n*L flags: the mux select of Figure 1. The oldest
  ///              station's flags are treated as all-set regardless.
  /// @p oldest    index of the oldest station.
  /// @returns     n*L incoming bindings: for station i and register r, the
  ///              binding from the nearest preceding station (cyclically,
  ///              stopping at the oldest) that modified r.
  [[nodiscard]] std::vector<RegBinding> Propagate(
      std::span<const RegBinding> outgoing,
      std::span<const std::uint8_t> modified, int oldest) const;

  /// Incremental, allocation-free propagation: re-evaluates only the dirty
  /// register columns of @p state and clears their dirty bits. When
  /// @p changed_stations is non-empty (size n), position i is OR-ed with 1
  /// whenever any incoming cell of station i changed value this call (the
  /// hybrid datapath uses this to skip clean clusters).
  void PropagateIncremental(UsiDatapathState& state,
                            std::span<std::uint8_t> changed_stations = {})
      const;

  /// Critical-path gate depth of one propagation with the given modified
  /// pattern (measured by evaluating the depth-tracked circuit). The ring
  /// grows as Theta(n); the tree as Theta(log n).
  [[nodiscard]] int MeasureGateDepth(std::span<const std::uint8_t> modified,
                                     int oldest) const;

  /// Worst case over single-writer placements: a value written by the
  /// station just after the oldest must travel the whole ring.
  [[nodiscard]] int WorstCaseGateDepth() const;

 private:
  int n_;
  int L_;
  PrefixImpl impl_;
};

}  // namespace ultra::datapath
