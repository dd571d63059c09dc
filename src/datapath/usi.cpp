#include "datapath/usi.hpp"

#include <algorithm>
#include <cassert>

#include "circuit/circuit.hpp"

namespace ultra::datapath {

using circuit::Signal;

// --- UsiDatapathState --------------------------------------------------------

UsiDatapathState::UsiDatapathState(int num_stations, int num_regs)
    : n_(num_stations), L_(num_regs) {
  assert(n_ >= 1);
  assert(L_ >= 1 && L_ <= isa::kMaxLogicalRegisters);
  const std::size_t cells =
      static_cast<std::size_t>(n_) * static_cast<std::size_t>(L_);
  cell_.resize(cells);
  modified_.assign(cells, 0);
  incoming_.resize(cells);
  committed_.resize(static_cast<std::size_t>(L_));
  dirty_.assign(static_cast<std::size_t>(L_), 1);  // Nothing computed yet.
  writer_count_.assign(static_cast<std::size_t>(L_), 0);
  station_writes_.assign(static_cast<std::size_t>(n_), 0);
  station_reg_.assign(static_cast<std::size_t>(n_), 0);
}

void UsiDatapathState::SetWrite(int station, int reg,
                                const RegBinding& value) {
  const std::size_t idx = Cell(station, reg);
  if (!modified_[idx]) {
    modified_[idx] = 1;
    ++writer_count_[static_cast<std::size_t>(reg)];
    cell_[idx] = value;
    dirty_[static_cast<std::size_t>(reg)] = 1;
  } else if (cell_[idx] != value) {
    cell_[idx] = value;
    dirty_[static_cast<std::size_t>(reg)] = 1;
  }
}

void UsiDatapathState::ClearWrite(int station, int reg) {
  const std::size_t idx = Cell(station, reg);
  if (modified_[idx]) {
    modified_[idx] = 0;
    --writer_count_[static_cast<std::size_t>(reg)];
    dirty_[static_cast<std::size_t>(reg)] = 1;
  }
}

void UsiDatapathState::SetStationWrite(int station, bool writes, int reg,
                                       const RegBinding& value) {
  const std::size_t s = static_cast<std::size_t>(station);
  if (station_writes_[s] &&
      (!writes || static_cast<int>(station_reg_[s]) != reg)) {
    ClearWrite(station, static_cast<int>(station_reg_[s]));
    station_writes_[s] = 0;
  }
  if (writes) {
    SetWrite(station, reg, value);
    station_writes_[s] = 1;
    station_reg_[s] = static_cast<std::uint8_t>(reg);
  }
}

void UsiDatapathState::SetCommitted(int reg, const RegBinding& value) {
  if (committed_[static_cast<std::size_t>(reg)] != value) {
    committed_[static_cast<std::size_t>(reg)] = value;
    dirty_[static_cast<std::size_t>(reg)] = 1;
  }
}

void UsiDatapathState::SetOldest(int station) {
  if (station == oldest_) return;
  oldest_ = station;
  // Moving the forced segment can only change columns that have a writer:
  // a writer-free column broadcasts the committed value to every station
  // regardless of where the oldest sits.
  for (int r = 0; r < L_; ++r) {
    if (writer_count_[static_cast<std::size_t>(r)] > 0) {
      dirty_[static_cast<std::size_t>(r)] = 1;
    }
  }
}

void UsiDatapathState::MarkAllDirty() {
  std::fill(dirty_.begin(), dirty_.end(), 1);
}

// --- UltrascalarIDatapath ----------------------------------------------------

UltrascalarIDatapath::UltrascalarIDatapath(int num_stations, int num_regs,
                                           PrefixImpl impl)
    : n_(num_stations), L_(num_regs), impl_(impl) {
  assert(n_ >= 1);
  assert(L_ >= 1 && L_ <= isa::kMaxLogicalRegisters);
}

std::vector<RegBinding> UltrascalarIDatapath::Propagate(
    std::span<const RegBinding> outgoing,
    std::span<const std::uint8_t> modified, int oldest) const {
  assert(outgoing.size() == static_cast<std::size_t>(n_) * L_);
  assert(modified.size() == outgoing.size());
  assert(oldest >= 0 && oldest < n_);

  std::vector<RegBinding> incoming(outgoing.size());
  std::vector<RegBinding> ring(static_cast<std::size_t>(n_));
  std::vector<std::uint8_t> segs(static_cast<std::size_t>(n_));
  // One cyclic segmented prefix per logical register. The ring and tree
  // circuits compute the same function; the functional model uses the O(n)
  // value walk (CsppValues) for both.
  for (int r = 0; r < L_; ++r) {
    for (int i = 0; i < n_; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i) * L_ + r;
      ring[static_cast<std::size_t>(i)] = outgoing[idx];
      segs[static_cast<std::size_t>(i)] = modified[idx] != 0 || i == oldest;
    }
    const auto out = circuit::CsppValues<RegBinding, circuit::PassFirstOp>(
        ring, segs, circuit::PassFirstOp{});
    for (int i = 0; i < n_; ++i) {
      incoming[static_cast<std::size_t>(i) * L_ + r] =
          out[static_cast<std::size_t>(i)];
    }
  }
  return incoming;
}

void UltrascalarIDatapath::PropagateIncremental(
    UsiDatapathState& state, std::span<std::uint8_t> changed_stations) const {
  assert(state.n_ == n_ && state.L_ == L_);
  assert(changed_stations.empty() ||
         changed_stations.size() == static_cast<std::size_t>(n_));
  const std::size_t n = static_cast<std::size_t>(n_);
  const int oldest = state.oldest_;
  for (int r = 0; r < L_; ++r) {
    if (!state.dirty_[static_cast<std::size_t>(r)]) continue;
    state.dirty_[static_cast<std::size_t>(r)] = 0;
    const std::size_t base = static_cast<std::size_t>(r) * n;
    const RegBinding* cell = state.cell_.data() + base;
    const std::uint8_t* modified = state.modified_.data() + base;
    RegBinding* incoming = state.incoming_.data() + base;
    const RegBinding committed = state.committed_[static_cast<std::size_t>(r)];
    // The CSPP column under PassFirstOp: the carry changes only at segment
    // positions (the value never folds), so the walk starts at the oldest
    // station's forced segment and just tracks the latest writer. The
    // oldest station drives its own result when it writes r, else the
    // committed file — exactly what the station-major reference builds.
    RegBinding carry{};
    std::size_t i = static_cast<std::size_t>(oldest);
    for (int step = 0; step < n_; ++step) {
      if (modified[i]) {
        carry = cell[i];
      } else if (static_cast<int>(i) == oldest) {
        carry = committed;
      }
      std::size_t next = i + 1;
      if (next == n) next = 0;
      if (incoming[next] != carry) {
        incoming[next] = carry;
        if (!changed_stations.empty()) changed_stations[next] = 1;
      }
      i = next;
    }
  }
}

int UltrascalarIDatapath::MeasureGateDepth(
    std::span<const std::uint8_t> modified, int oldest) const {
  assert(modified.size() == static_cast<std::size_t>(n_) * L_);
  int worst = 0;
  std::vector<Signal<RegBinding>> ring(static_cast<std::size_t>(n_));
  std::vector<Signal<bool>> segs(static_cast<std::size_t>(n_));
  for (int r = 0; r < L_; ++r) {
    for (int i = 0; i < n_; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i) * L_ + r;
      ring[static_cast<std::size_t>(i)] = {RegBinding{}, 0};
      segs[static_cast<std::size_t>(i)] = {modified[idx] != 0 || i == oldest,
                                           0};
    }
    const auto out =
        impl_ == PrefixImpl::kRing
            ? circuit::CsppRingEvaluate<RegBinding, circuit::PassFirstOp>(
                  ring, segs)
            : circuit::CsppTreeEvaluate<RegBinding, circuit::PassFirstOp>(
                  ring, segs);
    for (const auto& s : out) worst = std::max(worst, s.depth);
  }
  return worst;
}

int UltrascalarIDatapath::WorstCaseGateDepth() const {
  // A single writer immediately after the oldest station: its value must
  // reach the station just before it, traversing the whole ring. One
  // register suffices; all registers have identical circuits.
  std::vector<std::uint8_t> modified(static_cast<std::size_t>(n_) * L_, 0);
  const int oldest = 0;
  if (n_ > 1) {
    modified[static_cast<std::size_t>(1) * L_ + 0] = 1;
  }
  // Depth of register 0's circuit only (others are all-unmodified and
  // cheaper or equal).
  std::vector<Signal<RegBinding>> ring(static_cast<std::size_t>(n_));
  std::vector<Signal<bool>> segs(static_cast<std::size_t>(n_));
  for (int i = 0; i < n_; ++i) {
    segs[static_cast<std::size_t>(i)] = {
        modified[static_cast<std::size_t>(i) * L_] != 0 || i == oldest, 0};
  }
  const auto out =
      impl_ == PrefixImpl::kRing
          ? circuit::CsppRingEvaluate<RegBinding, circuit::PassFirstOp>(ring,
                                                                        segs)
          : circuit::CsppTreeEvaluate<RegBinding, circuit::PassFirstOp>(ring,
                                                                        segs);
  int worst = 0;
  for (const auto& s : out) worst = std::max(worst, s.depth);
  return worst;
}

}  // namespace ultra::datapath
