// DatapathChecker: the policy and bookkeeping half of datapath_eval =
// kChecked. The cores own the actual cross-validation (recomputing each
// live station's arguments from the inputs with their full propagation,
// comparing them with the cached ones, and overwriting mismatches) because
// each core's propagation differs; this class decides *when* a check runs
// and keeps the per-run counters.
//
// Check cadence (docs/robustness.md):
//  * every `stride` cycles (cycle % stride == 0), and
//  * eagerly on any cycle with a hazardous fault staged — value/ready
//    corruptions latch into issued arguments the same cycle they land, so
//    a periodic check alone could let a wrong value commit undetected.
#pragma once

#include <algorithm>
#include <cstdint>

#include "persist/serial.hpp"

namespace ultra::fault {

class DatapathChecker {
 public:
  struct Stats {
    std::uint64_t checks = 0;       // Cross-validations run.
    std::uint64_t divergences = 0;  // Mismatched operands, summed.
    std::uint64_t resyncs = 0;      // Checks that found >= 1 mismatch.
    std::uint64_t last_divergence_cycle = 0;
  };

  explicit DatapathChecker(int stride) : stride_(std::max(1, stride)) {}

  [[nodiscard]] int stride() const { return stride_; }

  /// True when a cross-validation should run this cycle.
  [[nodiscard]] bool Due(std::uint64_t cycle, bool hazard_staged) const {
    return hazard_staged || cycle % static_cast<std::uint64_t>(stride_) == 0;
  }

  void RecordCheck() { ++stats_.checks; }

  /// Call after a check that found @p mismatched_cells > 0 differing
  /// operands; the core has already overwritten them from the full path.
  void RecordDivergence(std::uint64_t cycle, std::uint64_t mismatched_cells) {
    stats_.divergences += mismatched_cells;
    ++stats_.resyncs;
    stats_.last_divergence_cycle = cycle;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Checkpoint support (the stride is configuration, not state).
  void SaveState(persist::Encoder& e) const {
    e.U64(stats_.checks);
    e.U64(stats_.divergences);
    e.U64(stats_.resyncs);
    e.U64(stats_.last_divergence_cycle);
  }
  void RestoreState(persist::Decoder& d) {
    stats_.checks = d.U64();
    stats_.divergences = d.U64();
    stats_.resyncs = d.U64();
    stats_.last_divergence_cycle = d.U64();
  }

 private:
  int stride_;
  Stats stats_;
};

}  // namespace ultra::fault
