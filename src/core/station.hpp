// Execution-station state shared by the cycle-level processor models.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/fetch.hpp"
#include "datapath/reg_binding.hpp"

namespace ultra::core {

/// One execution station (Figure 2): an instruction slot with its own ALU,
/// argument latches, and progress flags. The register-file/arg values are
/// supplied each cycle by the register datapath.
struct Station {
  bool valid = false;
  std::uint64_t seq = 0;  // Dynamic program-order sequence number.
  FetchedInstr fetched;

  // Execution progress.
  bool issued = false;
  bool finished = false;
  int busy_remaining = 0;
  isa::Word arg_a = 0;  // Latched at issue.
  isa::Word arg_b = 0;
  datapath::RegBinding result;  // Ready once the ALU/memory has produced it.

  // Control transfers.
  bool resolved = false;
  bool actual_taken = false;
  std::size_t actual_next_pc = 0;

  // Memory operations.
  bool mem_submitted = false;
  bool mem_done = false;
  std::uint64_t mem_id = 0;

  // Squash filtering for in-flight memory responses.
  std::uint64_t generation = 0;

  // Read back by the cores: the issue cycle for core.issue_to_commit_cycles,
  // the complete cycle for pipelined Ultrascalar I delivery.
  std::uint64_t issue_cycle = 0;
  std::uint64_t complete_cycle = 0;

  [[nodiscard]] const isa::Instruction& inst() const { return fetched.inst; }

  /// Execution has begun: an ALU op has issued or a memory op has been
  /// submitted (memory ops never set `issued`).
  [[nodiscard]] bool started() const { return issued || mem_submitted; }

  /// Clears the slot for reuse, keeping the generation counter (which must
  /// survive so stale memory responses are dropped).
  void Clear() {
    const std::uint64_t gen = generation;
    *this = Station{};
    generation = gen;
  }

  /// Frees the slot and bumps its generation, so memory responses still in
  /// flight for the old occupant are dropped.
  void Evict() {
    Clear();
    ++generation;
  }
};

/// Resets a station for a newly fetched instruction.
inline void FillStation(Station& st, const FetchedInstr& f, std::uint64_t seq) {
  st.Clear();
  st.valid = true;
  st.seq = seq;
  st.fetched = f;
}

}  // namespace ultra::core
