// Per-instruction execution timing (Figure 3): the record, its rebuild
// from a pipeline trace, and its ASCII rendering.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "telemetry/trace.hpp"

namespace ultra::analysis {

/// Per-dynamic-instruction timing record (the raw material of Figure 3).
struct InstrTiming {
  std::uint64_t seq = 0;        // Dynamic sequence number (commit order).
  int station = 0;              // Execution-station slot that ran it.
  std::size_t pc = 0;
  isa::Instruction inst;
  std::uint64_t fetch_cycle = 0;
  std::uint64_t issue_cycle = 0;     // First execution cycle.
  std::uint64_t complete_cycle = 0;  // Cycle at whose end the result is ready.
  std::uint64_t commit_cycle = 0;
};

/// The committed instructions' records, in commit order, rebuilt from the
/// events a telemetry::PipelineTracer recorded during a run of @p program.
/// The ring must hold the whole run (check its dropped() count).
std::vector<InstrTiming> TimelineFromTrace(
    std::span<const telemetry::TraceEvent> events,
    const isa::Program& program);

/// Renders a Figure 3-style diagram: one row per committed instruction (in
/// program order), '#' marks spanning the execution interval, with cycle
/// numbers normalized so the first issue is cycle 0.
///
///   div r3, r1, r2   |##########            |
///   add r0, r0, r3   |          #           |
std::string RenderTimingDiagram(std::span<const InstrTiming> timeline,
                                int max_rows = 64);

/// Fraction of register-communicating instruction pairs
/// (producer -> nearest consumer) whose distance in program order is at
/// most `window`: the Section 7 "half of the communication paths ... are
/// completely local" estimate.
double LocalCommunicationFraction(std::span<const InstrTiming> timeline,
                                  std::uint64_t distance);

}  // namespace ultra::analysis
