// Abstract processor interface and factory.
//
// All four processors (Ultrascalar I, Ultrascalar II, hybrid, and the
// idealized conventional out-of-order baseline) implement identical
// instruction sets with identical scheduling policies (Section 1); they
// differ only in microarchitecture. Run() executes a program to completion
// and reports architectural state, cycle counts and stats; per-instruction
// schedules come from the pipeline tracer (analysis::TimelineFromTrace).
#pragma once

#include <memory>
#include <string_view>

#include "core/config.hpp"
#include "isa/program.hpp"
#include "memory/branch_predictor.hpp"
#include "persist/checkpoint.hpp"

namespace ultra::core {

enum class ProcessorKind : std::uint8_t {
  kIdeal,
  kUltrascalarI,
  kUltrascalarII,
  kHybrid,
};

class Processor {
 public:
  virtual ~Processor() = default;

  /// Runs @p program from pc 0 until the halt commits (or max_cycles).
  [[nodiscard]] virtual RunResult Run(const isa::Program& program) = 0;

  [[nodiscard]] virtual std::string_view Name() const = 0;
  [[nodiscard]] virtual const CoreConfig& config() const = 0;
  [[nodiscard]] virtual ProcessorKind kind() const = 0;

  /// Runs @p program just long enough to capture a checkpoint at the top
  /// of cycle @p cycle (full microarchitectural + architectural state; see
  /// docs/robustness.md), then stops. Throws std::runtime_error when the
  /// run ends before reaching that cycle. Leaves this processor untouched
  /// — the capture happens in a scratch instance with the same config.
  [[nodiscard]] persist::Checkpoint SaveCheckpoint(
      const isa::Program& program, std::uint64_t cycle) const;

  /// Resumes @p program from @p checkpoint and runs to completion. The
  /// result is identical — cycles, stats, registers, memory, and the trace
  /// events from the checkpoint's cycle on — to an uninterrupted Run() of
  /// the same program. Throws
  /// persist::FormatError when the checkpoint was taken by a different
  /// core kind, config, or program.
  [[nodiscard]] RunResult RestoreCheckpoint(
      const isa::Program& program,
      const persist::Checkpoint& checkpoint) const;
};

std::string_view ProcessorKindName(ProcessorKind kind);

/// Builds a processor of @p kind with @p config.
std::unique_ptr<Processor> MakeProcessor(ProcessorKind kind,
                                         const CoreConfig& config);

/// Builds the predictor selected by @p config. The oracle predictor is
/// derived from a functional pre-run of @p program.
std::unique_ptr<memory::BranchPredictor> MakePredictor(
    const CoreConfig& config, const isa::Program& program);

}  // namespace ultra::core
