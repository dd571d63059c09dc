// Idealized conventional out-of-order superscalar baseline.
//
// A classic rename-map machine: a reorder window of config.window_size
// entries, register renaming at fetch, wake-up when producers finish,
// in-order commit, and the same memory-ordering and speculation rules as
// the Ultrascalars. It has "enough functional units to exploit the
// parallelism of the code sequence" (Section 2, discussion of Figure 3),
// so its schedule is the dataflow limit given the window and fetch
// constraints. The Ultrascalar processors are expected to reproduce its
// timing cycle for cycle -- that equivalence is the paper's functional
// claim, and our tests assert it.
//
// Its operand network is deliberately a completely different mechanism
// (rename map + producer sequence numbers instead of register-file
// propagation), so agreement with the Ultrascalar cores is evidence that
// the networks are equivalent. The phases every core shares (fetch, station
// step, squash, memory drain) run in the CycleEngine, which the golden
// corpus pins on its own.
#pragma once

#include "core/processor.hpp"

namespace ultra::core {

class IdealCore final : public Processor {
 public:
  explicit IdealCore(const CoreConfig& config) : config_(config) {}

  [[nodiscard]] RunResult Run(const isa::Program& program) override;
  [[nodiscard]] std::string_view Name() const override { return "Ideal"; }
  [[nodiscard]] const CoreConfig& config() const override { return config_; }
  [[nodiscard]] ProcessorKind kind() const override {
    return ProcessorKind::kIdeal;
  }

 private:
  /// The plain reference cycle loop, run under DatapathEval::kFullRecompute
  /// only; every other mode runs the packed loop in ideal_core.cpp.
  [[nodiscard]] RunResult RunReference(const isa::Program& program);

  CoreConfig config_;
};

}  // namespace ultra::core
