// Quickstart: assemble a program, run it on an Ultrascalar, inspect results.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <cstdio>

#include "analysis/analysis.hpp"
#include "core/core.hpp"
#include "isa/isa.hpp"
#include "telemetry/telemetry.hpp"

int main() {
  using namespace ultra;

  // 1. Write a program in the reference ISA and assemble it.
  const char* source = R"(
    # Sum of squares 1^2 + 2^2 + ... + 10^2 into r2.
      li r1, 1        # i
      li r2, 0        # sum
      li r3, 11       # bound
    loop:
      mul r4, r1, r1
      add r2, r2, r4
      addi r1, r1, 1
      blt r1, r3, loop
      halt
  )";
  const isa::Program program = isa::AssembleOrDie(source);
  std::printf("Assembled %zu instructions:\n%s\n", program.size(),
              program.Disassemble().c_str());

  // 2. Configure a hybrid Ultrascalar: 32-station window, 8-station
  //    clusters, BTFN branch prediction, idealized memory. A pipeline
  //    tracer records every instruction's lifetime for step 5.
  telemetry::PipelineTracer tracer;
  telemetry::RunTelemetry telem;
  telem.tracer = &tracer;
  telem.metrics_enabled = false;
  core::CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.telemetry = &telem;

  // 3. Run.
  auto processor = core::MakeProcessor(core::ProcessorKind::kHybrid, cfg);
  const core::RunResult result = processor->Run(program);

  std::printf("halted=%s cycles=%llu committed=%llu IPC=%.2f\n",
              result.halted ? "yes" : "no",
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.committed),
              result.Ipc());
  std::printf("r2 (sum of squares) = %u   (expected 385)\n",
              result.regs[2]);
  std::printf("mispredictions=%llu squashed=%llu\n\n",
              static_cast<unsigned long long>(result.stats.mispredictions),
              static_cast<unsigned long long>(
                  result.stats.squashed_instructions));

  // 4. Verify against the architectural reference.
  core::FunctionalSimulator reference;
  const auto ref = reference.Run(program);
  std::printf("functional reference agrees: %s\n",
              ref.regs[2] == result.regs[2] ? "yes" : "NO");

  // 5. Peek at the first loop iterations' schedule, rebuilt from the trace.
  const auto timeline = analysis::TimelineFromTrace(tracer.Events(), program);
  const std::size_t rows = std::min<std::size_t>(timeline.size(), 16);
  std::printf("\nFirst %zu committed instructions:\n%s", rows,
              analysis::RenderTimingDiagram({timeline.data(), rows}).c_str());
  return 0;
}
