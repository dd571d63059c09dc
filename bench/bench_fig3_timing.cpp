// E1 -- Figure 3: the paper's eight-instruction timing diagram.
//
// Runs the Section 2 example on all four processor models and renders the
// execution timing. The paper's claim: the Ultrascalar datapath "exploits
// the same instruction-level parallelism as today's superscalars", i.e.
// every processor produces the Figure 3 schedule (div 10 cycles, mul 3,
// add 1), identical to the ideal out-of-order baseline. The schedules are
// rebuilt from each run's pipeline trace. Exits 1 when any processor
// misses the paper's schedule.
#include <cstdio>
#include <string>

#include "analysis/analysis.hpp"
#include "core/core.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ultra;

core::CoreConfig Config() {
  core::CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 8;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  return cfg;
}

}  // namespace

int main() {
  std::printf("=== E1 / Figure 3: timing-diagram equivalence ===\n\n");
  std::printf(
      "Paper expectation (relative issue cycles): div@0 add@10 add@0 add@11\n"
      "mul@0 add@3 sub@0 add@1; all four processors must agree.\n\n");

  const auto program = workloads::Figure3Example();
  telemetry::PipelineTracer tracer;
  telemetry::RunTelemetry telem;
  telem.tracer = &tracer;
  telem.metrics_enabled = false;
  auto cfg = Config();
  cfg.telemetry = &telem;

  analysis::Table table({"processor", "cycles", "committed", "issue cycles",
                         "matches paper"});
  const std::vector<std::uint64_t> expected = {0, 10, 0, 11, 0, 3, 0, 1};
  bool all_match = true;

  for (const auto kind :
       {core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
        core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid}) {
    tracer.Clear();
    auto proc = core::MakeProcessor(kind, cfg);
    const auto result = proc->Run(program);
    const auto timeline =
        analysis::TimelineFromTrace(tracer.Events(), program);

    std::string issues;
    bool matches = tracer.dropped() == 0 && timeline.size() == 9;
    const std::uint64_t t0 =
        timeline.empty() ? 0 : timeline.front().issue_cycle;
    for (std::size_t k = 0; k + 1 < timeline.size(); ++k) {
      const std::uint64_t rel = timeline[k].issue_cycle - t0;
      issues += (k ? "," : "") + std::to_string(rel);
      if (k < expected.size() && rel != expected[k]) matches = false;
    }
    all_match = all_match && matches;
    table.Row()
        .Cell(std::string(core::ProcessorKindName(kind)))
        .Cell(result.cycles)
        .Cell(result.committed)
        .Cell(issues)
        .Cell(matches ? "yes" : "NO");

    if (kind == core::ProcessorKind::kUltrascalarI) {
      std::printf("Ultrascalar I timing diagram (Figure 3 reproduction):\n");
      std::printf("%s\n",
                  analysis::RenderTimingDiagram(
                      {timeline.data(), timeline.size() - 1})
                      .c_str());
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  return all_match ? 0 : 1;
}
