// Pipeline visualizer: run a named workload on a chosen processor model and
// render its execution schedule, Figure 3 style. The schedule is rebuilt
// from the telemetry subsystem's pipeline trace (telemetry::PipelineTracer)
// by analysis::TimelineFromTrace, the same event stream the Perfetto
// exporter consumes.
//
// Usage:
//   pipeline_visualizer [processor] [workload] [window] [cluster]
//     processor: ideal | usi | usii | hybrid      (default usi)
//     workload:  figure3 | fib | dot | bubble | chains | storm
//                                                  (default figure3)
//     window:    execution stations               (default 16)
//     cluster:   hybrid cluster size              (default 8)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "analysis/analysis.hpp"
#include "core/core.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace ultra;

core::ProcessorKind ParseKind(const std::string& name) {
  if (name == "ideal") return core::ProcessorKind::kIdeal;
  if (name == "usi") return core::ProcessorKind::kUltrascalarI;
  if (name == "usii") return core::ProcessorKind::kUltrascalarII;
  if (name == "hybrid") return core::ProcessorKind::kHybrid;
  std::fprintf(stderr, "unknown processor '%s'\n", name.c_str());
  std::exit(1);
}

isa::Program ParseWorkload(const std::string& name) {
  if (name == "figure3") return workloads::Figure3Example();
  if (name == "fib") return workloads::Fibonacci(10);
  if (name == "dot") return workloads::DotProduct(8);
  if (name == "bubble") return workloads::BubbleSort(6);
  if (name == "chains") {
    return workloads::DependencyChains(
        {.num_instructions = 24, .ilp = 3, .use_long_ops = true});
  }
  if (name == "storm") return workloads::BranchStorm(6);
  std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string kind_name = argc > 1 ? argv[1] : "usi";
  const std::string workload = argc > 2 ? argv[2] : "figure3";
  const int window = argc > 3 ? std::atoi(argv[3]) : 16;
  const int cluster = argc > 4 ? std::atoi(argv[4]) : 8;

  telemetry::PipelineTracer tracer(
      {.capacity = std::size_t{1} << 18});
  telemetry::RunTelemetry telem;
  telem.tracer = &tracer;
  telem.metrics_enabled = false;  // Only the event stream is rendered.

  core::CoreConfig cfg;
  cfg.window_size = window;
  cfg.cluster_size = cluster;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.telemetry = &telem;

  const auto kind = ParseKind(kind_name);
  const auto program = ParseWorkload(workload);

  auto proc = core::MakeProcessor(kind, cfg);
  const auto result = proc->Run(program);

  const auto timeline = analysis::TimelineFromTrace(tracer.Events(), program);

  std::printf("%s, window=%d%s, workload=%s\n",
              std::string(core::ProcessorKindName(kind)).c_str(), window,
              kind == core::ProcessorKind::kHybrid
                  ? (", cluster=" + std::to_string(cluster)).c_str()
                  : "",
              workload.c_str());
  std::printf("cycles=%llu committed=%llu IPC=%.2f mispredicts=%llu\n\n",
              static_cast<unsigned long long>(result.cycles),
              static_cast<unsigned long long>(result.committed),
              result.Ipc(),
              static_cast<unsigned long long>(result.stats.mispredictions));
  std::printf("%s", analysis::RenderTimingDiagram(timeline, 48).c_str());
  return 0;
}
