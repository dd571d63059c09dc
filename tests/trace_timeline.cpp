#include "trace_timeline.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace ultra::test {

std::size_t TraceCapacity(const core::RunResult& run, int window) {
  const std::uint64_t fetched = run.committed +
                                run.stats.squashed_instructions +
                                static_cast<std::uint64_t>(window);
  return static_cast<std::size_t>(6 * fetched + 3 * run.cycles +
                                  run.stats.fault.injected + 16);
}

std::vector<telemetry::TraceEvent> TraceEvents(
    core::ProcessorKind kind, core::CoreConfig cfg,
    const isa::Program& program, const core::RunResult& untraced,
    const persist::Checkpoint* resume) {
  telemetry::PipelineTracer tracer(
      {.capacity = TraceCapacity(untraced, cfg.window_size)});
  telemetry::RunTelemetry telem;
  telem.tracer = &tracer;
  telem.metrics_enabled = false;
  cfg.telemetry = &telem;
  const auto proc = core::MakeProcessor(kind, cfg);
  const core::RunResult traced = resume != nullptr
                                     ? proc->RestoreCheckpoint(program, *resume)
                                     : proc->Run(program);
  EXPECT_EQ(traced.cycles, untraced.cycles) << "tracing changed the run";
  EXPECT_EQ(traced.committed, untraced.committed) << "tracing changed the run";
  EXPECT_EQ(tracer.dropped(), 0u) << "the trace ring was sized too small";
  return tracer.Events();
}

void ExpectResumedTraceMatches(core::ProcessorKind kind,
                               const core::CoreConfig& cfg,
                               const isa::Program& program,
                               const persist::Checkpoint& checkpoint,
                               const core::RunResult& untraced) {
  std::vector<telemetry::TraceEvent> suffix;
  for (const telemetry::TraceEvent& e :
       TraceEvents(kind, cfg, program, untraced)) {
    if (e.cycle >= checkpoint.header.cycle) suffix.push_back(e);
  }
  const std::vector<telemetry::TraceEvent> resumed =
      TraceEvents(kind, cfg, program, untraced, &checkpoint);
  ASSERT_EQ(resumed.size(), suffix.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    ASSERT_EQ(resumed[i], suffix[i])
        << "event " << i << " (cycle " << suffix[i].cycle << ", "
        << telemetry::TraceEventKindName(suffix[i].kind) << ")";
  }
}

std::vector<analysis::InstrTiming> TracedTimeline(
    core::ProcessorKind kind, const core::CoreConfig& cfg,
    const isa::Program& program, const core::RunResult& untraced) {
  return analysis::TimelineFromTrace(
      TraceEvents(kind, cfg, program, untraced), program);
}

TracedRun RunTraced(core::ProcessorKind kind, const core::CoreConfig& cfg,
                    const isa::Program& program) {
  TracedRun run{core::MakeProcessor(kind, cfg)->Run(program), {}};
  run.timeline = TracedTimeline(kind, cfg, program, run);
  return run;
}

void ExpectSameTimeline(const std::vector<analysis::InstrTiming>& a,
                        const std::vector<analysis::InstrTiming>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    ASSERT_EQ(a[t].seq, b[t].seq) << "t=" << t;
    ASSERT_EQ(a[t].station, b[t].station) << "t=" << t;
    ASSERT_EQ(a[t].pc, b[t].pc) << "t=" << t;
    ASSERT_EQ(a[t].fetch_cycle, b[t].fetch_cycle) << "t=" << t;
    ASSERT_EQ(a[t].issue_cycle, b[t].issue_cycle) << "t=" << t;
    ASSERT_EQ(a[t].complete_cycle, b[t].complete_cycle) << "t=" << t;
    ASSERT_EQ(a[t].commit_cycle, b[t].commit_cycle) << "t=" << t;
  }
}

}  // namespace ultra::test
