// Test helpers for per-instruction schedules. The cores keep no timeline of
// their own: a run's schedule is rebuilt from a PipelineTracer's events by
// analysis::TimelineFromTrace. Tests that compare schedules run each point
// untraced (the production path, whose RunResult they compare) and again
// with a tracer attached, sized from the untraced run so the ring never
// drops an event.
#pragma once

#include <cstddef>
#include <vector>

#include "analysis/timing_diagram.hpp"
#include "core/core.hpp"
#include "persist/checkpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace ultra::test {

/// Ring capacity that holds every event of a run shaped like @p run on a
/// @p window-station core: at most six events per fetched instruction
/// (fetch, two renames, issue, complete, commit or squash), including a
/// window's worth left in flight when the halt commits, plus up to three
/// core-level events per cycle (batch retire, checker check and resync)
/// and one per injected fault.
std::size_t TraceCapacity(const core::RunResult& run, int window);

/// The events of @p program on @p kind with @p cfg, traced with a ring
/// sized from @p untraced, the same point's untraced run; with @p resume
/// set, the traced run resumes from that checkpoint. Fails the test when
/// tracing changed the run or the ring dropped an event.
std::vector<telemetry::TraceEvent> TraceEvents(
    core::ProcessorKind kind, core::CoreConfig cfg,
    const isa::Program& program, const core::RunResult& untraced,
    const persist::Checkpoint* resume = nullptr);

/// A run resumed from @p checkpoint (taken at cycle k) must record exactly
/// the uninterrupted run's events with cycle >= k; @p untraced is the
/// uninterrupted run's result.
void ExpectResumedTraceMatches(core::ProcessorKind kind,
                               const core::CoreConfig& cfg,
                               const isa::Program& program,
                               const persist::Checkpoint& checkpoint,
                               const core::RunResult& untraced);

/// The committed schedule of @p program on @p kind with @p cfg, rebuilt
/// from a traced rerun of the point whose untraced result is @p untraced.
std::vector<analysis::InstrTiming> TracedTimeline(
    core::ProcessorKind kind, const core::CoreConfig& cfg,
    const isa::Program& program, const core::RunResult& untraced);

/// An untraced run's result plus the schedule of its traced rerun.
struct TracedRun : core::RunResult {
  std::vector<analysis::InstrTiming> timeline;
};

TracedRun RunTraced(core::ProcessorKind kind, const core::CoreConfig& cfg,
                    const isa::Program& program);

/// Field-by-field schedule equality, stopping at the first difference.
void ExpectSameTimeline(const std::vector<analysis::InstrTiming>& a,
                        const std::vector<analysis::InstrTiming>& b);

}  // namespace ultra::test
