// CoreTelemetry: the one adapter between the cycle-level cores and the
// telemetry subsystem (src/telemetry/). Each core constructs one per Run()
// from CoreConfig::telemetry and calls the inline hooks from its phases;
// with no sink attached every hook is a null test, which is what keeps the
// disabled-mode overhead inside bench_telemetry_overhead's 2% gate.
#pragma once

#include <cstdint>
#include <span>

#include "core/config.hpp"
#include "core/station.hpp"
#include "fault/fault.hpp"
#include "telemetry/telemetry.hpp"

namespace ultra::core {

/// Shared bucket edges for the core histograms. Station distances and cycle
/// counts both live on power-of-two scales, so one geometric ladder serves
/// window occupancy, issue-to-commit latency, and propagation distance.
inline constexpr std::uint64_t kCoreHistogramBounds[] = {
    0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024};

class CoreTelemetry {
 public:
  CoreTelemetry() = default;

  explicit CoreTelemetry(const CoreConfig& config) {
    telemetry::RunTelemetry* rt = config.telemetry;
    if (rt == nullptr) return;
    tracer_ = rt->tracer;
    if (!rt->metrics_enabled) return;
    telemetry::MetricsRegistry& reg = rt->registry;
    occupancy_ = reg.Histogram("core.window_occupancy", kCoreHistogramBounds);
    latency_ = reg.Histogram("core.issue_to_commit_cycles",
                             kCoreHistogramBounds);
    distance_ = reg.Histogram("core.propagation_distance",
                              kCoreHistogramBounds);
    squashes_ = reg.Counter("core.squashed_instructions");
    fault_injected_ = reg.Counter("fault.injected");
    fault_checks_ = reg.Counter("fault.checker_checks");
    fault_divergences_ = reg.Counter("fault.divergences_detected");
    fault_resyncs_ = reg.Counter("fault.checker_resyncs");
    fault_squashes_ = reg.Counter("fault.squashes_under_fault");
    mem_l1d_hits_ = reg.Counter("mem.l1d_hits");
    mem_l1d_misses_ = reg.Counter("mem.l1d_misses");
    mem_l2_hits_ = reg.Counter("mem.l2_hits");
    mem_l2_misses_ = reg.Counter("mem.l2_misses");
    mem_icache_misses_ = reg.Counter("mem.icache_misses");
    mem_prefetch_issued_ = reg.Counter("mem.prefetch_issued");
    mem_prefetch_useful_ = reg.Counter("mem.prefetch_useful");
    rt->sheet.Bind(&reg);
    sheet_ = &rt->sheet;
  }

  [[nodiscard]] bool metrics_on() const { return sheet_ != nullptr; }
  [[nodiscard]] bool trace_on() const { return tracer_ != nullptr; }

  /// Once per simulated cycle; @p occupancy = allocated stations.
  void OnCycle(std::uint64_t cycle, int occupancy) {
    (void)cycle;
    if (sheet_ != nullptr) {
      sheet_->Observe(occupancy_, static_cast<std::uint64_t>(occupancy));
    }
  }

  /// One operand delivery: @p stations = ring/grid hops from the value's
  /// producer (0 = own station / committed file at the oldest).
  void OnDistance(int stations) {
    if (sheet_ != nullptr) {
      sheet_->Observe(distance_, static_cast<std::uint64_t>(stations));
    }
  }

  void OnFetch(std::uint64_t cycle, int station, const Station& st) {
    if (tracer_ != nullptr) {
      Emit(telemetry::TraceEventKind::kFetch, cycle, station, st, 0);
    }
  }

  /// Ideal-core renaming: @p producer_seq = the in-flight producer adopted.
  void OnRename(std::uint64_t cycle, int station, const Station& st,
                std::uint64_t producer_seq) {
    if (tracer_ != nullptr) {
      Emit(telemetry::TraceEventKind::kRename, cycle, station, st,
           producer_seq);
    }
  }

  /// After StepStation: emits issue/complete transitions (@p was_started =
  /// st.started() before the step, so memory ops issue when submitted).
  void OnStep(std::uint64_t cycle, int station, const Station& st,
              bool was_started, bool was_finished) {
    if (tracer_ == nullptr) return;
    if (!was_started && st.started()) {
      Emit(telemetry::TraceEventKind::kIssue, cycle, station, st, 0);
    }
    if (!was_finished && st.finished) {
      Emit(telemetry::TraceEventKind::kComplete, cycle, station, st, 0);
    }
  }

  /// After ApplyMemResponse (memory completions bypass StepStation).
  void OnMemComplete(std::uint64_t cycle, int station, const Station& st,
                     bool was_finished) {
    if (tracer_ != nullptr && !was_finished && st.finished) {
      Emit(telemetry::TraceEventKind::kComplete, cycle, station, st, 0);
    }
  }

  void OnCommit(std::uint64_t cycle, int station, const Station& st) {
    if (sheet_ != nullptr) {
      sheet_->Observe(latency_, cycle - st.issue_cycle);
    }
    if (tracer_ != nullptr) {
      Emit(telemetry::TraceEventKind::kCommit, cycle, station, st, 0);
    }
  }

  void OnSquash(std::uint64_t cycle, int station, const Station& st) {
    if (sheet_ != nullptr) sheet_->Add(squashes_);
    if (tracer_ != nullptr) {
      Emit(telemetry::TraceEventKind::kSquash, cycle, station, st, 0);
    }
  }

  /// USII whole-batch retirement; @p retired = instructions in the batch.
  void OnBatchRetire(std::uint64_t cycle, std::uint64_t retired) {
    if (tracer_ != nullptr) {
      telemetry::TraceEvent e;
      e.kind = telemetry::TraceEventKind::kBatchRetire;
      e.cycle = cycle;
      e.payload = retired;
      tracer_->Record(e);
    }
  }

  void OnCheckerCheck(std::uint64_t cycle) {
    if (tracer_ != nullptr) {
      telemetry::TraceEvent e;
      e.kind = telemetry::TraceEventKind::kCheckerCheck;
      e.cycle = cycle;
      tracer_->Record(e);
    }
  }

  void OnCheckerResync(std::uint64_t cycle, std::uint64_t mismatched) {
    if (tracer_ != nullptr) {
      telemetry::TraceEvent e;
      e.kind = telemetry::TraceEventKind::kCheckerResync;
      e.cycle = cycle;
      e.payload = mismatched;
      tracer_->Record(e);
    }
  }

  /// The fault events staged for this cycle (injector.pending()).
  void OnFaults(std::uint64_t cycle,
                std::span<const fault::FaultEvent> pending) {
    if (tracer_ == nullptr) return;
    for (const fault::FaultEvent& f : pending) {
      telemetry::TraceEvent e;
      e.kind = telemetry::TraceEventKind::kFaultInject;
      e.cycle = cycle;
      e.station = f.station;
      e.payload = static_cast<std::uint64_t>(f.kind);
      tracer_->Record(e);
    }
  }

  /// The single snapshot path for the fault counters: copies the injector
  /// and checker totals into RunStats::fault (whose `squashes` the core
  /// incremented in-loop) and mirrors the block into the "fault.*" registry
  /// counters when metrics are on.
  void FinalizeFaults(RunStats& stats, const fault::FaultInjector& injector,
                      const fault::DatapathChecker& checker) {
    stats.fault.injected = injector.stats().injected;
    stats.fault.checks = checker.stats().checks;
    stats.fault.divergences = checker.stats().divergences;
    stats.fault.resyncs = checker.stats().resyncs;
    if (sheet_ != nullptr) {
      sheet_->Add(fault_injected_, stats.fault.injected);
      sheet_->Add(fault_checks_, stats.fault.checks);
      sheet_->Add(fault_divergences_, stats.fault.divergences);
      sheet_->Add(fault_resyncs_, stats.fault.resyncs);
      sheet_->Add(fault_squashes_, stats.fault.squashes);
    }
  }

  /// The single snapshot path for the memory-hierarchy counters, mirroring
  /// FinalizeFaults: copies the L1D/L2/prefetcher totals out of the
  /// MemorySystem and the icache totals out of the FetchEngine into
  /// RunStats::mem_hierarchy, then mirrors the block into the "mem.*"
  /// registry counters when metrics are on. Every core calls this once at
  /// the end of Run; all counters stay zero when the hierarchy is disabled.
  void FinalizeMemory(RunStats& stats, const memory::MemorySystem& mem,
                      const FetchEngine& fetch) {
    MemHierarchyCounters& h = stats.mem_hierarchy;
    const memory::CacheLevelModel* l1d = mem.cache(memory::CacheRole::kL1D);
    if (l1d != nullptr) {
      h.l1d_hits = l1d->stats().hits;
      h.l1d_misses = l1d->stats().misses;
      h.l1d_writebacks = l1d->stats().writebacks;
      h.prefetch_fills = l1d->stats().prefetch_fills;
      h.prefetch_useful = l1d->stats().prefetch_hits;
    }
    if (const memory::CacheLevelModel* l2 = mem.cache(memory::CacheRole::kL2)) {
      h.l2_hits = l2->stats().hits;
      h.l2_misses = l2->stats().misses;
      h.l2_writebacks = l2->stats().writebacks;
      if (l1d == nullptr) {
        h.prefetch_fills = l2->stats().prefetch_fills;
        h.prefetch_useful = l2->stats().prefetch_hits;
      }
    }
    h.prefetch_issued = mem.prefetch_issued();
    if (const memory::CacheLevelStats* l1i = fetch.icache_stats()) {
      h.icache_hits = l1i->hits;
      h.icache_misses = l1i->misses;
      h.icache_stall_cycles = fetch.stats().icache_stall_cycles;
    }
    if (sheet_ != nullptr) {
      sheet_->Add(mem_l1d_hits_, h.l1d_hits);
      sheet_->Add(mem_l1d_misses_, h.l1d_misses);
      sheet_->Add(mem_l2_hits_, h.l2_hits);
      sheet_->Add(mem_l2_misses_, h.l2_misses);
      sheet_->Add(mem_icache_misses_, h.icache_misses);
      sheet_->Add(mem_prefetch_issued_, h.prefetch_issued);
      sheet_->Add(mem_prefetch_useful_, h.prefetch_useful);
    }
  }

 private:
  void Emit(telemetry::TraceEventKind kind, std::uint64_t cycle, int station,
            const Station& st, std::uint64_t payload) {
    telemetry::TraceEvent e;
    e.kind = kind;
    e.cycle = cycle;
    e.seq = st.seq;
    e.payload = payload;
    e.pc = static_cast<std::uint32_t>(st.fetched.pc);
    e.station = station;
    e.op = static_cast<std::uint8_t>(st.inst().op);
    tracer_->Record(e);
  }

  telemetry::MetricSheet* sheet_ = nullptr;
  telemetry::PipelineTracer* tracer_ = nullptr;
  telemetry::HistogramId occupancy_;
  telemetry::HistogramId latency_;
  telemetry::HistogramId distance_;
  telemetry::CounterId squashes_;
  telemetry::CounterId fault_injected_;
  telemetry::CounterId fault_checks_;
  telemetry::CounterId fault_divergences_;
  telemetry::CounterId fault_resyncs_;
  telemetry::CounterId fault_squashes_;
  telemetry::CounterId mem_l1d_hits_;
  telemetry::CounterId mem_l1d_misses_;
  telemetry::CounterId mem_l2_hits_;
  telemetry::CounterId mem_l2_misses_;
  telemetry::CounterId mem_icache_misses_;
  telemetry::CounterId mem_prefetch_issued_;
  telemetry::CounterId mem_prefetch_useful_;
};

}  // namespace ultra::core
