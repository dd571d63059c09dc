// Shared configuration and result types for all processor models.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/isa.hpp"
#include "memory/memory_system.hpp"

namespace ultra::fault {
class FaultPlan;
}  // namespace ultra::fault

namespace ultra::persist {
struct CheckpointControl;
}  // namespace ultra::persist

namespace ultra::telemetry {
struct RunTelemetry;
}  // namespace ultra::telemetry

namespace ultra::core {

/// Which branch predictor the fetch engine uses. For cycle-identical
/// cross-processor comparisons use a static predictor or the oracle (see
/// memory/branch_predictor.hpp).
enum class PredictorKind : std::uint8_t {
  kNotTaken,
  kBtfn,
  kTwoBit,
  kOracle,  // Requires a prior functional run; see Processor::Run.
};

/// How many instructions fetch can supply per cycle and across how many
/// predicted-taken control transfers.
enum class FetchMode : std::uint8_t {
  kIdeal,       // Full width, any number of taken branches per cycle.
  kBasicBlock,  // Stops at the first predicted-taken control transfer.
  kTraceCache,  // Crosses up to trace_branches taken transfers on a hit.
};

/// How the cycle loop evaluates the register datapaths. All modes compute
/// the same function and produce identical RunResults on clean inputs (the
/// differential tests assert this). There is one fast path (kPacked), one
/// plain reference (kFullRecompute), the incremental default, and the fast
/// path with a self-checking layer (kChecked). The Ideal core has no
/// incremental datapath and ignores fault plans: it runs its plain
/// reference loop under kFullRecompute and its packed loop under every
/// other mode. See docs/runtime.md.
enum class DatapathEval : std::uint8_t {
  kIncremental,    // Dirty-set propagation into persistent state (default;
                   // packed on Ideal).
  kFullRecompute,  // Rebuild-everything reference path.
  /// kPacked plus a DatapathChecker: every checker_stride cycles (eagerly
  /// on cycles with hazardous injected faults) each live station's cached
  /// arguments are compared with a from-scratch recomputation and
  /// overwritten on mismatch. See docs/robustness.md.
  kChecked,
  /// Bit-packed word-parallel evaluation: the per-station booleans (valid,
  /// finished, issued, readiness, the Figure 5 ordering conditions) live
  /// 64 to a uint64_t, the sequencing prefixes and ALU grants evaluate 64
  /// lanes per word op, and the cycle loops visit only stations that can
  /// act. Argument delivery is event-driven: each station's resolved
  /// arguments are cached and re-resolved only when their source changes
  /// (pipelined Ultrascalar I delivery re-resolves every cycle instead).
  /// Every CoreConfig -- store forwarding, telemetry, fault plans,
  /// pipelined datapaths -- runs this one loop.
  kPacked,
};

struct CoreConfig {
  int window_size = 32;  // n: execution stations (= issue width; Section 1).
  int num_regs = isa::kDefaultLogicalRegisters;  // L.
  int cluster_size = 8;  // C, hybrid only (paper: C = Theta(L) is optimal).
  int fetch_width = 0;   // 0 = same as window_size (the paper couples them).
  FetchMode fetch_mode = FetchMode::kIdeal;
  int trace_cache_capacity = 256;
  int trace_branches = 3;
  PredictorKind predictor = PredictorKind::kBtfn;
  isa::LatencyModel latencies;
  memory::MemoryConfig mem;
  std::uint64_t max_cycles = 10'000'000;

  /// Shared ALUs (Section 7 / Ultrascalar Memo 2). 0 = one ALU per station
  /// (the paper's base design); k > 0 = k shared ALUs allocated oldest-first
  /// by the AluScheduler prefix circuit each cycle.
  int num_alus = 0;

  /// Memory renaming / store-to-load forwarding (Section 7: "The memory
  /// bandwidth pressure can also be reduced by using memory-renaming
  /// hardware, which can be implemented by CSPP circuits").
  bool store_forwarding = false;

  /// Pipelined register datapath (Section 7: "it is possible to pipeline
  /// the system ... so that the long communications paths would include
  /// latches"). 0 = the paper's base single-cycle datapath; k > 0 inserts
  /// a latch every k H-tree levels, so a value crossing 2h levels reaches
  /// its reader after ceil(2h / k) cycles, while the clock shrinks to one
  /// pipeline stage. Ultrascalar I core only.
  int pipeline_levels_per_stage = 0;

  /// Simulator-internal knob (not a hardware parameter, not exported by
  /// sweep_io): which evaluation strategy the cycle loops use. Results are
  /// identical on clean inputs; kFullRecompute exists as the reference for
  /// the differential tests and the throughput benchmark's baseline, and
  /// kChecked adds the self-checking layer used by the fault experiments.
  /// The default runs the incremental loop on the three scalable cores and
  /// the packed loop on Ideal.
  DatapathEval datapath_eval = DatapathEval::kIncremental;

  /// Cross-validation cadence for datapath_eval = kChecked: the checker
  /// compares the cached station arguments against a from-scratch
  /// recomputation every checker_stride cycles (and immediately on cycles
  /// where a hazardous fault was injected). Must be >= 1 in checked mode.
  int checker_stride = 64;

  /// Deterministic fault-injection schedule (see src/fault/). Null = no
  /// faults. Requires datapath_eval kPacked (faults flow unchecked --
  /// useful to demonstrate silent corruption) or kChecked (faults are
  /// detected and repaired). Faults corrupt the packed path's cached
  /// station arguments, which the incremental and full-recompute paths do
  /// not have. The IdealOoO core has no scalable datapath and ignores the
  /// plan.
  std::shared_ptr<const fault::FaultPlan> fault_plan;

  /// Cooperative cancellation: when non-null, the cycle loops poll the
  /// flag every 1024 cycles and abandon the run (RunResult.halted = false)
  /// once it is set. The SweepRunner's watchdog uses this to enforce
  /// per-point wall-clock deadlines. The pointee must outlive Run().
  const std::atomic<bool>* cancel = nullptr;

  /// Optional telemetry sink (see src/telemetry/ and docs/observability.md):
  /// occupancy / latency / propagation-distance histograms, fault counters,
  /// and per-cycle pipeline trace events. Null = no instrumentation; an
  /// attached sink with metrics_enabled = false and no tracer costs one
  /// null test per hook site (gated <= 2% by bench_telemetry_overhead).
  /// Single-threaded like the cores themselves; must outlive Run().
  telemetry::RunTelemetry* telemetry = nullptr;

  /// Checkpoint/restore control (see src/persist/checkpoint.hpp and
  /// docs/robustness.md). Null = no checkpointing. When attached, the core
  /// captures full-state checkpoints at the top of the cycle loop on the
  /// cycles the control selects, and — when control->resume is set —
  /// restores that checkpoint before the first cycle and continues
  /// cycle-for-cycle identically to the uninterrupted run. Like cancel and
  /// telemetry, this is a per-invocation attachment: it does not affect
  /// FingerprintConfig and the pointee must outlive Run().
  persist::CheckpointControl* checkpoint = nullptr;

  [[nodiscard]] int EffectiveFetchWidth() const {
    return fetch_width > 0 ? fetch_width : window_size;
  }

  /// Rejects configurations that would hang or index out of bounds
  /// (window_size <= 0, num_regs outside [1, isa::kMaxLogicalRegisters],
  /// max_cycles == 0, negative num_alus,
  /// negative fetch_width, and -- when @p for_hybrid is set -- cluster_size
  /// outside [1, window_size]). Throws std::invalid_argument naming the bad
  /// field. MakeProcessor calls this for every core it builds.
  void Validate(bool for_hybrid = false) const;
};

/// Fault-injection / self-checking counters (zero on clean runs; see
/// docs/robustness.md for definitions). One snapshot block instead of loose
/// parallel fields: the cores fill it through CoreTelemetry::FinalizeFaults,
/// and the same block feeds the telemetry registry's "fault.*" counters.
struct FaultCounters {
  std::uint64_t injected = 0;     // FaultPlan events staged.
  std::uint64_t checks = 0;       // Cross-validations run.
  std::uint64_t divergences = 0;  // Mismatched operands, summed.
  std::uint64_t resyncs = 0;      // Checks finding >= 1 mismatch.
  std::uint64_t squashes = 0;     // Squashes from forced faults.
};

/// Memory-hierarchy counters (all zero when mem.hierarchy is disabled).
/// Snapshot semantics mirror FaultCounters: the cores fill the block once at
/// the end of Run via CoreTelemetry::FinalizeMemory, from the MemorySystem's
/// L1D/L2 models and the FetchEngine's icache, and the same block feeds the
/// telemetry registry's "mem.*" counters.
struct MemHierarchyCounters {
  std::uint64_t l1d_hits = 0;
  std::uint64_t l1d_misses = 0;
  std::uint64_t l1d_writebacks = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_writebacks = 0;
  std::uint64_t icache_hits = 0;
  std::uint64_t icache_misses = 0;
  std::uint64_t icache_stall_cycles = 0;
  std::uint64_t prefetch_issued = 0;
  std::uint64_t prefetch_fills = 0;   // Prefetched lines installed in L1.
  std::uint64_t prefetch_useful = 0;  // Demand hits on prefetched lines.
};

struct RunStats {
  std::uint64_t mispredictions = 0;
  std::uint64_t forwarded_loads = 0;  // Loads satisfied without memory.
  std::uint64_t squashed_instructions = 0;
  std::uint64_t load_count = 0;
  std::uint64_t store_count = 0;
  /// Cycles in which the window had in-flight work and free slots but fetch
  /// supplied nothing, *excluding* cycles where fetch had simply run past
  /// the end of the program (those are drain cycles, not stalls). All four
  /// cores share this definition.
  std::uint64_t fetch_stall_cycles = 0;
  std::uint64_t window_full_cycles = 0;
  FaultCounters fault;
  MemHierarchyCounters mem_hierarchy;

};

struct RunResult {
  bool halted = false;           // False = hit max_cycles.
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;   // Dynamic instructions committed (w/ halt).
  std::vector<isa::Word> regs;   // Final architectural register file.
  /// Final architectural data memory (byte address -> word), for
  /// cross-processor equivalence checks against the functional simulator.
  std::map<isa::Word, isa::Word> memory;
  RunStats stats;

  [[nodiscard]] double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(committed) /
                             static_cast<double>(cycles);
  }
};

}  // namespace ultra::core
