// Configuration-space tests: non-default register counts, latency
// overrides, fetch-width limits, timeout behaviour, and timing-record
// invariants.
#include <gtest/gtest.h>

#include "core/core.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra::core {
namespace {

using test::RunTraced;

RunResult RunProc(ProcessorKind kind, const isa::Program& program,
                  const CoreConfig& cfg) {
  auto proc = MakeProcessor(kind, cfg);
  return proc->Run(program);
}

// --- Register-count scaling (L is the paper's central parameter) ---------------

class RegisterCount : public testing::TestWithParam<int> {};

TEST_P(RegisterCount, AllProcessorsCorrectWithLRegisters) {
  const int L = GetParam();
  const auto program = workloads::RandomMix(
      {.num_instructions = 120, .num_regs = L, .seed = 42});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.num_regs = L;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  FunctionalSimulator fn(L);
  const auto ref = fn.Run(program);
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    ASSERT_TRUE(result.halted);
    ASSERT_EQ(result.regs.size(), static_cast<std::size_t>(L));
    for (int r = 0; r < L; ++r) {
      ASSERT_EQ(result.regs[static_cast<std::size_t>(r)],
                ref.regs[static_cast<std::size_t>(r)])
          << "r" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ls, RegisterCount, testing::Values(8, 16, 32, 64),
                         [](const auto& info) {
                           return "L" + std::to_string(info.param);
                         });

// --- Latency overrides -----------------------------------------------------------

TEST(LatencyOverride, ChangesTheFigure3Schedule) {
  // With div = 5 instead of 10, the dependent add issues at relative
  // cycle 5 instead of 10.
  const auto program = workloads::Figure3Example();
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.latencies.Set(isa::OpClass::kIntDiv, 5);
  const auto run = RunTraced(ProcessorKind::kUltrascalarI, cfg, program);
  ASSERT_TRUE(run.halted);
  ASSERT_EQ(run.timeline.size(), 9u);
  const std::uint64_t t0 = run.timeline.front().issue_cycle;
  EXPECT_EQ(run.timeline[1].issue_cycle - t0, 5u);   // add r0, r0, r3.
  EXPECT_EQ(run.timeline[3].issue_cycle - t0, 6u);   // add r1, r0, r1.
}

TEST(LatencyOverride, SingleCycleDivideCollapsesTheSchedule) {
  const auto program = workloads::Figure3Example();
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.latencies.Set(isa::OpClass::kIntDiv, 1);
  cfg.latencies.Set(isa::OpClass::kIntMul, 1);
  const auto run = RunTraced(ProcessorKind::kIdeal, cfg, program);
  ASSERT_FALSE(run.timeline.empty());
  // Longest chain: div -> add -> add, one cycle each.
  const std::uint64_t t0 = run.timeline.front().issue_cycle;
  std::uint64_t last = 0;
  for (const auto& t : run.timeline) {
    last = std::max(last, t.complete_cycle - t0);
  }
  EXPECT_EQ(last, 2u);
}

// --- Fetch width ------------------------------------------------------------------

TEST(FetchWidth, NarrowFetchBoundsIpc) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 512, .ilp = 16});
  CoreConfig cfg;
  cfg.window_size = 64;
  cfg.fetch_width = 2;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  ASSERT_TRUE(result.halted);
  EXPECT_LE(result.Ipc(), 2.05);
  cfg.fetch_width = 0;  // Back to window-wide fetch.
  const auto wide = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_GT(wide.Ipc(), 8.0);
}

// --- Timeouts ----------------------------------------------------------------------

TEST(Timeout, NonHaltingProgramReportsNotHalted) {
  const auto program = isa::AssembleOrDie("loop: jmp loop\n");
  CoreConfig cfg;
  cfg.window_size = 8;
  cfg.max_cycles = 500;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    EXPECT_FALSE(result.halted);
    EXPECT_EQ(result.cycles, 500u);
  }
}

// --- Timing-record invariants ------------------------------------------------------

TEST(TimingRecords, AreWellFormedOnEveryProcessor) {
  const auto program = workloads::BubbleSort(8);
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto run = RunTraced(kind, cfg, program);
    ASSERT_TRUE(run.halted);
    EXPECT_EQ(run.timeline.size(), run.committed);
    std::uint64_t prev_seq = 0;
    bool first = true;
    for (const auto& t : run.timeline) {
      // Commit order == program order (sequence numbers increase).
      if (!first) {
        EXPECT_GT(t.seq, prev_seq);
      }
      prev_seq = t.seq;
      first = false;
      EXPECT_LE(t.fetch_cycle, t.issue_cycle);
      EXPECT_LE(t.issue_cycle, t.complete_cycle);
      EXPECT_LE(t.complete_cycle, t.commit_cycle);
      EXPECT_GE(t.station, 0);
      EXPECT_LT(t.station, cfg.window_size);
      EXPECT_LT(t.pc, program.size());
    }
  }
}

TEST(TimingRecords, CommitCyclesAreMonotone) {
  const auto program = workloads::Fibonacci(16);
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto run = RunTraced(kind, cfg, program);
    std::uint64_t prev = 0;
    for (const auto& t : run.timeline) {
      EXPECT_GE(t.commit_cycle, prev);
      prev = t.commit_cycle;
    }
  }
}

// --- Halt handling -----------------------------------------------------------------

TEST(Halt, SpeculativeHaltDoesNotTerminate) {
  // A mispredicted path runs into a halt; the program must continue on the
  // correct path and produce the right answer.
  const auto program = isa::AssembleOrDie(R"(
    li r1, 1
    li r2, 1
    beq r1, r2, go    # Taken, but BTFN predicts the forward branch not
    halt              # taken, so this halt is fetched speculatively.
    go:
    li r3, 77
    halt
  )");
  CoreConfig cfg;
  cfg.window_size = 8;
  cfg.predictor = PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    ASSERT_TRUE(result.halted);
    EXPECT_EQ(result.regs[3], 77u);
    EXPECT_GE(result.stats.mispredictions, 1u);
  }
}

TEST(Halt, ImmediateHaltProgram) {
  const auto program = isa::AssembleOrDie("halt\n");
  CoreConfig cfg;
  cfg.window_size = 4;
  cfg.cluster_size = 4;  // Must fit the window for the hybrid core.
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    EXPECT_TRUE(result.halted);
    EXPECT_EQ(result.committed, 1u);
    EXPECT_LE(result.cycles, 5u);
  }
}

// --- fetch_stall_cycles --------------------------------------------------------

TEST(FetchStallCycles, DrainCyclesCountTheSameOnAllCores) {
  // A short dependent-divide chain fetched whole into a 16-entry window:
  // execution drags on for tens of cycles after fetch exhausts the program.
  // Those drain cycles are not fetch stalls (the window is simply waiting
  // on the divides), and every core must agree on that -- the UltrascalarI,
  // hybrid, and ideal cores used to count them while the UltrascalarII did
  // not, so the same run reported different stall totals per core.
  const auto program = isa::AssembleOrDie(R"(
    li r1, 96
    li r2, 2
    div r3, r1, r2
    div r4, r3, r2
    div r5, r4, r2
    halt
  )");
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.mem.mode = memory::MemTimingMode::kMagic;

  std::vector<std::uint64_t> stalls;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    ASSERT_TRUE(result.halted);
    ASSERT_GT(result.cycles, 20u);  // The divides dominate: real drain time.
    stalls.push_back(result.stats.fetch_stall_cycles);
  }
  for (std::size_t i = 1; i < stalls.size(); ++i) {
    EXPECT_EQ(stalls[i], stalls[0]);
  }
  // With ideal fetch the only empty batches are drain cycles, so the
  // aligned definition reports zero stalls here on every core.
  EXPECT_EQ(stalls[0], 0u);
}

// --- Determinism ---------------------------------------------------------------

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  // Catches hidden global state: two fresh runs of the same configuration
  // must produce identical cycles, registers, and timelines.
  const auto program = workloads::BubbleSort(10);
  CoreConfig cfg;
  cfg.window_size = 24;
  cfg.cluster_size = 8;
  cfg.predictor = PredictorKind::kTwoBit;
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  cfg.store_forwarding = true;
  cfg.num_alus = 4;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto a = RunTraced(kind, cfg, program);
    const auto b = RunTraced(kind, cfg, program);
    ASSERT_EQ(a.cycles, b.cycles);
    ASSERT_EQ(a.regs, b.regs);
    ASSERT_EQ(a.timeline.size(), b.timeline.size());
    for (std::size_t k = 0; k < a.timeline.size(); ++k) {
      ASSERT_EQ(a.timeline[k].issue_cycle, b.timeline[k].issue_cycle);
      ASSERT_EQ(a.timeline[k].commit_cycle, b.timeline[k].commit_cycle);
    }
  }
}

TEST(Determinism, ProcessorObjectsAreReusable) {
  // Run() must not leak state between invocations of the same Processor.
  const auto p1 = workloads::Fibonacci(12);
  const auto p2 = workloads::DotProduct(8);
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  auto proc = MakeProcessor(ProcessorKind::kUltrascalarI, cfg);
  const auto first = proc->Run(p1);
  const auto middle = proc->Run(p2);
  const auto again = proc->Run(p1);
  EXPECT_EQ(first.cycles, again.cycles);
  EXPECT_EQ(first.regs, again.regs);
  EXPECT_NE(first.cycles, middle.cycles);
}

}  // namespace
}  // namespace ultra::core
