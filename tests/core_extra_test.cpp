// Core behaviour beyond basic correctness: fetch modes, predictors, memory
// timing modes, window-size effects, randomized cross-processor sweeps, and
// the functional simulator itself.
#include <gtest/gtest.h>

#include <random>

#include "core/core.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra::core {
namespace {

using test::RunTraced;

CoreConfig BaseConfig() {
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.predictor = PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  return cfg;
}

RunResult RunProc(ProcessorKind kind, const isa::Program& program,
              const CoreConfig& cfg) {
  auto proc = MakeProcessor(kind, cfg);
  auto result = proc->Run(program);
  EXPECT_TRUE(result.halted) << ProcessorKindName(kind);
  return result;
}

void ExpectArchMatch(const isa::Program& program, const RunResult& result) {
  FunctionalSimulator fn;
  const auto ref = fn.Run(program);
  for (std::size_t r = 0; r < ref.regs.size(); ++r) {
    ASSERT_EQ(result.regs[r], ref.regs[r]) << "r" << r;
  }
  EXPECT_EQ(result.committed, ref.instructions);
}

// --- Functional simulator ------------------------------------------------------

TEST(FunctionalSim, ProducesTraceAndOutcomes) {
  const auto program = workloads::Fibonacci(3);
  FunctionalSimulator sim;
  const auto result = sim.Run(program);
  EXPECT_TRUE(result.halted);
  EXPECT_EQ(result.trace.size(), result.instructions);
  // The loop branch at its pc has 3 outcomes: taken, taken, not taken.
  bool found = false;
  for (const auto& outcomes : result.outcomes_by_pc) {
    if (outcomes.size() == 3) {
      EXPECT_EQ(outcomes[0], 1);
      EXPECT_EQ(outcomes[2], 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(FunctionalSim, StepLimitStopsRunaways) {
  const auto program = isa::AssembleOrDie("loop: jmp loop\n");
  FunctionalSimulator sim;
  const auto result = sim.Run(program, 100);
  EXPECT_FALSE(result.halted);
  EXPECT_EQ(result.instructions, 100u);
}

TEST(FunctionalSim, FallingOffTheEndStops) {
  const auto program = isa::AssembleOrDie("addi r1, r1, 5\n");
  FunctionalSimulator sim;
  const auto result = sim.Run(program);
  EXPECT_EQ(result.instructions, 1u);
  EXPECT_EQ(result.regs[1], 5u);
}

// --- Predictors in cores ---------------------------------------------------------

class PredictorSweep : public testing::TestWithParam<PredictorKind> {};

TEST_P(PredictorSweep, ArchitecturalStateIndependentOfPredictor) {
  const auto program = workloads::BranchStorm(32);
  auto cfg = BaseConfig();
  cfg.predictor = GetParam();
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    ExpectArchMatch(program, result);
  }
}

TEST_P(PredictorSweep, OracleNeverMispredicts) {
  if (GetParam() != PredictorKind::kOracle) GTEST_SKIP();
  const auto program = workloads::BranchStorm(32);
  auto cfg = BaseConfig();
  cfg.predictor = PredictorKind::kOracle;
  const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_EQ(result.stats.mispredictions, 0u);
  EXPECT_EQ(result.stats.squashed_instructions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, PredictorSweep,
    testing::Values(PredictorKind::kNotTaken, PredictorKind::kBtfn,
                    PredictorKind::kTwoBit, PredictorKind::kOracle),
    [](const auto& info) {
      switch (info.param) {
        case PredictorKind::kNotTaken: return std::string("NotTaken");
        case PredictorKind::kBtfn: return std::string("Btfn");
        case PredictorKind::kTwoBit: return std::string("TwoBit");
        case PredictorKind::kOracle: return std::string("Oracle");
      }
      return std::string("?");
    });

TEST(Predictor, OracleIsNoSlowerThanStatic) {
  const auto program = workloads::BranchStorm(64);
  auto cfg = BaseConfig();
  cfg.predictor = PredictorKind::kBtfn;
  const auto with_btfn = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.predictor = PredictorKind::kOracle;
  const auto with_oracle = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_LE(with_oracle.cycles, with_btfn.cycles);
  EXPECT_GT(with_btfn.stats.mispredictions, 0u);
}

// --- Fetch modes ------------------------------------------------------------------

class FetchModeSweep : public testing::TestWithParam<FetchMode> {};

TEST_P(FetchModeSweep, CorrectAcrossProcessors) {
  const auto program = workloads::Fibonacci(16);
  auto cfg = BaseConfig();
  cfg.fetch_mode = GetParam();
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    ExpectArchMatch(program, RunProc(kind, program, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, FetchModeSweep,
                         testing::Values(FetchMode::kIdeal,
                                         FetchMode::kBasicBlock,
                                         FetchMode::kTraceCache),
                         [](const auto& info) {
                           switch (info.param) {
                             case FetchMode::kIdeal:
                               return std::string("Ideal");
                             case FetchMode::kBasicBlock:
                               return std::string("BasicBlock");
                             case FetchMode::kTraceCache:
                               return std::string("TraceCache");
                           }
                           return std::string("?");
                         });

TEST(FetchModes, BasicBlockFetchIsSlowestOnBranchyCode) {
  const auto program = workloads::BranchStorm(64);
  auto cfg = BaseConfig();
  cfg.predictor = PredictorKind::kOracle;  // Isolate the fetch effect.
  cfg.fetch_mode = FetchMode::kBasicBlock;
  const auto bb = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.fetch_mode = FetchMode::kIdeal;
  const auto ideal = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.fetch_mode = FetchMode::kTraceCache;
  const auto tc = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_LT(ideal.cycles, bb.cycles);
  // A warm trace cache recovers most of the basic-block loss.
  EXPECT_LE(tc.cycles, bb.cycles);
}

// --- Memory timing modes -----------------------------------------------------------

class MemModeSweep : public testing::TestWithParam<memory::MemTimingMode> {};

TEST_P(MemModeSweep, CorrectAcrossProcessors) {
  const auto program = workloads::MemCopy(24);
  auto cfg = BaseConfig();
  cfg.mem.mode = GetParam();
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    ExpectArchMatch(program, RunProc(kind, program, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, MemModeSweep,
    testing::Values(memory::MemTimingMode::kMagic,
                    memory::MemTimingMode::kBandwidthLimited,
                    memory::MemTimingMode::kFatTree),
    [](const auto& info) {
      switch (info.param) {
        case memory::MemTimingMode::kMagic: return std::string("Magic");
        case memory::MemTimingMode::kBandwidthLimited:
          return std::string("Bandwidth");
        case memory::MemTimingMode::kFatTree: return std::string("FatTree");
        case memory::MemTimingMode::kButterfly:
          return std::string("Butterfly");
      }
      return std::string("?");
    });

TEST(MemoryPressure, LowerBandwidthNeverHelps) {
  // Straight-line, load-heavy: the serial admission at M(n) = 1 op/cycle
  // must dominate (MemoryStream's accumulator chain would hide it).
  const auto program = workloads::RandomMix({.num_instructions = 200,
                                             .load_fraction = 0.6,
                                             .store_fraction = 0.0,
                                             .memory_words = 512,
                                             .seed = 11});
  auto cfg = BaseConfig();
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.cache.num_banks = 16;
  cfg.mem.regime = memory::BandwidthRegime::kConstant;
  const auto low = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.mem.regime = memory::BandwidthRegime::kLinear;
  const auto high = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_GT(low.cycles, high.cycles);
}

// --- Window-size effects -------------------------------------------------------------

TEST(WindowSize, MoreStationsNeverHurtTheUltrascalarI) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 256, .ilp = 16});
  auto cfg = BaseConfig();
  std::uint64_t last = ~std::uint64_t{0};
  for (const int n : {4, 8, 16, 32, 64}) {
    cfg.window_size = n;
    const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
    ExpectArchMatch(program, result);
    EXPECT_LE(result.cycles, last) << "window " << n;
    last = result.cycles;
  }
}

TEST(WindowSize, IpcSaturatesAtTheWorkloadIlp) {
  // chains(ilp=4): the dataflow limit is 4 adds/cycle once the window is
  // large enough; one li + fetch effects keep it a bit below.
  const auto program =
      workloads::DependencyChains({.num_instructions = 512, .ilp = 4});
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  const auto result = RunProc(ProcessorKind::kIdeal, program, cfg);
  EXPECT_GT(result.Ipc(), 3.0);
  EXPECT_LE(result.Ipc(), 4.5);
}

TEST(WindowSize, TinyWindowStillCorrectEverywhere) {
  const auto program = workloads::BubbleSort(8);
  auto cfg = BaseConfig();
  cfg.window_size = 2;
  cfg.cluster_size = 1;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    ExpectArchMatch(program, RunProc(kind, program, cfg));
  }
}

TEST(WindowSize, WindowOfOneSerializesEverything) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 32, .ilp = 4});
  auto cfg = BaseConfig();
  cfg.window_size = 1;
  cfg.cluster_size = 1;
  const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  ExpectArchMatch(program, result);
  EXPECT_LE(result.Ipc(), 1.0);
}

// --- Randomized cross-processor sweep --------------------------------------------------

class RandomPrograms : public testing::TestWithParam<unsigned> {};

TEST_P(RandomPrograms, AllProcessorsMatchFunctional) {
  const unsigned seed = GetParam();
  const auto program = workloads::RandomMix({.num_instructions = 160,
                                             .load_fraction = 0.2,
                                             .store_fraction = 0.15,
                                             .seed = seed});
  auto cfg = BaseConfig();
  cfg.window_size = 16 + static_cast<int>(seed % 3) * 8;
  cfg.cluster_size = 4 << (seed % 2);
  cfg.mem.mode = seed % 2 == 0 ? memory::MemTimingMode::kMagic
                               : memory::MemTimingMode::kBandwidthLimited;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    ExpectArchMatch(program, RunProc(kind, program, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         testing::Range(100u, 112u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Timing-equivalence property, randomized ---------------------------------------------

class RandomTimingEquivalence : public testing::TestWithParam<unsigned> {};

TEST_P(RandomTimingEquivalence, UsiEqualsIdealOnRandomStraightLine) {
  const auto program = workloads::RandomMix({.num_instructions = 120,
                                             .load_fraction = 0.1,
                                             .store_fraction = 0.1,
                                             .seed = GetParam()});
  auto cfg = BaseConfig();
  cfg.window_size = 48;
  const auto ideal = RunTraced(ProcessorKind::kIdeal, cfg, program);
  const auto usi = RunTraced(ProcessorKind::kUltrascalarI, cfg, program);
  EXPECT_EQ(usi.cycles, ideal.cycles);
  ASSERT_EQ(usi.timeline.size(), ideal.timeline.size());
  for (std::size_t k = 0; k < ideal.timeline.size(); ++k) {
    ASSERT_EQ(usi.timeline[k].issue_cycle, ideal.timeline[k].issue_cycle)
        << "instruction " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTimingEquivalence,
                         testing::Range(200u, 210u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Stats sanity ------------------------------------------------------------------------

TEST(Stats, MemoryOpCountsMatchTheProgram) {
  const auto program = workloads::MemCopy(16);
  const auto result =
      RunProc(ProcessorKind::kUltrascalarI, program, BaseConfig());
  // Committed loads/stores: 16 each (speculative replays may add more, but
  // BTFN predicts this loop perfectly except the final iteration).
  EXPECT_GE(result.stats.load_count, 16u);
  EXPECT_GE(result.stats.store_count, 16u);
  // Stores are never speculative: exactly the committed count.
  EXPECT_EQ(result.stats.store_count, 16u);
}

TEST(Stats, MispredictionsAreCountedAndSquash) {
  const auto program = workloads::BranchStorm(32);
  auto cfg = BaseConfig();
  cfg.predictor = PredictorKind::kNotTaken;
  const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_GT(result.stats.mispredictions, 10u);
  EXPECT_GT(result.stats.squashed_instructions, 0u);
}

// --- Soak: a long-running kernel through every processor -------------------------

TEST(Soak, MatMulOnEveryProcessor) {
  const auto program = workloads::MatMul(6);
  auto cfg = BaseConfig();
  cfg.window_size = 48;
  cfg.cluster_size = 12;
  cfg.predictor = PredictorKind::kTwoBit;
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunProc(kind, program, cfg);
    ASSERT_TRUE(result.halted);
    ExpectArchMatch(program, result);
    EXPECT_GT(result.committed, 3000u);  // ~6^3 * 16 dynamic instructions.
  }
}

}  // namespace
}  // namespace ultra::core
