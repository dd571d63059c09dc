// Tests for the paper's Section 7 extension features: shared ALUs with the
// prioritized prefix scheduler (Ultrascalar Memo 2) and memory renaming /
// store-to-load forwarding.
#include <gtest/gtest.h>

#include <random>

#include "core/core.hpp"
#include "datapath/scheduler.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::CoreConfig;
using core::ProcessorKind;

CoreConfig BaseConfig() {
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  return cfg;
}

core::RunResult RunProc(ProcessorKind kind, const isa::Program& program,
                        const CoreConfig& cfg) {
  auto proc = core::MakeProcessor(kind, cfg);
  auto result = proc->Run(program);
  EXPECT_TRUE(result.halted) << core::ProcessorKindName(kind);
  return result;
}

void ExpectArchMatch(const isa::Program& program,
                     const core::RunResult& result) {
  core::FunctionalSimulator fn;
  const auto ref = fn.Run(program);
  for (std::size_t r = 0; r < ref.regs.size(); ++r) {
    ASSERT_EQ(result.regs[r], ref.regs[r]) << "r" << r;
  }
  EXPECT_EQ(result.committed, ref.instructions);
}

// --- The scheduler circuit -----------------------------------------------------

TEST(AluScheduler, GrantsOldestFirst) {
  const datapath::AluScheduler sched(8);
  const std::vector<std::uint8_t> requests = {1, 1, 0, 1, 1, 0, 1, 1};
  // Oldest = 4: program order is 4,5,6,7,0,1,2,3. Two ALUs go to the two
  // oldest requesters: stations 4 and 6.
  const auto grants = sched.Grant(requests, 2, /*oldest=*/4);
  EXPECT_TRUE(grants[4]);
  EXPECT_TRUE(grants[6]);
  EXPECT_FALSE(grants[7]);
  EXPECT_FALSE(grants[0]);
  EXPECT_FALSE(grants[1]);
  EXPECT_FALSE(grants[3]);
}

TEST(AluScheduler, GrantsEverythingWhenAlusAreAmple) {
  const datapath::AluScheduler sched(8);
  const std::vector<std::uint8_t> requests = {1, 1, 1, 1, 1, 1, 1, 1};
  const auto grants = sched.Grant(requests, 8, 3);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(grants[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(AluScheduler, GrantsNothingWhenNoAlusFree) {
  const datapath::AluScheduler sched(4);
  const std::vector<std::uint8_t> requests = {1, 1, 1, 1};
  const auto grants = sched.Grant(requests, 0, 0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(grants[static_cast<std::size_t>(i)]) << i;
  }
}

TEST(AluScheduler, MatchesAcyclicReferenceInProgramOrder) {
  std::mt19937 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 24);
    const datapath::AluScheduler sched(n);
    std::vector<std::uint8_t> requests(static_cast<std::size_t>(n));
    for (auto& r : requests) r = rng() % 2;
    const int oldest = static_cast<int>(rng() % static_cast<unsigned>(n));
    const int available = static_cast<int>(rng() % static_cast<unsigned>(n + 1));
    const auto grants = sched.Grant(requests, available, oldest);
    // Reference: walk program order, grant the first `available` requests.
    std::vector<std::uint8_t> in_order(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      in_order[static_cast<std::size_t>(k)] =
          requests[static_cast<std::size_t>((oldest + k) % n)];
    }
    const auto ref = datapath::AluScheduler::GrantAcyclic(in_order, available);
    for (int k = 0; k < n; ++k) {
      EXPECT_EQ(grants[static_cast<std::size_t>((oldest + k) % n)] != 0,
                ref[static_cast<std::size_t>(k)] != 0)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(AluScheduler, PrefixCountDepthIsLogarithmic) {
  const std::vector<std::uint8_t> requests(1024, 1);
  const datapath::AluScheduler tree(1024, datapath::PrefixImpl::kTree);
  const datapath::AluScheduler ring(1024, datapath::PrefixImpl::kRing);
  EXPECT_LE(tree.MeasureGateDepth(requests, 0), 80);
  EXPECT_GE(ring.MeasureGateDepth(requests, 0), 1023);
}

// --- Shared ALUs in the cores -----------------------------------------------------

class SharedAlus : public testing::TestWithParam<int> {};

TEST_P(SharedAlus, ArchitecturallyCorrectEverywhere) {
  auto cfg = BaseConfig();
  cfg.num_alus = GetParam();
  const auto program = workloads::BubbleSort(10);
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    ExpectArchMatch(program, RunProc(kind, program, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, SharedAlus, testing::Values(1, 2, 4, 16),
                         [](const auto& info) {
                           return "alus" + std::to_string(info.param);
                         });

TEST(SharedAlusBehavior, MoreAlusNeverHurt) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 256, .ilp = 8});
  auto cfg = BaseConfig();
  std::uint64_t last = ~std::uint64_t{0};
  for (const int k : {1, 2, 4, 8, 16}) {
    cfg.num_alus = k;
    const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
    EXPECT_LE(result.cycles, last) << k << " ALUs";
    last = result.cycles;
  }
}

TEST(SharedAlusBehavior, SingleAluSerializesAluOps) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 128, .ilp = 8});
  auto cfg = BaseConfig();
  cfg.num_alus = 1;
  const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  // 128 + 8 setup ALU ops through one ALU: at least one cycle each.
  EXPECT_GE(result.cycles, 136u);
}

TEST(SharedAlusBehavior, IpcTracksMinOfIlpAndAlus) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 512, .ilp = 8});
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  cfg.num_alus = 4;
  const auto result = RunProc(ProcessorKind::kIdeal, program, cfg);
  EXPECT_GT(result.Ipc(), 3.0);
  EXPECT_LT(result.Ipc(), 4.6);
}

TEST(SharedAlusBehavior, UltrascalarIStillMatchesIdealCycleForCycle) {
  // The scheduling policy (oldest-first, k ALUs) is identical, so the
  // timing-equivalence property must survive ALU sharing.
  const auto program = workloads::Fibonacci(24);
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  cfg.num_alus = 3;
  const auto ideal = test::RunTraced(ProcessorKind::kIdeal, cfg, program);
  const auto usi = test::RunTraced(ProcessorKind::kUltrascalarI, cfg, program);
  EXPECT_EQ(usi.cycles, ideal.cycles);
  ASSERT_EQ(usi.timeline.size(), ideal.timeline.size());
  for (std::size_t k = 0; k < ideal.timeline.size(); ++k) {
    ASSERT_EQ(usi.timeline[k].issue_cycle, ideal.timeline[k].issue_cycle)
        << "instruction " << k;
  }
}

TEST(SharedAlusBehavior, SixteenAlusNearlyMatchUnlimitedOnFigure3) {
  // The paper's Section 7 sizing: "a hybrid Ultrascalar with a window-size
  // of 128 and 16 shared ALUs ... should fit easily within a chip 1cm on a
  // side" -- 16 ALUs must cost almost nothing on realistic ILP.
  const auto program = workloads::Figure3Example();
  auto cfg = BaseConfig();
  cfg.window_size = 128;
  cfg.cluster_size = 32;
  cfg.num_alus = 16;
  const auto shared = RunProc(ProcessorKind::kHybrid, program, cfg);
  cfg.num_alus = 0;
  const auto unlimited = RunProc(ProcessorKind::kHybrid, program, cfg);
  EXPECT_EQ(shared.cycles, unlimited.cycles);
}

// --- Store-to-load forwarding -------------------------------------------------------

TEST(Forwarding, ResolveLoadForwardingLogic) {
  using core::MemWindowEntry;
  std::vector<MemWindowEntry> w(4);
  // [0] store to 100, data ready; [1] store to 200, data NOT ready;
  // [2] load from 100; [3] load from 200.
  w[0] = {.is_store = true, .addr_known = true, .addr = 100,
          .data_ready = true, .data = 7};
  w[1] = {.is_store = true, .addr_known = true, .addr = 200};
  w[2] = {.is_load = true, .addr_known = true, .addr = 100};
  w[3] = {.is_load = true, .addr_known = true, .addr = 200};
  const auto d2 = core::ResolveLoadForwarding(w, 2);
  EXPECT_TRUE(d2.can_proceed);
  EXPECT_TRUE(d2.forward);
  EXPECT_EQ(d2.value, 7u);
  const auto d3 = core::ResolveLoadForwarding(w, 3);
  EXPECT_FALSE(d3.can_proceed);  // Matching store's data not ready.
}

TEST(Forwarding, UnknownStoreAddressBlocks) {
  using core::MemWindowEntry;
  std::vector<MemWindowEntry> w(2);
  w[0] = {.is_store = true, .addr_known = false};
  w[1] = {.is_load = true, .addr_known = true, .addr = 100};
  const auto d = core::ResolveLoadForwarding(w, 1);
  EXPECT_FALSE(d.can_proceed);
}

TEST(Forwarding, DisambiguatedLoadGoesToMemory) {
  using core::MemWindowEntry;
  std::vector<MemWindowEntry> w(2);
  w[0] = {.is_store = true, .addr_known = true, .addr = 300,
          .data_ready = false};
  w[1] = {.is_load = true, .addr_known = true, .addr = 100};
  const auto d = core::ResolveLoadForwarding(w, 1);
  EXPECT_TRUE(d.can_proceed);  // Different address: no need to wait.
  EXPECT_FALSE(d.forward);
}

class ForwardingCores : public testing::TestWithParam<ProcessorKind> {};

TEST_P(ForwardingCores, ArchitecturallyCorrectOnMemoryKernels) {
  auto cfg = BaseConfig();
  cfg.store_forwarding = true;
  for (const auto& program :
       {workloads::MemCopy(24), workloads::BubbleSort(10),
        workloads::IndirectSum(16),
        isa::AssembleOrDie(R"(
          li r1, 64
          li r2, 5
          st r2, 0(r1)
          ld r3, 0(r1)      # Forwarded from the store above.
          addi r3, r3, 1
          st r3, 0(r1)
          ld r4, 0(r1)      # Forwarded again.
          halt
        )")}) {
    ExpectArchMatch(program, RunProc(GetParam(), program, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ForwardingCores,
    testing::Values(ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
                    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid),
    [](const auto& info) {
      return std::string(core::ProcessorKindName(info.param));
    });

TEST(ForwardingBehavior, ForwardedLoadsSkipMemory) {
  const auto program = isa::AssembleOrDie(R"(
    li r1, 64
    li r2, 5
    st r2, 0(r1)
    ld r3, 0(r1)
    ld r4, 0(r1)
    halt
  )");
  auto cfg = BaseConfig();
  cfg.store_forwarding = true;
  const auto result = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_EQ(result.stats.forwarded_loads, 2u);
  EXPECT_EQ(result.stats.load_count, 0u);  // No memory traffic for loads.
  EXPECT_EQ(result.regs[3], 5u);
  EXPECT_EQ(result.regs[4], 5u);
}

TEST(ForwardingBehavior, ReducesMemoryTrafficOnStoreHeavyCode) {
  const auto program = workloads::BubbleSort(12);
  auto cfg = BaseConfig();
  // Oracle prediction isolates the renaming effect: with speculation, the
  // earlier-issuing wrong-path loads can otherwise add traffic back.
  cfg.predictor = core::PredictorKind::kOracle;
  const auto plain = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.store_forwarding = true;
  const auto fwd = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_GT(fwd.stats.forwarded_loads, 0u);
  EXPECT_LT(fwd.stats.load_count, plain.stats.load_count);
  EXPECT_EQ(fwd.stats.load_count + fwd.stats.forwarded_loads,
            plain.stats.load_count);
}

TEST(ForwardingBehavior, SpeedsUpStoreLoadChainsUnderTightBandwidth) {
  // The paper's motivation: "with the right caching and renaming protocols
  // ... a processor could require substantially reduced memory bandwidth".
  const auto program = workloads::BubbleSort(12);
  auto cfg = BaseConfig();
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.regime = memory::BandwidthRegime::kConstant;
  const auto plain = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.store_forwarding = true;
  const auto fwd = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_LT(fwd.cycles, plain.cycles);
  ExpectArchMatch(program, fwd);
}

TEST(ForwardingBehavior, EquivalenceUsiIdealSurvivesForwarding) {
  const auto program = workloads::MemCopy(32);
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  cfg.store_forwarding = true;
  const auto ideal = RunProc(ProcessorKind::kIdeal, program, cfg);
  const auto usi = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_EQ(usi.cycles, ideal.cycles);
}

TEST(ForwardingBehavior, RandomProgramsStayCorrect) {
  for (unsigned seed = 300; seed < 308; ++seed) {
    const auto program = workloads::RandomMix({.num_instructions = 150,
                                               .load_fraction = 0.25,
                                               .store_fraction = 0.25,
                                               .memory_words = 8,
                                               .seed = seed});
    auto cfg = BaseConfig();
    cfg.store_forwarding = true;
    for (const auto kind :
         {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
          ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
      SCOPED_TRACE(core::ProcessorKindName(kind));
      ExpectArchMatch(program, RunProc(kind, program, cfg));
    }
  }
}

TEST(ForwardingBehavior, CombinesWithSharedAlus) {
  const auto program = workloads::BubbleSort(10);
  auto cfg = BaseConfig();
  cfg.store_forwarding = true;
  cfg.num_alus = 2;
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    ExpectArchMatch(program, RunProc(kind, program, cfg));
  }
}

// --- Pipelined datapath (Section 7) --------------------------------------------

class PipelinedDatapath : public testing::TestWithParam<int> {};

TEST_P(PipelinedDatapath, ArchitecturallyCorrect) {
  auto cfg = BaseConfig();
  cfg.pipeline_levels_per_stage = GetParam();
  for (const auto& program :
       {workloads::Fibonacci(20), workloads::BubbleSort(8),
        workloads::DependencyChains({.num_instructions = 128, .ilp = 8}),
        workloads::BranchStorm(24)}) {
    ExpectArchMatch(program,
                    RunProc(ProcessorKind::kUltrascalarI, program, cfg));
  }
}

INSTANTIATE_TEST_SUITE_P(Stages, PipelinedDatapath,
                         testing::Values(1, 2, 4, 8),
                         [](const auto& info) {
                           return "s" + std::to_string(info.param);
                         });

TEST(PipelinedBehavior, NeverFasterInCyclesThanSingleCycleDatapath) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 256, .ilp = 16});
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  const auto base = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  for (const int s : {1, 2, 4, 8}) {
    cfg.pipeline_levels_per_stage = s;
    const auto piped = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
    EXPECT_GE(piped.cycles, base.cycles) << "s=" << s;
  }
}

TEST(PipelinedBehavior, DeeperPipelinesCostMoreCyclesOnScatteredCode) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 256, .ilp = 16});
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  cfg.pipeline_levels_per_stage = 8;
  const auto shallow = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.pipeline_levels_per_stage = 1;
  const auto deep = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_GT(deep.cycles, shallow.cycles);
}

TEST(PipelinedBehavior, LocalChainsBarelyPayAnything) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 192, .ilp = 1});
  auto cfg = BaseConfig();
  cfg.window_size = 64;
  const auto base = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  cfg.pipeline_levels_per_stage = 2;
  const auto piped = RunProc(ProcessorKind::kUltrascalarI, program, cfg);
  // "Half of the communications paths from one station to its successor
  // are completely local": the serial chain's cycle count is unchanged.
  EXPECT_LE(piped.cycles, base.cycles + base.cycles / 10);
}

}  // namespace
}  // namespace ultra
