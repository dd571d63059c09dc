// Fault-injection and self-checking datapath tests (tier1).
//
// The contract under test (docs/robustness.md): fault plans run on the
// packed path, where datapath faults corrupt a station's cached arguments.
// With datapath_eval = kChecked and any seeded FaultPlan, every injected
// corruption is either masked or detected-and-resynced, so the final
// architectural state still matches the functional oracle on all three
// scalable cores.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "core/core.hpp"
#include "fault/fault.hpp"
#include "fault/plan_codec.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::CoreConfig;
using core::DatapathEval;
using core::ProcessorKind;
using fault::FaultEvent;
using fault::FaultKind;
using fault::FaultPlan;

// A loop long enough (hundreds of cycles) that mid-run faults land while
// the window is busy, exercising loads, stores, multiplies, and branches.
constexpr const char* kLoopSource = R"(
  li r1, 0          # accumulator
  li r2, 0          # i
  li r3, 120        # iteration count
loop:
  addi r2, r2, 1
  mul r4, r2, r2
  add r1, r1, r4
  st r1, 0(r2)
  ld r5, 0(r2)
  add r1, r1, r5
  blt r2, r3, loop
  halt
)";

isa::Program LoopProgram() { return isa::AssembleOrDie(kLoopSource); }

CoreConfig BaseConfig() {
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.datapath_eval = DatapathEval::kPacked;
  return cfg;
}

core::RunResult RunOn(ProcessorKind kind, const isa::Program& program,
                      const CoreConfig& cfg) {
  return core::MakeProcessor(kind, cfg)->Run(program);
}

void ExpectMatchesFunctional(const isa::Program& program,
                             const core::RunResult& result, int num_regs) {
  core::FunctionalSimulator fn(num_regs);
  const auto ref = fn.Run(program);
  ASSERT_TRUE(ref.halted);
  EXPECT_EQ(result.committed, ref.instructions);
  ASSERT_EQ(result.regs.size(), ref.regs.size());
  for (std::size_t r = 0; r < ref.regs.size(); ++r) {
    EXPECT_EQ(result.regs[r], ref.regs[r]) << "register r" << r;
  }
  EXPECT_EQ(result.memory, ref.memory.Snapshot());
}

// --- FaultPlan -----------------------------------------------------------

TEST(FaultPlan, RandomIsDeterministicAndCycleSorted) {
  const auto a = FaultPlan::Random(42, 0.1, 500);
  const auto b = FaultPlan::Random(42, 0.1, 500);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_FALSE(a.empty());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]);
    if (i > 0) {
      EXPECT_LE(a.events()[i - 1].cycle, a.events()[i].cycle);
    }
  }
  const auto c = FaultPlan::Random(43, 0.1, 500);
  EXPECT_FALSE(a.size() == c.size() &&
               std::equal(a.events().begin(), a.events().end(),
                          c.events().begin()));
}

TEST(FaultPlan, KindFilterRestrictsDraws) {
  constexpr std::array kinds = {FaultKind::kCorruptValue};
  const auto plan = FaultPlan::Random(7, 0.2, 400, kinds);
  ASSERT_FALSE(plan.empty());
  for (const FaultEvent& e : plan.events()) {
    EXPECT_EQ(e.kind, FaultKind::kCorruptValue);
  }
}

TEST(FaultPlan, ExplicitEventsAreStableSortedByCycle) {
  FaultPlan plan({{30, FaultKind::kFlipReady, 1, 2, 0},
                  {10, FaultKind::kCorruptValue, 0, 0, 5},
                  {30, FaultKind::kDropDelivery, 3, 1, 0}});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].cycle, 10u);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kFlipReady);  // Stable order.
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kDropDelivery);
}

TEST(FaultPlan, CodecRejectsNegativeSites) {
  const FaultEvent negative_station{5, FaultKind::kStallStation, -1, 0, 3};
  const FaultEvent negative_reg{5, FaultKind::kFlipReady, 2, -3, 0};
  for (const FaultEvent& bad : {negative_station, negative_reg}) {
    persist::Encoder e;
    EncodeFaultPlan(e, FaultPlan({bad}));
    const std::vector<std::uint8_t> bytes = e.Take();
    persist::Decoder d(bytes);
    EXPECT_THROW((void)fault::DecodeFaultPlan(d), persist::FormatError);
  }
}

// --- Configuration validation --------------------------------------------

// Faults corrupt the packed path's cached arguments, so only the packed
// and checked modes accept a plan.
TEST(FaultConfig, FaultPlanRejectedUnderFullRecompute) {
  CoreConfig cfg = BaseConfig();
  cfg.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan::Random(1, 0.05, 100));
  cfg.datapath_eval = DatapathEval::kFullRecompute;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.datapath_eval = DatapathEval::kIncremental;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.datapath_eval = DatapathEval::kChecked;
  EXPECT_NO_THROW(cfg.Validate());
  cfg.datapath_eval = DatapathEval::kPacked;
  EXPECT_NO_THROW(cfg.Validate());
}

TEST(FaultConfig, CheckedModeNeedsAPositiveStride) {
  CoreConfig cfg = BaseConfig();
  cfg.datapath_eval = DatapathEval::kChecked;
  cfg.checker_stride = 0;
  EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  cfg.checker_stride = 1;
  EXPECT_NO_THROW(cfg.Validate());
}

// --- Checked-mode behavior on the three scalable cores -------------------

class ScalableCores : public testing::TestWithParam<ProcessorKind> {};

INSTANTIATE_TEST_SUITE_P(
    AllScalable, ScalableCores,
    testing::Values(ProcessorKind::kUltrascalarI,
                    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid),
    [](const auto& info) {
      return std::string(core::ProcessorKindName(info.param));
    });

TEST_P(ScalableCores, CheckedModeIsANoopOnCleanRuns) {
  const auto program = LoopProgram();
  CoreConfig cfg = BaseConfig();
  cfg.datapath_eval = DatapathEval::kIncremental;
  const auto plain = RunOn(GetParam(), program, cfg);
  cfg.datapath_eval = DatapathEval::kChecked;
  cfg.checker_stride = 32;
  const auto checked = RunOn(GetParam(), program, cfg);
  EXPECT_TRUE(checked.halted);
  EXPECT_EQ(checked.cycles, plain.cycles);
  EXPECT_EQ(checked.committed, plain.committed);
  EXPECT_EQ(checked.regs, plain.regs);
  EXPECT_GT(checked.stats.fault.checks, 0u);
  EXPECT_EQ(checked.stats.fault.divergences, 0u);
  EXPECT_EQ(checked.stats.fault.resyncs, 0u);
  EXPECT_EQ(checked.stats.fault.injected, 0u);
}

TEST_P(ScalableCores, EveryFaultKindIsMaskedOrRepairedUnderCheckedMode) {
  const auto program = LoopProgram();
  CoreConfig cfg = BaseConfig();
  cfg.datapath_eval = DatapathEval::kChecked;
  cfg.checker_stride = 16;
  cfg.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan::Random(7, 0.05, 300));
  const auto result = RunOn(GetParam(), program, cfg);
  EXPECT_TRUE(result.halted);
  EXPECT_GT(result.stats.fault.injected, 0u);
  ExpectMatchesFunctional(program, result, cfg.num_regs);
}

TEST_P(ScalableCores, ValueCorruptionIsDetectedAndResynced) {
  constexpr std::array kinds = {FaultKind::kCorruptValue};
  const auto program = LoopProgram();
  CoreConfig cfg = BaseConfig();
  cfg.datapath_eval = DatapathEval::kChecked;
  cfg.checker_stride = 64;  // Detection must come from the eager check.
  cfg.fault_plan = std::make_shared<const FaultPlan>(
      FaultPlan::Random(11, 0.1, 200, kinds));
  const auto result = RunOn(GetParam(), program, cfg);
  EXPECT_TRUE(result.halted);
  EXPECT_GT(result.stats.fault.injected, 0u);
  // An XORed delivery always differs from the recomputed truth, so every
  // staged corruption on a live cycle must surface as a divergence.
  EXPECT_GT(result.stats.fault.divergences, 0u);
  EXPECT_GT(result.stats.fault.resyncs, 0u);
  ExpectMatchesFunctional(program, result, cfg.num_regs);
}

TEST_P(ScalableCores, DroppedDeliveriesAreRepairedByThePeriodicCheck) {
  constexpr std::array kinds = {FaultKind::kDropDelivery};
  const auto program = LoopProgram();
  CoreConfig cfg = BaseConfig();
  cfg.datapath_eval = DatapathEval::kChecked;
  cfg.checker_stride = 8;  // A dropped delivery stalls at most 8 cycles.
  cfg.fault_plan = std::make_shared<const FaultPlan>(
      FaultPlan::Random(23, 0.05, 300, kinds));
  const auto result = RunOn(GetParam(), program, cfg);
  EXPECT_TRUE(result.halted);
  EXPECT_GT(result.stats.fault.injected, 0u);
  ExpectMatchesFunctional(program, result, cfg.num_regs);
}

TEST_P(ScalableCores, WrongPathBurstSquashesAndRecommitsCorrectly) {
  // Force the *oldest* window entry mispredicted five times mid-run: each
  // burst squashes every younger in-flight instruction and redirects
  // fetch, so the run recommits a correct tail afterwards.
  std::vector<FaultEvent> events;
  for (const std::uint64_t cycle : {20u, 35u, 50u, 65u, 80u}) {
    events.push_back({cycle, FaultKind::kForceMispredict, 0, 0, 0});
  }
  const auto program = LoopProgram();
  CoreConfig cfg = BaseConfig();
  cfg.fault_plan = std::make_shared<const FaultPlan>(FaultPlan(events));
  const auto result = RunOn(GetParam(), program, cfg);
  EXPECT_TRUE(result.halted);
  EXPECT_GT(result.stats.fault.injected, 0u);
  EXPECT_GT(result.stats.fault.squashes, 0u);
  ExpectMatchesFunctional(program, result, cfg.num_regs);
}

TEST_P(ScalableCores, StallsOnlyDelayExecution) {
  constexpr std::array kinds = {FaultKind::kStallStation};
  const auto program = LoopProgram();
  CoreConfig cfg = BaseConfig();
  cfg.fault_plan = std::make_shared<const FaultPlan>(
      FaultPlan::Random(31, 0.1, 300, kinds));
  const auto baseline = RunOn(GetParam(), program, BaseConfig());
  const auto result = RunOn(GetParam(), program, cfg);
  EXPECT_TRUE(result.halted);
  EXPECT_GT(result.stats.fault.injected, 0u);
  EXPECT_GE(result.cycles, baseline.cycles);
  ExpectMatchesFunctional(program, result, cfg.num_regs);
}

bool SameRun(const test::TracedRun& a, const test::TracedRun& b) {
  if (a.halted != b.halted || a.cycles != b.cycles ||
      a.committed != b.committed || a.regs != b.regs ||
      a.memory != b.memory || a.timeline.size() != b.timeline.size()) {
    return false;
  }
  for (std::size_t t = 0; t < a.timeline.size(); ++t) {
    if (a.timeline[t].issue_cycle != b.timeline[t].issue_cycle ||
        a.timeline[t].complete_cycle != b.timeline[t].complete_cycle) {
      return false;
    }
  }
  return true;
}

// Pipelined Ultrascalar I delivery re-resolves every station's arguments
// each cycle; value, ready and drop faults must still reach the arguments
// the stations read that cycle. The plan has only those kinds, so it must
// perturb an unchecked run, and checked mode must catch and repair it.
TEST(PipelinedFaults, DatapathFaultsReachPipelinedStations) {
  constexpr std::array kinds = {FaultKind::kCorruptValue,
                                FaultKind::kFlipReady,
                                FaultKind::kDropDelivery};
  const auto program = workloads::RandomMix({.num_instructions = 1024});
  for (const int levels : {1, 2}) {
    SCOPED_TRACE("pipeline_levels_per_stage = " + std::to_string(levels));
    CoreConfig cfg;
    cfg.window_size = 32;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.pipeline_levels_per_stage = levels;
    cfg.datapath_eval = DatapathEval::kPacked;
    const auto clean =
        test::RunTraced(ProcessorKind::kUltrascalarI, cfg, program);
    cfg.fault_plan = std::make_shared<const FaultPlan>(
        FaultPlan::Random(424242, 0.05, 20000, kinds));
    const auto faulted =
        test::RunTraced(ProcessorKind::kUltrascalarI, cfg, program);
    EXPECT_GT(faulted.stats.fault.injected, 0u);
    EXPECT_FALSE(SameRun(faulted, clean))
        << "no injected datapath fault reached a station";

    cfg.datapath_eval = DatapathEval::kChecked;
    const auto checked = RunOn(ProcessorKind::kUltrascalarI, program, cfg);
    EXPECT_TRUE(checked.halted);
    EXPECT_GT(checked.stats.fault.divergences, 0u);
    ExpectMatchesFunctional(program, checked, cfg.num_regs);
  }
}

// Hybrid stall lanes are indexed by program position, which renumbers by
// C whenever the head cluster deallocates; an injected stall must follow
// the station it names across that shift.
TEST(HybridFaults, StallFollowsItsStationAcrossClusterDeallocation) {
  const auto program =
      workloads::DependencyChains({.num_instructions = 400, .ilp = 4});
  CoreConfig cfg = BaseConfig();
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  const auto clean = test::RunTraced(ProcessorKind::kHybrid, cfg, program);
  ASSERT_TRUE(clean.halted);

  // A cycle on which the head cluster deallocates (its last slot commits)
  // while a younger instruction sits fetched but not yet issued, and would
  // issue within the stall's eight cycles without it.
  constexpr int kStall = 8;  // payload 7 -> 7 % 8 + 1 cycles.
  const analysis::InstrTiming* victim = nullptr;
  std::uint64_t dealloc_cycle = 0;
  for (const analysis::InstrTiming& last : clean.timeline) {
    if (last.station % cfg.cluster_size != cfg.cluster_size - 1) continue;
    const std::uint64_t c = last.commit_cycle;
    for (const analysis::InstrTiming& t : clean.timeline) {
      if (t.fetch_cycle < c && t.issue_cycle > c &&
          t.issue_cycle < c + kStall) {
        victim = &t;
        break;
      }
    }
    if (victim != nullptr) {
      dealloc_cycle = c;
      break;
    }
  }
  ASSERT_NE(victim, nullptr) << "no deallocation overlaps a waiting station";

  cfg.fault_plan = std::make_shared<const FaultPlan>(FaultPlan(
      {{dealloc_cycle, FaultKind::kStallStation, victim->station, 0,
        kStall - 1}}));
  const auto stalled = test::RunTraced(ProcessorKind::kHybrid, cfg, program);
  ASSERT_TRUE(stalled.halted);
  ExpectMatchesFunctional(program, stalled, cfg.num_regs);
  const analysis::InstrTiming* same = nullptr;
  for (const analysis::InstrTiming& t : stalled.timeline) {
    if (t.seq == victim->seq) same = &t;
  }
  ASSERT_NE(same, nullptr);
  EXPECT_EQ(same->station, victim->station);
  EXPECT_GE(same->issue_cycle, dealloc_cycle + kStall)
      << "the stall was lost or moved when the head cluster deallocated";
}

}  // namespace
}  // namespace ultra
