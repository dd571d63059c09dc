// Cross-processor correctness and timing-equivalence tests.
//
// Every processor must (a) reproduce the functional simulator's
// architectural state, and (b) -- for the Ultrascalar I and the hybrid with
// ample window -- reproduce the ideal out-of-order baseline's timing cycle
// for cycle (the paper's central functional claim, Figures 1-3).
#include <gtest/gtest.h>

#include "core/core.hpp"
#include "trace_timeline.hpp"

namespace ultra::core {
namespace {

constexpr const char* kFigure3Program = R"(
  # The paper's eight-instruction example (Section 2), stations 6,7,0..5.
  div r3, r1, r2
  add r0, r0, r3
  add r1, r5, r6
  add r1, r0, r1
  mul r2, r5, r6
  add r2, r2, r4
  sub r0, r5, r6
  add r4, r0, r7
  halt
)";

isa::Program Fig3() {
  auto p = isa::AssembleOrDie(kFigure3Program);
  return p;
}

CoreConfig DefaultConfig() {
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.predictor = PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  return cfg;
}

RunResult RunOn(ProcessorKind kind, const isa::Program& program,
                const CoreConfig& cfg) {
  auto proc = MakeProcessor(kind, cfg);
  auto result = proc->Run(program);
  EXPECT_TRUE(result.halted) << ProcessorKindName(kind) << " did not halt";
  return result;
}

/// RunOn plus the schedule rebuilt from a traced rerun.
test::TracedRun RunOnTraced(ProcessorKind kind, const isa::Program& program,
                            const CoreConfig& cfg) {
  test::TracedRun run{RunOn(kind, program, cfg), {}};
  run.timeline = test::TracedTimeline(kind, cfg, program, run);
  return run;
}

void ExpectMatchesFunctional(const isa::Program& program,
                             const RunResult& result, int num_regs) {
  FunctionalSimulator fn(num_regs);
  const auto ref = fn.Run(program);
  ASSERT_EQ(result.regs.size(), ref.regs.size());
  for (std::size_t r = 0; r < ref.regs.size(); ++r) {
    EXPECT_EQ(result.regs[r], ref.regs[r]) << "register r" << r;
  }
  EXPECT_EQ(result.committed, ref.instructions);
}

// --- Figure 3: the paper's worked example ----------------------------------

TEST(Figure3, FunctionalStateIsCorrectEverywhere) {
  const auto program = Fig3();
  const auto cfg = DefaultConfig();
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunOn(kind, program, cfg);
    ExpectMatchesFunctional(program, result, cfg.num_regs);
  }
}

TEST(Figure3, IssueTimesMatchThePaperTimingDiagram) {
  // Relative issue times from Figure 3 (div=10, mul=3, add=1):
  //   div @0, add(r0) @10, add(r1) @0, add(r1) @11, mul @0, add(r2) @3,
  //   sub @0, add(r4) @1.
  const std::vector<std::uint64_t> expected_issue = {0, 10, 0, 11, 0, 3, 0, 1};
  const std::vector<std::uint64_t> expected_complete = {9, 10, 0, 11, 2, 3,
                                                        0, 1};
  const auto program = Fig3();
  const auto cfg = DefaultConfig();
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(ProcessorKindName(kind));
    const auto result = RunOnTraced(kind, program, cfg);
    ASSERT_EQ(result.timeline.size(), 9u);  // 8 ops + halt.
    const std::uint64_t t0 = result.timeline.front().issue_cycle;
    for (std::size_t k = 0; k < 8; ++k) {
      SCOPED_TRACE(k);
      EXPECT_EQ(result.timeline[k].issue_cycle - t0, expected_issue[k]);
      EXPECT_EQ(result.timeline[k].complete_cycle - t0,
                expected_complete[k]);
    }
  }
}

// --- Architectural correctness on a battery of programs ---------------------

struct ProgramCase {
  const char* name;
  const char* source;
};

// Without a printer gtest shows the raw bytes of the two pointers, which
// move with address randomisation and with every string literal the linked
// code gains or loses, so the discovered ctest names would not be stable.
void PrintTo(const ProgramCase& pc, std::ostream* os) { *os << pc.name; }

class AllProcessors
    : public testing::TestWithParam<std::tuple<ProcessorKind, ProgramCase>> {
};

TEST_P(AllProcessors, MatchesFunctionalSimulator) {
  const auto [kind, pc] = GetParam();
  const auto program = isa::AssembleOrDie(pc.source);
  auto cfg = DefaultConfig();
  const auto result = RunOn(kind, program, cfg);
  ExpectMatchesFunctional(program, result, cfg.num_regs);
}

constexpr ProgramCase kPrograms[] = {
    {"straightline", R"(
      li r1, 7
      li r2, 9
      mul r3, r1, r2
      add r4, r3, r1
      sub r5, r3, r2
      div r6, r3, r1
      rem r7, r3, r2
      xor r8, r4, r5
      halt
    )"},
    {"loop_sum", R"(
      li r1, 0      # sum
      li r2, 1      # i
      li r3, 11     # bound
      loop:
      add r1, r1, r2
      addi r2, r2, 1
      blt r2, r3, loop
      halt
    )"},
    {"memory_roundtrip", R"(
      li r1, 100    # base
      li r2, 42
      st r2, 0(r1)
      st r2, 4(r1)
      ld r3, 0(r1)
      add r4, r3, r2
      st r4, 8(r1)
      ld r5, 8(r1)
      halt
    )"},
    {"store_load_dependency", R"(
      li r1, 64
      li r2, 5
      st r2, 0(r1)
      ld r3, 0(r1)
      addi r3, r3, 1
      st r3, 0(r1)
      ld r4, 0(r1)
      halt
    )"},
    {"branch_not_taken_mispredicts", R"(
      # BTFN predicts the forward branch not taken; it is taken.
      li r1, 1
      li r2, 1
      beq r1, r2, skip
      li r3, 111    # wrong path
      skip:
      li r4, 222
      halt
    )"},
    {"nested_loops", R"(
      li r1, 0      # acc
      li r2, 0      # i
      li r5, 3      # outer bound
      outer:
      li r3, 0      # j
      li r6, 4      # inner bound
      inner:
      add r1, r1, r3
      addi r3, r3, 1
      blt r3, r6, inner
      addi r2, r2, 1
      blt r2, r5, outer
      halt
    )"},
    {"jal_and_jmp", R"(
      li r1, 5
      jal r31, func
      add r3, r1, r1
      halt
      func:
      addi r1, r1, 10
      add r30, r31, r0
      jmp 2         # Return to "add r3, r1, r1".
    )"},
    {"division_edge_cases", R"(
      li r1, -2147483648
      li r2, -1
      div r3, r1, r2
      rem r4, r1, r2
      li r5, 17
      li r6, 0
      div r7, r5, r6
      rem r8, r5, r6
      halt
    )"},
    {"memory_indexed_sum", R"(
      .word 0 10
      .word 4 20
      .word 8 30
      .word 12 40
      li r1, 0      # base
      li r2, 0      # sum
      li r3, 0      # i
      li r4, 4      # count
      loop:
      slli r5, r3, 2
      add r5, r5, r1
      ld r6, 0(r5)
      add r2, r2, r6
      addi r3, r3, 1
      blt r3, r4, loop
      halt
    )"},
    {"alternating_branch_storm", R"(
      li r1, 0      # i
      li r2, 12    # bound
      li r3, 0      # acc
      loop:
      andi r4, r1, 1
      li r5, 0
      beq r4, r5, even
      addi r3, r3, 100
      jmp next
      even:
      addi r3, r3, 1
      next:
      addi r1, r1, 1
      blt r1, r2, loop
      halt
    )"},
};

INSTANTIATE_TEST_SUITE_P(
    Battery, AllProcessors,
    testing::Combine(testing::Values(ProcessorKind::kIdeal,
                                     ProcessorKind::kUltrascalarI,
                                     ProcessorKind::kUltrascalarII,
                                     ProcessorKind::kHybrid),
                     testing::ValuesIn(kPrograms)),
    [](const auto& info) {
      return std::string(ProcessorKindName(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param).name;
    });

// --- Cycle-level equivalence -------------------------------------------------

class TimingEquivalence : public testing::TestWithParam<ProgramCase> {};

// The Ideal side runs its plain rename-table reference loop (Ideal runs its
// packed loop under every other DatapathEval), so the Figure 3 equivalence
// claim rests on the simplest model of the baseline.
test::TracedRun RunIdealReference(const isa::Program& program,
                                  CoreConfig cfg) {
  cfg.datapath_eval = DatapathEval::kFullRecompute;
  return RunOnTraced(ProcessorKind::kIdeal, program, cfg);
}

TEST_P(TimingEquivalence, UltrascalarIMatchesIdealCycleForCycle) {
  const auto program = isa::AssembleOrDie(GetParam().source);
  auto cfg = DefaultConfig();
  cfg.window_size = 64;  // Ample window: the dataflow limit governs.
  const auto ideal = RunIdealReference(program, cfg);
  const auto usi = RunOnTraced(ProcessorKind::kUltrascalarI, program, cfg);
  EXPECT_EQ(usi.cycles, ideal.cycles);
  ASSERT_EQ(usi.timeline.size(), ideal.timeline.size());
  for (std::size_t k = 0; k < ideal.timeline.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(usi.timeline[k].pc, ideal.timeline[k].pc);
    EXPECT_EQ(usi.timeline[k].issue_cycle, ideal.timeline[k].issue_cycle);
    EXPECT_EQ(usi.timeline[k].complete_cycle,
              ideal.timeline[k].complete_cycle);
    EXPECT_EQ(usi.timeline[k].commit_cycle, ideal.timeline[k].commit_cycle);
  }
}

TEST_P(TimingEquivalence, HybridMatchesIdealIssueTimes) {
  const auto program = isa::AssembleOrDie(GetParam().source);
  auto cfg = DefaultConfig();
  cfg.window_size = 64;
  cfg.cluster_size = 8;
  const auto ideal = RunIdealReference(program, cfg);
  const auto hybrid = RunOnTraced(ProcessorKind::kHybrid, program, cfg);
  ASSERT_EQ(hybrid.timeline.size(), ideal.timeline.size());
  for (std::size_t k = 0; k < ideal.timeline.size(); ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(hybrid.timeline[k].pc, ideal.timeline[k].pc);
    EXPECT_EQ(hybrid.timeline[k].issue_cycle, ideal.timeline[k].issue_cycle);
    EXPECT_EQ(hybrid.timeline[k].complete_cycle,
              ideal.timeline[k].complete_cycle);
  }
}

TEST_P(TimingEquivalence, UltrascalarIIIsNeverFasterThanIdeal) {
  // The batch machine idles "waiting for everyone to finish before
  // refilling" (Section 4), so it can only lose cycles.
  const auto program = isa::AssembleOrDie(GetParam().source);
  auto cfg = DefaultConfig();
  cfg.window_size = 64;
  const auto ideal = RunIdealReference(program, cfg);
  const auto usii = RunOn(ProcessorKind::kUltrascalarII, program, cfg);
  EXPECT_GE(usii.cycles, ideal.cycles);
}

INSTANTIATE_TEST_SUITE_P(Battery, TimingEquivalence,
                         testing::ValuesIn(kPrograms),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ultra::core
