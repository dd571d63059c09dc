// Tests for the table/diagram helpers and fetch engine.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analysis.hpp"
#include "analysis/floorplan.hpp"
#include "core/core.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

// --- Table -------------------------------------------------------------------

TEST(Table, AlignsColumns) {
  analysis::Table table({"a", "longheader"});
  table.Row().Cell("xxxxxx").Cell(1);
  table.Row().Cell("y").Cell(2.5, 1);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("longheader"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  // Every line has the same length (fixed-width table).
  std::size_t pos = 0;
  std::size_t first_len = std::string::npos;
  while (pos < out.size()) {
    const std::size_t eol = out.find('\n', pos);
    const std::string line = out.substr(pos, eol - pos);
    if (first_len == std::string::npos) {
      first_len = line.size();
    }
    pos = eol + 1;
  }
  EXPECT_GT(first_len, 0u);
}

TEST(Table, Humanize) {
  EXPECT_EQ(analysis::Humanize(950.0), "950.00");
  EXPECT_EQ(analysis::Humanize(1500.0), "1.50k");
  EXPECT_EQ(analysis::Humanize(2.5e6), "2.50M");
  EXPECT_EQ(analysis::Humanize(3.2e9, 1), "3.2G");
}

// --- Timing diagram -------------------------------------------------------------

TEST(TimingDiagram, RendersFigure3Shape) {
  core::CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto run = test::RunTraced(core::ProcessorKind::kUltrascalarI, cfg,
                                   workloads::Figure3Example());
  const std::string diagram = analysis::RenderTimingDiagram(run.timeline);
  // The divide occupies ten cells.
  EXPECT_NE(diagram.find("##########"), std::string::npos);
  EXPECT_NE(diagram.find("div r3, r1, r2"), std::string::npos);
  EXPECT_NE(diagram.find("(cycles)"), std::string::npos);
}

TEST(TimingDiagram, TruncatesLongTimelines) {
  core::CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto run = test::RunTraced(core::ProcessorKind::kUltrascalarI, cfg,
                                   workloads::Fibonacci(30));
  const std::string diagram = analysis::RenderTimingDiagram(run.timeline, 8);
  EXPECT_NE(diagram.find("more)"), std::string::npos);
}

TEST(TimingDiagram, EmptyTimeline) {
  EXPECT_EQ(analysis::RenderTimingDiagram({}), "(empty timeline)\n");
}

// --- Locality metric --------------------------------------------------------------

TEST(Locality, SerialChainIsFullyLocal) {
  core::CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto run = test::RunTraced(
      core::ProcessorKind::kIdeal, cfg,
      workloads::DependencyChains({.num_instructions = 64, .ilp = 1}));
  EXPECT_NEAR(analysis::LocalCommunicationFraction(run.timeline, 1), 1.0,
              0.05);
}

TEST(Locality, InterleavedChainsAreLocalOnlyAtTheirStride) {
  core::CoreConfig cfg;
  cfg.window_size = 32;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto run = test::RunTraced(
      core::ProcessorKind::kIdeal, cfg,
      workloads::DependencyChains({.num_instructions = 64, .ilp = 8}));
  EXPECT_LT(analysis::LocalCommunicationFraction(run.timeline, 4), 0.2);
  EXPECT_GT(analysis::LocalCommunicationFraction(run.timeline, 8), 0.9);
}

// --- Floorplan renderings (Figures 6 and 10) ------------------------------------

TEST(Floorplan, HTreeContainsExactlyNStations) {
  for (const int n : {1, 4, 16, 64}) {
    const std::string art = analysis::RenderHTreeFloorplan(n);
    const auto stations = std::count(art.begin(), art.end(), 'S');
    EXPECT_EQ(stations, n) << art;
    if (n > 1) {
      EXPECT_NE(art.find('P'), std::string::npos);
      EXPECT_NE(art.find('M'), std::string::npos);
    }
  }
}

TEST(Floorplan, HTreeJointCountMatchesTheRecursion) {
  // An H-tree over 4^k leaves has (4^k - 1) / 3 joints.
  const std::string art = analysis::RenderHTreeFloorplan(16);
  EXPECT_EQ(std::count(art.begin(), art.end(), 'P'), 5);
}

TEST(Floorplan, HybridContainsExactlyNStations) {
  const std::string art = analysis::RenderHybridFloorplan(32, 8);
  EXPECT_EQ(std::count(art.begin(), art.end(), 'E'), 32);
  // Each cluster's register datapath fills the triangle below the diagonal.
  EXPECT_EQ(std::count(art.begin(), art.end(), 'R'), 4 * (8 * 7) / 2);
}

// --- Fetch engine ------------------------------------------------------------------

TEST(FetchEngine, DeliversSequentialInstructions) {
  const auto program = isa::AssembleOrDie(R"(
    addi r1, r1, 1
    addi r2, r2, 1
    addi r3, r3, 1
    halt
  )");
  core::CoreConfig cfg;
  core::FetchEngine fetch(&program, cfg,
                          std::make_unique<memory::BtfnPredictor>());
  const auto batch = fetch.FetchCycle(8);
  ASSERT_EQ(batch.size(), 4u);
  EXPECT_EQ(batch[0].pc, 0u);
  EXPECT_EQ(batch[3].inst.op, isa::Opcode::kHalt);
  EXPECT_TRUE(fetch.stalled());  // Past the halt.
}

TEST(FetchEngine, StopsAtPredictedTakenBranchInBasicBlockMode) {
  const auto program = isa::AssembleOrDie(R"(
    top:
    addi r1, r1, 1
    blt r1, r2, top    # Backward: BTFN predicts taken.
    halt
  )");
  core::CoreConfig cfg;
  cfg.fetch_mode = core::FetchMode::kBasicBlock;
  core::FetchEngine fetch(&program, cfg,
                          std::make_unique<memory::BtfnPredictor>());
  const auto first = fetch.FetchCycle(8);
  ASSERT_EQ(first.size(), 2u);  // addi + the taken branch end the cycle.
  const auto second = fetch.FetchCycle(8);
  ASSERT_GE(second.size(), 1u);
  EXPECT_EQ(second[0].pc, 0u);  // Followed the predicted loop.
}

TEST(FetchEngine, RedirectDiscardsWrongPath) {
  const auto program = isa::AssembleOrDie(R"(
    addi r1, r1, 1
    addi r2, r2, 1
    halt
  )");
  core::CoreConfig cfg;
  core::FetchEngine fetch(&program, cfg,
                          std::make_unique<memory::BtfnPredictor>());
  (void)fetch.FetchCycle(1);
  fetch.Redirect(2);
  const auto batch = fetch.FetchCycle(4);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].inst.op, isa::Opcode::kHalt);
}

TEST(FetchEngine, TraceCacheWarmsUp) {
  const auto program = isa::AssembleOrDie(R"(
    top:
    addi r1, r1, 1
    blt r1, r2, top
    halt
  )");
  core::CoreConfig cfg;
  cfg.fetch_mode = core::FetchMode::kTraceCache;
  cfg.trace_branches = 3;
  core::FetchEngine fetch(&program, cfg,
                          std::make_unique<memory::BtfnPredictor>());
  // First cycles miss (basic-block fetch); later cycles hit and cross
  // multiple taken branches.
  std::size_t best = 0;
  for (int i = 0; i < 8; ++i) {
    best = std::max(best, fetch.FetchCycle(8).size());
  }
  EXPECT_GT(best, 2u);
  ASSERT_NE(fetch.trace_cache_stats(), nullptr);
  EXPECT_GT(fetch.trace_cache_stats()->hits, 0u);
}

}  // namespace
}  // namespace ultra
