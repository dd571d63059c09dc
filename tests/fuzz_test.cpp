// Randomized cross-processor fuzzing with speculative control flow.
//
// RandomForwardDag generates acyclic control-flow graphs (forward branches
// and jumps only), so every program terminates on every path. Each seed is
// run on all four processor models under several predictors and feature
// combinations and must reproduce the functional simulator's state.
#include <gtest/gtest.h>

#include <random>

#include "core/config_codec.hpp"
#include "core/core.hpp"
#include "isa/program_codec.hpp"
#include "persist/checkpoint.hpp"
#include "runtime/sweep_journal.hpp"
#include "service/protocol.hpp"
#include "telemetry/snapshot_codec.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::CoreConfig;
using core::ProcessorKind;

// Cross-core equivalence harness: runs @p program on all four processor
// models under @p cfg and asserts each reproduces the functional
// simulator's final registers, final data memory, and committed count.
void ExpectMatchesFunctional(const isa::Program& program,
                             const CoreConfig& cfg) {
  core::FunctionalSimulator fn;
  const auto ref = fn.Run(program);
  ASSERT_TRUE(ref.halted);
  const auto ref_memory = ref.memory.Snapshot();
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    auto proc = core::MakeProcessor(kind, cfg);
    const auto result = proc->Run(program);
    ASSERT_TRUE(result.halted);
    for (std::size_t r = 0; r < ref.regs.size(); ++r) {
      ASSERT_EQ(result.regs[r], ref.regs[r]) << "r" << r;
    }
    ASSERT_EQ(result.memory, ref_memory);
    ASSERT_EQ(result.committed, ref.instructions);
  }
}

class DagFuzz : public testing::TestWithParam<unsigned> {};

TEST_P(DagFuzz, BtfnPredictor) {
  const auto program = workloads::RandomForwardDag({.seed = GetParam()});
  CoreConfig cfg;
  cfg.window_size = 24;
  cfg.cluster_size = 8;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  ExpectMatchesFunctional(program, cfg);
}

TEST_P(DagFuzz, NotTakenPredictorWithBandwidthLimit) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 10, .block_size = 5, .seed = GetParam() ^ 0x5555});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.predictor = core::PredictorKind::kNotTaken;
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  ExpectMatchesFunctional(program, cfg);
}

TEST_P(DagFuzz, TwoBitPredictorWithForwardingAndSharedAlus) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 14, .block_size = 4, .branch_prob = 0.9,
       .memory_words = 8, .seed = GetParam() ^ 0xaaaa});
  CoreConfig cfg;
  cfg.window_size = 20;
  cfg.cluster_size = 5;
  cfg.predictor = core::PredictorKind::kTwoBit;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.store_forwarding = true;
  cfg.num_alus = 3;
  ExpectMatchesFunctional(program, cfg);
}

TEST_P(DagFuzz, OracleWithFatTreeMemory) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 8, .block_size = 8, .seed = GetParam() ^ 0x1234});
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.predictor = core::PredictorKind::kOracle;
  cfg.mem.mode = memory::MemTimingMode::kFatTree;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  ExpectMatchesFunctional(program, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DagFuzz, testing::Range(400u, 420u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Straight-line and loop generators round out the DAG programs above: heavy
// memory traffic, shared-ALU contention, and store forwarding all have to
// leave the same architectural state as the functional simulator.
class MixFuzz : public testing::TestWithParam<unsigned> {};

TEST_P(MixFuzz, StraightLineMixAllCores) {
  const auto program = workloads::RandomMix(
      {.num_instructions = 200, .memory_words = 32, .seed = GetParam()});
  CoreConfig cfg;
  cfg.window_size = 24;
  cfg.cluster_size = 6;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  ExpectMatchesFunctional(program, cfg);
}

TEST_P(MixFuzz, StoreHeavyMixWithForwardingAndSharedAlus) {
  const auto program = workloads::RandomMix(
      {.num_instructions = 160, .load_fraction = 0.25,
       .store_fraction = 0.25, .memory_words = 16,
       .seed = GetParam() ^ 0x9e37});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  cfg.store_forwarding = true;
  cfg.num_alus = 2;
  ExpectMatchesFunctional(program, cfg);
}

TEST_P(MixFuzz, MemoryStreamUnderFatTree) {
  const auto program = workloads::MemoryStream(
      {.iterations = 12, .loads_per_iter = 6,
       .stride_words = 1 + int(GetParam() % 3), .seed = GetParam()});
  CoreConfig cfg;
  cfg.window_size = 20;
  cfg.cluster_size = 5;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kFatTree;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  ExpectMatchesFunctional(program, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixFuzz, testing::Range(700u, 712u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(KernelEquivalence, SortAndIndirectionMatchFunctionalState) {
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.predictor = core::PredictorKind::kTwoBit;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  ExpectMatchesFunctional(workloads::BubbleSort(10), cfg);
  ExpectMatchesFunctional(workloads::IndirectSum(16), cfg);
  ExpectMatchesFunctional(workloads::MemCopy(24), cfg);
}

// The incremental and bit-packed datapath evaluations
// (CoreConfig::datapath_eval) are pure simulator optimizations: on every
// program they must produce the exact RunResult of the full-recompute
// reference path — cycle-for-cycle, not just the same architectural state.
// Configurations a packed loop does not cover fall back to the incremental
// path and must still match.
void ExpectIncrementalMatchesFullRecompute(const isa::Program& program,
                                           CoreConfig cfg) {
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    cfg.datapath_eval = core::DatapathEval::kFullRecompute;
    const auto full = core::MakeProcessor(kind, cfg)->Run(program);
    const auto full_timeline = test::TracedTimeline(kind, cfg, program, full);
    for (const auto eval :
         {core::DatapathEval::kIncremental, core::DatapathEval::kPacked}) {
      SCOPED_TRACE(eval == core::DatapathEval::kPacked ? "packed"
                                                       : "incremental");
      cfg.datapath_eval = eval;
      const auto incr = core::MakeProcessor(kind, cfg)->Run(program);
      ASSERT_EQ(incr.halted, full.halted);
      ASSERT_EQ(incr.cycles, full.cycles);
      ASSERT_EQ(incr.committed, full.committed);
      ASSERT_EQ(incr.regs, full.regs);
      ASSERT_EQ(incr.memory, full.memory);
      ASSERT_EQ(incr.stats.mispredictions, full.stats.mispredictions);
      ASSERT_EQ(incr.stats.squashed_instructions,
                full.stats.squashed_instructions);
      ASSERT_EQ(incr.stats.fetch_stall_cycles, full.stats.fetch_stall_cycles);
      ASSERT_EQ(incr.stats.window_full_cycles, full.stats.window_full_cycles);
      test::ExpectSameTimeline(
          test::TracedTimeline(kind, cfg, program, incr), full_timeline);
    }
  }
}

class EvalPathFuzz : public testing::TestWithParam<unsigned> {};

TEST_P(EvalPathFuzz, DagWithSpeculationAndSquashes) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 12, .block_size = 5, .seed = GetParam()});
  CoreConfig cfg;
  cfg.window_size = 24;
  cfg.cluster_size = 6;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  ExpectIncrementalMatchesFullRecompute(program, cfg);
}

TEST_P(EvalPathFuzz, MixWithMemoryLatencyForwardingAndSharedAlus) {
  const auto program = workloads::RandomMix(
      {.num_instructions = 150, .load_fraction = 0.2, .store_fraction = 0.2,
       .memory_words = 16, .seed = GetParam() ^ 0xbeef});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  cfg.store_forwarding = true;
  cfg.num_alus = 3;
  ExpectIncrementalMatchesFullRecompute(program, cfg);
}

TEST_P(EvalPathFuzz, PipelinedUsiReadNetwork) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 8, .block_size = 6, .seed = GetParam() ^ 0x7f7f});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.predictor = core::PredictorKind::kNotTaken;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.pipeline_levels_per_stage = 2;  // Exercises the last-writer scan.
  ExpectIncrementalMatchesFullRecompute(program, cfg);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EvalPathFuzz, testing::Range(900u, 912u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Checkpoint/restore fuzz: checkpoint every core at a seed-derived cycle
// mid-run and require the resumed run to finish indistinguishably from the
// uninterrupted one — full RunResult equality, and a traced resume records
// exactly the uninterrupted run's events from the checkpoint on. This is
// the randomized complement to persist_test's fixed-cycle coverage.
void ExpectCheckpointRoundTrip(const isa::Program& program,
                               const CoreConfig& cfg, unsigned seed) {
  for (const auto kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    const auto proc = core::MakeProcessor(kind, cfg);
    const auto base = proc->Run(program);
    ASSERT_TRUE(base.halted);
    if (base.cycles < 2) continue;
    // A deterministic pseudo-random interior cycle, different per seed and
    // per core kind.
    const std::uint64_t mix =
        (seed * 2654435761u) ^ (static_cast<std::uint64_t>(kind) << 16);
    const std::uint64_t cycle = 1 + mix % (base.cycles - 1);
    SCOPED_TRACE("checkpoint cycle " + std::to_string(cycle) + " of " +
                 std::to_string(base.cycles));
    const persist::Checkpoint ckpt = proc->SaveCheckpoint(program, cycle);
    const auto resumed = proc->RestoreCheckpoint(program, ckpt);
    ASSERT_EQ(resumed.halted, base.halted);
    ASSERT_EQ(resumed.cycles, base.cycles);
    ASSERT_EQ(resumed.committed, base.committed);
    ASSERT_EQ(resumed.regs, base.regs);
    ASSERT_EQ(resumed.memory, base.memory);
    ASSERT_EQ(resumed.stats.mispredictions, base.stats.mispredictions);
    ASSERT_EQ(resumed.stats.squashed_instructions,
              base.stats.squashed_instructions);
    ASSERT_EQ(resumed.stats.forwarded_loads, base.stats.forwarded_loads);
    ASSERT_EQ(resumed.stats.fetch_stall_cycles, base.stats.fetch_stall_cycles);
    ASSERT_EQ(resumed.stats.window_full_cycles, base.stats.window_full_cycles);
    ASSERT_EQ(resumed.stats.fault.injected, base.stats.fault.injected);
    ASSERT_EQ(resumed.stats.fault.divergences, base.stats.fault.divergences);
    ASSERT_EQ(resumed.stats.fault.resyncs, base.stats.fault.resyncs);
    test::ExpectResumedTraceMatches(kind, cfg, program, ckpt, base);
  }
}

class CheckpointFuzz : public testing::TestWithParam<unsigned> {};

TEST_P(CheckpointFuzz, DagWithSpeculation) {
  const auto program = workloads::RandomForwardDag(
      {.num_blocks = 10, .block_size = 5, .seed = GetParam()});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.predictor = core::PredictorKind::kBtfn;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  ExpectCheckpointRoundTrip(program, cfg, GetParam());
}

TEST_P(CheckpointFuzz, MixUnderMemoryLatencyAndForwarding) {
  const auto program = workloads::RandomMix(
      {.num_instructions = 150, .load_fraction = 0.2, .store_fraction = 0.2,
       .memory_words = 16, .seed = GetParam() ^ 0x51ed});
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 4;
  cfg.predictor = core::PredictorKind::kTwoBit;
  cfg.mem.mode = memory::MemTimingMode::kFatTree;
  cfg.mem.regime = memory::BandwidthRegime::kSqrt;
  cfg.store_forwarding = true;
  cfg.num_alus = 3;
  ExpectCheckpointRoundTrip(program, cfg, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointFuzz, testing::Range(1200u, 1208u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- Deserializer fuzz ----------------------------------------------------
//
// Every binary decoder must treat arbitrary bytes as "this artifact is
// unusable" (persist::FormatError), never as a crash, hang, or huge
// allocation: these decoders sit behind journal payloads, checkpoint files,
// repro bundles, and now the sweep service's network frames, all of which
// can arrive truncated, bit-rotted, or hostile.

/// Feeds @p bytes to every decoder; success and FormatError are the only
/// acceptable outcomes. (std::bad_alloc here would mean a corrupt length
/// field drove an unbounded allocation — the exact bug the decoders clamp
/// against.)
void ExpectDecodersRejectGracefully(const std::vector<std::uint8_t>& bytes) {
  const auto try_decode = [&](auto&& decode) {
    persist::Decoder d(bytes);
    try {
      (void)decode(d);
    } catch (const persist::FormatError&) {
      // The expected rejection path.
    }
  };
  try_decode([](persist::Decoder& d) { return isa::DecodeProgram(d); });
  try_decode([](persist::Decoder& d) { return core::DecodeCoreConfig(d); });
  try_decode([](persist::Decoder& d) { return telemetry::DecodeSnapshot(d); });
  try_decode([](persist::Decoder& d) { return runtime::DecodeOutcome(d); });
  try_decode(
      [](persist::Decoder& d) { return service::DecodeSubmitRequest(d); });
  try_decode(
      [](persist::Decoder& d) { return service::DecodeSubmitReply(d); });
  try_decode([](persist::Decoder& d) { return service::DecodeWaitReply(d); });
  try {
    (void)persist::DecodeCheckpoint(bytes);
  } catch (const persist::FormatError&) {
  }
  try {
    (void)workloads::DecodeTraceBinary(bytes);
  } catch (const persist::FormatError&) {
  }
  try {
    (void)workloads::DecodeTraceText(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  } catch (const persist::FormatError&) {
  }
}

class DecoderFuzz : public testing::TestWithParam<unsigned> {};

TEST_P(DecoderFuzz, RandomBytesNeverCrashDecoders) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> byte(0, 255);
  std::uniform_int_distribution<std::size_t> length(0, 512);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bytes(length(rng));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(byte(rng));
    ExpectDecodersRejectGracefully(bytes);
  }
}

TEST_P(DecoderFuzz, MutatedValidEncodingsNeverCrashDecoders) {
  // Mutations of *valid* encodings probe deeper than pure noise: most random
  // strings die at the first length field, while a flipped byte inside a
  // valid artifact reaches the interior of every decode loop.
  persist::Encoder e;
  isa::EncodeProgram(e, workloads::Fibonacci(8));
  // A hierarchy-enabled config, so flips reach the new cache-geometry and
  // prefetch validation paths in DecodeCoreConfig.
  CoreConfig hier;
  hier.mem.hierarchy.l1i.enabled = true;
  hier.mem.hierarchy.l1d.enabled = true;
  hier.mem.hierarchy.l2.enabled = true;
  hier.mem.hierarchy.prefetch.depth = 2;
  core::EncodeCoreConfig(e, hier);
  const auto trace_bytes = workloads::EncodeTraceBinary(
      workloads::RecordTrace("fuzz", workloads::Fibonacci(8)));
  e.Bytes(trace_bytes);
  const std::vector<std::uint8_t> valid = e.Take();

  std::mt19937 rng(GetParam() * 7919u + 13u);
  std::uniform_int_distribution<std::size_t> pos(0, valid.size() - 1);
  std::uniform_int_distribution<int> bit(0, 7);
  for (int round = 0; round < 200; ++round) {
    auto mutated = valid;
    // A couple of bit flips plus a truncation.
    mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    mutated[pos(rng)] ^= static_cast<std::uint8_t>(1 << bit(rng));
    mutated.resize(pos(rng) + 1);
    ExpectDecodersRejectGracefully(mutated);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, testing::Range(3000u, 3008u),
                         [](const testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(DagGenerator, AlwaysTerminates) {
  for (unsigned seed = 0; seed < 50; ++seed) {
    const auto program = workloads::RandomForwardDag({.seed = seed});
    core::FunctionalSimulator fn;
    const auto ref = fn.Run(program, 100000);
    EXPECT_TRUE(ref.halted) << "seed " << seed;
  }
}

TEST(DagGenerator, BranchTargetsAreStrictlyForward) {
  for (unsigned seed = 0; seed < 20; ++seed) {
    const auto program = workloads::RandomForwardDag({.seed = seed});
    for (std::size_t pc = 0; pc < program.size(); ++pc) {
      const auto& inst = program.at(pc);
      if (isa::IsControlFlow(inst.op)) {
        EXPECT_GT(static_cast<std::size_t>(inst.imm), pc)
            << "seed " << seed << " pc " << pc;
      }
    }
  }
}

}  // namespace
}  // namespace ultra
