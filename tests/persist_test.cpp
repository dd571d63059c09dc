// Tests for the persistence layer: deterministic serialization, versioned
// checkpoint files, crash-safe journals, checkpoint/restore cycle-exactness
// on all four cores, sweep resume byte-identity, and repro bundles.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/config_codec.hpp"
#include "core/core.hpp"
#include "fault/fault.hpp"
#include "isa/program_codec.hpp"
#include "persist/checkpoint.hpp"
#include "persist/journal.hpp"
#include "persist/serial.hpp"
#include "runtime/runtime.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::CoreConfig;
using core::ProcessorKind;

constexpr ProcessorKind kAllKinds[] = {
    ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid};

/// A scratch directory unique to the current test, cleaned up on teardown.
class TempDir {
 public:
  TempDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ultra_persist_") + info->test_suite_name() + "_" +
             info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string File(const std::string& name) const {
    return (path_ / name).string();
  }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// Full-state equality: everything RunResult carries — the restored run
/// must be indistinguishable from the uninterrupted one.
void ExpectSameResult(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.halted, b.halted);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.regs, b.regs);
  EXPECT_EQ(a.memory, b.memory);
  EXPECT_EQ(a.stats.mispredictions, b.stats.mispredictions);
  EXPECT_EQ(a.stats.forwarded_loads, b.stats.forwarded_loads);
  EXPECT_EQ(a.stats.squashed_instructions, b.stats.squashed_instructions);
  EXPECT_EQ(a.stats.load_count, b.stats.load_count);
  EXPECT_EQ(a.stats.store_count, b.stats.store_count);
  EXPECT_EQ(a.stats.fetch_stall_cycles, b.stats.fetch_stall_cycles);
  EXPECT_EQ(a.stats.window_full_cycles, b.stats.window_full_cycles);
  EXPECT_EQ(a.stats.fault.injected, b.stats.fault.injected);
  EXPECT_EQ(a.stats.fault.checks, b.stats.fault.checks);
  EXPECT_EQ(a.stats.fault.divergences, b.stats.fault.divergences);
  EXPECT_EQ(a.stats.fault.resyncs, b.stats.fault.resyncs);
  EXPECT_EQ(a.stats.fault.squashes, b.stats.fault.squashes);
  EXPECT_EQ(a.stats.mem_hierarchy.l1d_hits, b.stats.mem_hierarchy.l1d_hits);
  EXPECT_EQ(a.stats.mem_hierarchy.l1d_misses,
            b.stats.mem_hierarchy.l1d_misses);
  EXPECT_EQ(a.stats.mem_hierarchy.l1d_writebacks,
            b.stats.mem_hierarchy.l1d_writebacks);
  EXPECT_EQ(a.stats.mem_hierarchy.l2_hits, b.stats.mem_hierarchy.l2_hits);
  EXPECT_EQ(a.stats.mem_hierarchy.l2_misses, b.stats.mem_hierarchy.l2_misses);
  EXPECT_EQ(a.stats.mem_hierarchy.icache_hits,
            b.stats.mem_hierarchy.icache_hits);
  EXPECT_EQ(a.stats.mem_hierarchy.icache_misses,
            b.stats.mem_hierarchy.icache_misses);
  EXPECT_EQ(a.stats.mem_hierarchy.icache_stall_cycles,
            b.stats.mem_hierarchy.icache_stall_cycles);
  EXPECT_EQ(a.stats.mem_hierarchy.prefetch_issued,
            b.stats.mem_hierarchy.prefetch_issued);
  EXPECT_EQ(a.stats.mem_hierarchy.prefetch_fills,
            b.stats.mem_hierarchy.prefetch_fills);
  EXPECT_EQ(a.stats.mem_hierarchy.prefetch_useful,
            b.stats.mem_hierarchy.prefetch_useful);
}

/// Checkpoint at @p cycle, restore, and require the resumed run to be
/// indistinguishable from @p base (the uninterrupted run), and a traced
/// resume to record exactly the uninterrupted run's events from @p cycle
/// on.
void ExpectCheckpointExact(ProcessorKind kind, const CoreConfig& cfg,
                          const isa::Program& program,
                          const core::RunResult& base, std::uint64_t cycle) {
  SCOPED_TRACE("checkpoint cycle " + std::to_string(cycle));
  const auto proc = core::MakeProcessor(kind, cfg);
  const persist::Checkpoint ckpt = proc->SaveCheckpoint(program, cycle);
  EXPECT_EQ(ckpt.header.cycle, cycle);
  EXPECT_EQ(ckpt.header.core_kind, static_cast<std::uint8_t>(kind));
  const core::RunResult resumed = proc->RestoreCheckpoint(program, ckpt);
  ExpectSameResult(resumed, base);
  test::ExpectResumedTraceMatches(kind, cfg, program, ckpt, base);
}

// --- Encoder / Decoder ---------------------------------------------------

TEST(Serial, RoundTripsEveryType) {
  persist::Encoder e;
  e.U8(0xAB);
  e.U16(0xBEEF);
  e.U32(0xDEADBEEFu);
  e.U64(0x0123456789ABCDEFull);
  e.I32(-42);
  e.I64(-1234567890123ll);
  e.Bool(true);
  e.Bool(false);
  e.F64(3.25);
  e.Str("hello, persist");
  const std::vector<std::uint8_t> blob = {1, 2, 3, 4, 5};
  e.Bytes(blob);

  persist::Decoder d(e.bytes());
  EXPECT_EQ(d.U8(), 0xAB);
  EXPECT_EQ(d.U16(), 0xBEEF);
  EXPECT_EQ(d.U32(), 0xDEADBEEFu);
  EXPECT_EQ(d.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(d.I32(), -42);
  EXPECT_EQ(d.I64(), -1234567890123ll);
  EXPECT_TRUE(d.Bool());
  EXPECT_FALSE(d.Bool());
  EXPECT_EQ(d.F64(), 3.25);
  EXPECT_EQ(d.Str(), "hello, persist");
  EXPECT_EQ(d.Bytes(), blob);
  EXPECT_TRUE(d.AtEnd());
}

TEST(Serial, DecoderThrowsOnUnderflow) {
  persist::Encoder e;
  e.U16(7);
  persist::Decoder d(e.bytes());
  (void)d.U16();
  EXPECT_THROW((void)d.U32(), persist::FormatError);
}

// --- Checkpoint file format ----------------------------------------------

TEST(CheckpointFile, GoldenHeaderBytesLockTheFormatVersion) {
  // The first 8 bytes of every checkpoint are the magic "UCKP" and the
  // format version, little-endian. Bumping kCheckpointVersion without a
  // migration plan must fail THIS test, not a user's restore.
  persist::Checkpoint ckpt;
  ckpt.header.core_kind = 2;
  ckpt.header.cycle = 0x1122334455667788ull;
  ckpt.header.config_fingerprint = 0xAABBCCDDEEFF0011ull;
  ckpt.header.program_fingerprint = 0x2233445566778899ull;
  ckpt.state = {0xDE, 0xAD};
  const std::vector<std::uint8_t> bytes = persist::EncodeCheckpoint(ckpt);
  ASSERT_GE(bytes.size(), 8u);
  // Version 7: the fault injector no longer saves its per-kind counters.
  const std::uint8_t golden[8] = {'U', 'C', 'K', 'P', 7, 0, 0, 0};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(bytes[static_cast<std::size_t>(i)], golden[i]) << "byte " << i;
  }
  const persist::Checkpoint back = persist::DecodeCheckpoint(bytes);
  EXPECT_EQ(back.header, ckpt.header);
  EXPECT_EQ(back.state, ckpt.state);
}

TEST(CheckpointFile, CorruptionIsDetected) {
  persist::Checkpoint ckpt;
  ckpt.header.cycle = 42;
  ckpt.state = std::vector<std::uint8_t>(64, 0x5A);
  std::vector<std::uint8_t> bytes = persist::EncodeCheckpoint(ckpt);
  // Flip one state byte: CRC must catch it.
  bytes[bytes.size() / 2] ^= 0x01;
  EXPECT_THROW((void)persist::DecodeCheckpoint(bytes), persist::FormatError);
  // Truncation must be caught too.
  const std::vector<std::uint8_t> good = persist::EncodeCheckpoint(ckpt);
  const std::vector<std::uint8_t> truncated(good.begin(), good.end() - 3);
  EXPECT_THROW((void)persist::DecodeCheckpoint(truncated),
               persist::FormatError);
}

TEST(CheckpointFile, WriteReadRoundTrip) {
  const TempDir tmp;
  persist::Checkpoint ckpt;
  ckpt.header.core_kind = 1;
  ckpt.header.cycle = 77;
  ckpt.state = {9, 8, 7};
  const std::string path = tmp.File("state.ckpt");
  persist::WriteCheckpointFile(path, ckpt);
  const persist::Checkpoint back = persist::ReadCheckpointFile(path);
  EXPECT_EQ(back.header, ckpt.header);
  EXPECT_EQ(back.state, ckpt.state);
}

// --- Journal framing ------------------------------------------------------

TEST(Journal, AppendReadRoundTrip) {
  const TempDir tmp;
  const std::string path = tmp.File("test.journal");
  {
    persist::JournalWriter w(path, /*truncate=*/true);
    w.Append(1, std::vector<std::uint8_t>{0xAA});
    w.Append(2, std::vector<std::uint8_t>{0xBB, 0xCC});
    w.Append(3, {});
  }
  const auto records = persist::ReadJournal(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 1u);
  EXPECT_EQ(records[0].payload, (std::vector<std::uint8_t>{0xAA}));
  EXPECT_EQ(records[1].type, 2u);
  EXPECT_EQ(records[2].type, 3u);
  EXPECT_TRUE(records[2].payload.empty());
}

TEST(Journal, MissingFileReadsEmpty) {
  EXPECT_TRUE(persist::ReadJournal("/nonexistent/ultra/test.journal").empty());
}

TEST(Journal, TornTailIsDiscardedNotFatal) {
  const TempDir tmp;
  const std::string path = tmp.File("torn.journal");
  {
    persist::JournalWriter w(path, /*truncate=*/true);
    w.Append(1, std::vector<std::uint8_t>{1, 2, 3});
    w.Append(2, std::vector<std::uint8_t>{4, 5, 6});
  }
  // Simulate a SIGKILL mid-append: chop bytes off the last frame.
  const auto full = persist::ReadFileBytes(path);
  const std::vector<std::uint8_t> torn(full.begin(), full.end() - 5);
  persist::AtomicWriteFile(path, torn);
  const auto records = persist::ReadJournal(path);
  ASSERT_EQ(records.size(), 1u);  // Record 2's frame is torn; record 1 survives.
  EXPECT_EQ(records[0].type, 1u);
}

TEST(Journal, ScanReportsDiscardedTailBytes) {
  const TempDir tmp;
  const std::string path = tmp.File("scan.journal");
  {
    persist::JournalWriter w(path, /*truncate=*/true);
    w.Append(1, std::vector<std::uint8_t>{1, 2, 3});
    w.Append(2, std::vector<std::uint8_t>{4, 5, 6});
  }
  const std::uint64_t clean_size = persist::ReadFileBytes(path).size();
  persist::JournalScan scan = persist::ScanJournal(path);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean_size);
  EXPECT_EQ(scan.discarded_bytes, 0u);

  // Tear the second frame: the scan must account for every lost byte.
  auto bytes = persist::ReadFileBytes(path);
  bytes.resize(bytes.size() - 5);
  persist::AtomicWriteFile(path, bytes);
  scan = persist::ScanJournal(path);
  EXPECT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes + scan.discarded_bytes, bytes.size());
  EXPECT_GT(scan.discarded_bytes, 0u);

  // A missing file scans as empty and clean.
  scan = persist::ScanJournal(tmp.File("absent.journal"));
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.discarded_bytes, 0u);
}

TEST(Journal, RepairReclaimsTornTailSoNewAppendsAreVisible) {
  const TempDir tmp;
  const std::string path = tmp.File("heal.journal");
  {
    persist::JournalWriter w(path, /*truncate=*/true);
    w.Append(1, std::vector<std::uint8_t>{1});
    w.Append(2, std::vector<std::uint8_t>{2});
  }
  // A crash mid-append leaves half a frame. Appending *after* that garbage
  // (which is what O_APPEND alone would do) orphans every later record,
  // because readers stop at the first bad frame. RepairJournal is what
  // makes post-crash appends reachable.
  auto bytes = persist::ReadFileBytes(path);
  const std::vector<std::uint8_t> half_frame = {'U', 'J', 'N', 'L', 9, 9};
  bytes.insert(bytes.end(), half_frame.begin(), half_frame.end());
  persist::AtomicWriteFile(path, bytes);

  EXPECT_EQ(persist::RepairJournal(path), half_frame.size());
  EXPECT_EQ(persist::RepairJournal(path), 0u);  // Idempotent once clean.
  {
    persist::JournalWriter w(path, /*truncate=*/false);
    w.Append(3, std::vector<std::uint8_t>{3});
  }
  const auto records = persist::ReadJournal(path);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].type, 1u);
  EXPECT_EQ(records[1].type, 2u);
  EXPECT_EQ(records[2].type, 3u);

  // Repairing a missing journal is a clean no-op (fresh service start).
  EXPECT_EQ(persist::RepairJournal(tmp.File("absent.journal")), 0u);
}

TEST(Journal, BitFlipsNeverCrashTheReader) {
  const TempDir tmp;
  const std::string path = tmp.File("flip.journal");
  {
    persist::JournalWriter w(path, /*truncate=*/true);
    w.Append(7, std::vector<std::uint8_t>{10, 20, 30, 40});
    w.Append(8, std::vector<std::uint8_t>{50, 60});
    w.Append(9, {});
  }
  const auto good = persist::ReadFileBytes(path);
  // Flip one bit at every byte position: the reader must return some valid
  // prefix of the records (possibly empty) and never throw or crash — a
  // corrupt journal means lost tail records, not a lost daemon.
  for (std::size_t i = 0; i < good.size(); ++i) {
    auto bad = good;
    bad[i] ^= 0x10;
    persist::AtomicWriteFile(path, bad);
    const auto records = persist::ReadJournal(path);
    EXPECT_LE(records.size(), 3u) << "byte " << i;
    const persist::JournalScan scan = persist::ScanJournal(path);
    EXPECT_EQ(scan.valid_bytes + scan.discarded_bytes, good.size())
        << "byte " << i;
  }
}

// --- Config / program codecs ---------------------------------------------

TEST(ConfigCodec, RoundTripPreservesFingerprint) {
  CoreConfig cfg;
  cfg.window_size = 48;
  cfg.num_regs = 24;
  cfg.cluster_size = 6;
  cfg.predictor = core::PredictorKind::kTwoBit;
  cfg.fetch_mode = core::FetchMode::kTraceCache;
  cfg.mem.mode = memory::MemTimingMode::kFatTree;
  cfg.store_forwarding = true;
  cfg.num_alus = 3;
  cfg.datapath_eval = core::DatapathEval::kChecked;
  cfg.checker_stride = 16;
  cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::Random(99, 0.01, 5000));

  persist::Encoder e;
  core::EncodeCoreConfig(e, cfg);
  persist::Decoder d(e.bytes());
  const CoreConfig back = core::DecodeCoreConfig(d);
  EXPECT_TRUE(d.AtEnd());
  EXPECT_EQ(core::FingerprintConfig(back), core::FingerprintConfig(cfg));
  ASSERT_NE(back.fault_plan, nullptr);
  EXPECT_EQ(back.fault_plan->size(), cfg.fault_plan->size());
  EXPECT_EQ(back.fault_plan->provenance(), cfg.fault_plan->provenance());
}

TEST(ConfigCodec, HierarchyRoundTripPreservesFingerprint) {
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.mem.hierarchy.l1i.enabled = true;
  cfg.mem.hierarchy.l1i.sets = 32;
  cfg.mem.hierarchy.l1i.ways = 2;
  cfg.mem.hierarchy.l1i.block_bytes = 16;
  cfg.mem.hierarchy.l1i.miss_latency = 9;
  cfg.mem.hierarchy.l1d.enabled = true;
  cfg.mem.hierarchy.l1d.sets = 16;
  cfg.mem.hierarchy.l1d.hit_latency = 2;
  cfg.mem.hierarchy.l2.enabled = true;
  cfg.mem.hierarchy.l2.sets = 128;
  cfg.mem.hierarchy.l2.ways = 8;
  cfg.mem.hierarchy.prefetch.depth = 4;
  cfg.mem.hierarchy.prefetch.table_entries = 8;
  cfg.mem.hierarchy.prefetch.fill_latency = 6;

  persist::Encoder e;
  core::EncodeCoreConfig(e, cfg);
  persist::Decoder d(e.bytes());
  const CoreConfig back = core::DecodeCoreConfig(d);
  EXPECT_TRUE(d.AtEnd());
  EXPECT_EQ(core::FingerprintConfig(back), core::FingerprintConfig(cfg));
  EXPECT_EQ(back.mem.hierarchy.l1i.sets, 32);
  EXPECT_EQ(back.mem.hierarchy.l1i.miss_latency, 9);
  EXPECT_EQ(back.mem.hierarchy.l1d.hit_latency, 2);
  EXPECT_EQ(back.mem.hierarchy.l2.ways, 8);
  EXPECT_EQ(back.mem.hierarchy.prefetch.depth, 4);
  EXPECT_EQ(back.mem.hierarchy.prefetch.fill_latency, 6);
}

TEST(ConfigCodec, RejectsCorruptHierarchyGeometry) {
  // The encoder writes fields verbatim, so an invalid source config stands
  // in for a corrupted byte stream: the *decoder* must reject it as a
  // FormatError rather than hand the simulator an impossible geometry.
  const auto corrupt = [](void (*mutate)(CoreConfig&)) {
    CoreConfig cfg;
    cfg.mem.hierarchy.l1d.enabled = true;
    mutate(cfg);
    persist::Encoder e;
    core::EncodeCoreConfig(e, cfg);
    persist::Decoder d(e.bytes());
    EXPECT_THROW((void)core::DecodeCoreConfig(d), persist::FormatError);
  };
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.sets = 3; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.sets = 0; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.ways = 0; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.block_bytes = 24; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.block_bytes = 2; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.hit_latency = 0; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.l1d.miss_latency = -1; });
  corrupt([](CoreConfig& c) { c.mem.hierarchy.prefetch.depth = -2; });
  corrupt([](CoreConfig& c) {
    c.mem.hierarchy.prefetch.depth = 1;
    c.mem.hierarchy.prefetch.table_entries = 0;
  });
  corrupt([](CoreConfig& c) {
    c.mem.hierarchy.prefetch.depth = 1;
    c.mem.hierarchy.prefetch.fill_latency = 0;
  });
  // The banked cache in a mode that builds it, and the cluster caches.
  corrupt([](CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kBandwidthLimited;
    c.mem.cache.num_banks = 3;
  });
  corrupt([](CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kFatTree;
    c.mem.cache.ways = 0;
  });
  corrupt([](CoreConfig& c) {
    c.mem.cluster_cache_leaves = 4;
    c.mem.cluster_cache_words = 0;
  });
}

TEST(ConfigCodec, RejectsNegativeMemoryLatencies) {
  // A negative latency of a memory role in use decodes as a FormatError
  // naming the field, never as an access that cannot complete.
  const auto corrupt = [](const char* field, void (*mutate)(CoreConfig&)) {
    CoreConfig cfg;
    mutate(cfg);
    persist::Encoder e;
    core::EncodeCoreConfig(e, cfg);
    persist::Decoder d(e.bytes());
    try {
      (void)core::DecodeCoreConfig(d);
      ADD_FAILURE() << field << " was accepted";
    } catch (const persist::FormatError& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  corrupt("mem.cache.hit_latency", [](CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kButterfly;
    c.mem.cache.hit_latency = -1;
  });
  corrupt("mem.cache.miss_penalty", [](CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kFatTree;
    c.mem.cache.miss_penalty = -4;
  });
  corrupt("mem.cluster_cache_hit_latency", [](CoreConfig& c) {
    c.mem.cluster_cache_leaves = 2;
    c.mem.cluster_cache_hit_latency = -1;
  });
  corrupt("mem.magic_load_latency",
          [](CoreConfig& c) { c.mem.magic_load_latency = -1; });
  corrupt("mem.magic_store_latency",
          [](CoreConfig& c) { c.mem.magic_store_latency = -7; });
}

TEST(ProgramCodec, RoundTripPreservesFingerprint) {
  const isa::Program program = workloads::Fibonacci(24);
  persist::Encoder e;
  isa::EncodeProgram(e, program);
  persist::Decoder d(e.bytes());
  const isa::Program back = isa::DecodeProgram(d);
  EXPECT_TRUE(d.AtEnd());
  EXPECT_EQ(isa::FingerprintProgram(back), isa::FingerprintProgram(program));
  EXPECT_EQ(back.size(), program.size());
}

// --- Checkpoint/restore cycle-exactness on all four cores -----------------

TEST(Checkpoint, RestoredRunIsCycleExactOnEveryCore) {
  const isa::Program program = workloads::Fibonacci(64);
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 16;
    cfg.cluster_size = 4;
    cfg.predictor = core::PredictorKind::kBtfn;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    const auto proc = core::MakeProcessor(kind, cfg);
    const core::RunResult base = proc->Run(program);
    ASSERT_TRUE(base.halted);
    for (const std::uint64_t cycle :
         {std::uint64_t{1}, std::uint64_t{7}, base.cycles / 2,
          base.cycles - 1}) {
      if (cycle == 0 || cycle >= base.cycles) continue;
      ExpectCheckpointExact(kind, cfg, program, base, cycle);
    }
  }
}

TEST(Checkpoint, ExactUnderMemorySystemAndTraceCache) {
  // Checkpoints taken with live cluster-cache contents and requests in
  // flight through each backing network and the banked cache behind it.
  const isa::Program program = workloads::MatMul(4);
  for (const auto mode :
       {memory::MemTimingMode::kFatTree, memory::MemTimingMode::kButterfly,
        memory::MemTimingMode::kBandwidthLimited}) {
    for (const auto kind : kAllKinds) {
      SCOPED_TRACE(std::string(core::ProcessorKindName(kind)) + " mode " +
                   std::to_string(static_cast<int>(mode)));
      CoreConfig cfg;
      cfg.window_size = 16;
      cfg.cluster_size = 4;
      cfg.predictor = core::PredictorKind::kTwoBit;
      cfg.fetch_mode = core::FetchMode::kTraceCache;
      cfg.mem.mode = mode;
      cfg.mem.cluster_cache_leaves = 4;
      cfg.store_forwarding = true;
      const core::RunResult base = core::MakeProcessor(kind, cfg)->Run(program);
      ASSERT_TRUE(base.halted);
      // A run whose loads all miss the cluster caches is cycle for cycle
      // the run without them, so a different cycle count shows they hit.
      CoreConfig uncached = cfg;
      uncached.mem.cluster_cache_leaves = 0;
      EXPECT_NE(base.cycles,
                core::MakeProcessor(kind, uncached)->Run(program).cycles);
      ExpectCheckpointExact(kind, cfg, program, base, base.cycles / 3);
      ExpectCheckpointExact(kind, cfg, program, base, 2 * base.cycles / 3);
    }
  }
}

TEST(Checkpoint, ExactUnderLiveFaultInjection) {
  // The hard case: a checkpoint taken while injected corruption is live in
  // the cached station arguments must reproduce the corrupted trajectory
  // (divergences, resyncs, squashes) exactly, checked or not.
  const isa::Program program =
      workloads::RandomMix({.num_instructions = 512});
  for (const auto kind :
       {ProcessorKind::kUltrascalarI, ProcessorKind::kUltrascalarII,
        ProcessorKind::kHybrid}) {
    for (const auto eval :
         {core::DatapathEval::kPacked, core::DatapathEval::kChecked}) {
      SCOPED_TRACE(std::string(core::ProcessorKindName(kind)) +
                   (eval == core::DatapathEval::kChecked ? " checked"
                                                         : " packed"));
      CoreConfig cfg;
      cfg.window_size = 16;
      cfg.cluster_size = 4;
      cfg.mem.mode = memory::MemTimingMode::kMagic;
      cfg.datapath_eval = eval;
      cfg.checker_stride = 8;
      cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
          fault::FaultPlan::Random(7, 0.02, 50'000));
      const auto proc = core::MakeProcessor(kind, cfg);
      const core::RunResult base = proc->Run(program);
      if (eval == core::DatapathEval::kChecked) {
        ASSERT_TRUE(base.halted);
      }
      EXPECT_GT(base.stats.fault.injected, 0u);
      for (const std::uint64_t cycle : {base.cycles / 4, base.cycles / 2,
                                        (3 * base.cycles) / 4}) {
        if (cycle == 0 || cycle >= base.cycles) continue;
        ExpectCheckpointExact(kind, cfg, program, base, cycle);
      }
    }
  }
}

TEST(Checkpoint, ExactWithWarmHierarchyAndInFlightMisses) {
  // The PR 9 case: checkpoints taken with warm L1D/L2/icache contents, a
  // trained stride prefetcher, queued prefetch fills, and demand misses
  // mid-flight between the hierarchy and the bandwidth-limited backing
  // tier. The restored run must replay the exact hit/miss/stall sequence.
  const isa::Program program = workloads::StridedSweep(
      {.array_words = 512, .stride_words = 8, .passes = 3, .unroll = 2});
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 16;
    cfg.cluster_size = 4;
    cfg.predictor = core::PredictorKind::kBtfn;
    cfg.mem.mode = memory::MemTimingMode::kBandwidthLimited;
    cfg.mem.regime = memory::BandwidthRegime::kConstant;
    cfg.mem.hierarchy.l1i.enabled = true;
    cfg.mem.hierarchy.l1i.sets = 4;
    cfg.mem.hierarchy.l1i.ways = 2;
    cfg.mem.hierarchy.l1i.block_bytes = 16;
    cfg.mem.hierarchy.l1d.enabled = true;
    cfg.mem.hierarchy.l1d.sets = 4;
    cfg.mem.hierarchy.l1d.ways = 2;
    cfg.mem.hierarchy.l1d.block_bytes = 32;
    cfg.mem.hierarchy.l2.enabled = true;
    cfg.mem.hierarchy.l2.sets = 16;
    cfg.mem.hierarchy.l2.ways = 4;
    cfg.mem.hierarchy.l2.block_bytes = 32;
    cfg.mem.hierarchy.prefetch.depth = 2;
    cfg.mem.hierarchy.prefetch.fill_latency = 7;
    const auto proc = core::MakeProcessor(kind, cfg);
    const core::RunResult base = proc->Run(program);
    ASSERT_TRUE(base.halted);
    // The axes must actually be live in this configuration.
    EXPECT_GT(base.stats.mem_hierarchy.l1d_misses, 0u);
    EXPECT_GT(base.stats.mem_hierarchy.icache_misses, 0u);
    EXPECT_GT(base.stats.mem_hierarchy.prefetch_issued, 0u);
    for (const std::uint64_t cycle : {base.cycles / 4, base.cycles / 2,
                                      (3 * base.cycles) / 4}) {
      if (cycle == 0 || cycle >= base.cycles) continue;
      ExpectCheckpointExact(kind, cfg, program, base, cycle);
    }
  }
}

// Ideal runs its plain reference loop under kFullRecompute and its packed
// loop under every other mode, the default included. Both keep the same
// canonical state, so their checkpoints must be interchangeable: a repro
// bundle written while the default still ran the reference loop carries
// the default's config fingerprint over the reference loop's state bytes,
// and must resume on the packed loop to the uninterrupted run's result.
TEST(Checkpoint, IdealCheckpointsAreInterchangeableBetweenItsLoops) {
  struct Kernel {
    const char* name;
    isa::Program program;
  };
  const Kernel kernels[] = {{"BubbleSort(32)", workloads::BubbleSort(32)},
                            {"MemCopy(240)", workloads::MemCopy(240)},
                            {"DotProduct(160)", workloads::DotProduct(160)}};
  // One run per loop captures every checkpoint, so the O(n^2)-per-cycle
  // reference loop runs each program once. Magic memory keeps those runs
  // short and still leaves loads and stores in flight at capture points.
  const auto capture_every = [](const CoreConfig& cfg,
                                const isa::Program& program,
                                std::uint64_t every) {
    std::vector<persist::Checkpoint> captured;
    persist::CheckpointControl control;
    control.save_every = every;
    control.sink = [&captured](persist::Checkpoint&& c) {
      captured.push_back(std::move(c));
    };
    CoreConfig with_control = cfg;
    with_control.checkpoint = &control;
    (void)core::MakeProcessor(ProcessorKind::kIdeal, with_control)
        ->Run(program);
    return captured;
  };
  for (const Kernel& k : kernels) {
    for (const int n : {64, 256}) {
      SCOPED_TRACE(std::string(k.name) + " n=" + std::to_string(n));
      CoreConfig cfg;
      cfg.window_size = n;
      cfg.mem.mode = memory::MemTimingMode::kMagic;
      CoreConfig reference_cfg = cfg;
      reference_cfg.datapath_eval = core::DatapathEval::kFullRecompute;
      const auto proc = core::MakeProcessor(ProcessorKind::kIdeal, cfg);
      const core::RunResult base = proc->Run(k.program);
      ASSERT_TRUE(base.halted);
      const std::uint64_t every = std::max<std::uint64_t>(1, base.cycles / 4);
      const auto saved = capture_every(cfg, k.program, every);
      auto from_reference = capture_every(reference_cfg, k.program, every);
      ASSERT_GE(saved.size(), 3u);
      ASSERT_EQ(from_reference.size(), saved.size());
      for (std::size_t i = 0; i < saved.size(); ++i) {
        SCOPED_TRACE("checkpoint cycle " +
                     std::to_string(saved[i].header.cycle));
        EXPECT_EQ(from_reference[i].header.cycle, saved[i].header.cycle);
        EXPECT_EQ(from_reference[i].state, saved[i].state);
        from_reference[i].header = saved[i].header;
        ExpectSameResult(proc->RestoreCheckpoint(k.program, from_reference[i]),
                         base);
        test::ExpectResumedTraceMatches(ProcessorKind::kIdeal, cfg, k.program,
                                        from_reference[i], base);
      }
    }
  }
}

// A checkpoint holds the machine, not its history: on a loop that touches
// no memory, one taken 20k cycles in is no larger than one taken at cycle
// 1k, on every core.
TEST(Checkpoint, SizeDoesNotGrowWithRunLength) {
  const isa::Program loop = isa::AssembleOrDie(R"(
    loop: addi r1, r1, 1
          addi r2, r2, 3
          jmp loop
  )");
  for (const auto kind : kAllKinds) {
    SCOPED_TRACE(core::ProcessorKindName(kind));
    CoreConfig cfg;
    cfg.window_size = 64;
    cfg.cluster_size = 8;
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.max_cycles = 100'000;
    const auto proc = core::MakeProcessor(kind, cfg);
    const std::size_t early =
        persist::EncodeCheckpoint(proc->SaveCheckpoint(loop, 1'000)).size();
    const std::size_t late =
        persist::EncodeCheckpoint(proc->SaveCheckpoint(loop, 20'000)).size();
    EXPECT_LE(late, early) << "cycle 1000: " << early
                           << " bytes, cycle 20000: " << late << " bytes";
  }
}

TEST(Checkpoint, RestoreRejectsMismatchedConfigProgramAndKind) {
  const isa::Program program = workloads::Fibonacci(32);
  CoreConfig cfg;
  cfg.window_size = 16;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto proc = core::MakeProcessor(ProcessorKind::kUltrascalarI, cfg);
  const persist::Checkpoint ckpt = proc->SaveCheckpoint(program, 5);

  // Different core kind.
  const auto other = core::MakeProcessor(ProcessorKind::kHybrid, cfg);
  EXPECT_THROW((void)other->RestoreCheckpoint(program, ckpt),
               persist::FormatError);
  // Different config.
  CoreConfig cfg2 = cfg;
  cfg2.window_size = 32;
  const auto proc2 = core::MakeProcessor(ProcessorKind::kUltrascalarI, cfg2);
  EXPECT_THROW((void)proc2->RestoreCheckpoint(program, ckpt),
               persist::FormatError);
  // Different program.
  const isa::Program program2 = workloads::Fibonacci(33);
  EXPECT_THROW((void)proc->RestoreCheckpoint(program2, ckpt),
               persist::FormatError);
}

TEST(Checkpoint, SaveBeyondRunLengthThrows) {
  const isa::Program program = workloads::Fibonacci(8);
  CoreConfig cfg;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto proc = core::MakeProcessor(ProcessorKind::kUltrascalarI, cfg);
  const core::RunResult base = proc->Run(program);
  EXPECT_THROW((void)proc->SaveCheckpoint(program, base.cycles + 100),
               std::runtime_error);
}

// --- Sweep journaling and resume ------------------------------------------

std::vector<runtime::SweepPoint> SmallSweep() {
  const auto fib = std::make_shared<isa::Program>(workloads::Fibonacci(48));
  const auto dot = std::make_shared<isa::Program>(workloads::DotProduct(32));
  std::vector<runtime::SweepPoint> points;
  for (const auto kind : kAllKinds) {
    for (const auto& [name, program] :
         {std::pair{"fib", fib}, std::pair{"dot", dot}}) {
      runtime::SweepPoint p;
      p.kind = kind;
      p.config.window_size = 12;
      p.config.cluster_size = 4;
      p.config.mem.mode = memory::MemTimingMode::kMagic;
      p.program = program;
      p.workload = name;
      points.push_back(std::move(p));
    }
  }
  return points;
}

std::string ExportCsv(const std::vector<runtime::SweepOutcome>& outcomes) {
  std::ostringstream os;
  runtime::WriteCsv(os, outcomes);
  return os.str();
}

std::string ExportJson(const std::vector<runtime::SweepOutcome>& outcomes) {
  std::ostringstream os;
  runtime::WriteJson(os, outcomes);
  return os.str();
}

TEST(SweepJournal, OutcomeRecordRoundTrips) {
  runtime::SweepOutcome o;
  o.index = 7;
  o.kind = ProcessorKind::kHybrid;
  o.workload = "fib";
  o.ok = false;
  o.error = "r3 = 5, expected 8";
  o.attempts = 3;
  o.deadline_exceeded = true;
  o.attempt_errors = {"deadline exceeded", "deadline exceeded",
                      "r3 = 5, expected 8"};
  o.result.halted = true;
  o.result.cycles = 123;
  o.result.committed = 99;
  o.result.regs = {1, 2, 3, 4};
  o.result.stats.mispredictions = 5;
  o.result.stats.fault.injected = 2;

  persist::Encoder e;
  runtime::EncodeOutcome(e, o);
  persist::Decoder d(e.bytes());
  const runtime::SweepOutcome back = runtime::DecodeOutcome(d);
  EXPECT_TRUE(d.AtEnd());
  EXPECT_EQ(back.index, o.index);
  EXPECT_EQ(back.kind, o.kind);
  EXPECT_EQ(back.workload, o.workload);
  EXPECT_EQ(back.ok, o.ok);
  EXPECT_EQ(back.error, o.error);
  EXPECT_EQ(back.attempts, o.attempts);
  EXPECT_EQ(back.deadline_exceeded, o.deadline_exceeded);
  EXPECT_EQ(back.attempt_errors, o.attempt_errors);
  EXPECT_EQ(back.result.cycles, o.result.cycles);
  EXPECT_EQ(back.result.regs, o.result.regs);
  EXPECT_EQ(back.result.stats.mispredictions, 5u);
  EXPECT_EQ(back.result.stats.fault.injected, 2u);
}

TEST(SweepJournal, ResumeAfterPartialJournalIsByteIdentical) {
  const auto points = SmallSweep();
  for (const int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const TempDir tmp;
    const runtime::SweepRunner runner(
        {.num_threads = threads, .check_architectural_state = true});

    // The reference artifact: an uninterrupted journaled sweep.
    const std::string full_path = tmp.File("full.journal");
    const auto full = runner.RunJournaled(points, full_path);
    const std::string want_csv = ExportCsv(full.outcomes);
    const std::string want_json = ExportJson(full.outcomes);

    // Simulate a crash: keep only the header + the first 3 outcome records
    // of the journal, then resume from the truncated copy.
    const auto records = persist::ReadJournal(full_path);
    ASSERT_GT(records.size(), 4u);
    const std::string partial_path = tmp.File("partial.journal");
    {
      persist::JournalWriter w(partial_path, /*truncate=*/true);
      for (std::size_t i = 0; i < 4; ++i) {
        w.Append(records[i].type, records[i].payload);
      }
    }
    const auto resumed = runner.Resume(points, partial_path);
    EXPECT_EQ(ExportCsv(resumed.outcomes), want_csv);
    EXPECT_EQ(ExportJson(resumed.outcomes), want_json);

    // Resuming a *complete* journal re-runs nothing and still matches.
    const auto resumed_full = runner.Resume(points, full_path);
    EXPECT_EQ(ExportCsv(resumed_full.outcomes), want_csv);
    EXPECT_EQ(ExportJson(resumed_full.outcomes), want_json);
  }
}

TEST(SweepJournal, ResumeToleratesTornTail) {
  const auto points = SmallSweep();
  const TempDir tmp;
  const runtime::SweepRunner runner({.num_threads = 2});
  const std::string path = tmp.File("torn.journal");
  const auto full = runner.RunJournaled(points, path);
  const std::string want_csv = ExportCsv(full.outcomes);

  // Chop mid-record: the torn record is rediscovered by re-running its
  // point; everything before it is reused.
  const auto bytes = persist::ReadFileBytes(path);
  const std::vector<std::uint8_t> torn(bytes.begin(), bytes.end() - 7);
  persist::AtomicWriteFile(path, torn);
  const auto resumed = runner.Resume(points, path);
  EXPECT_EQ(ExportCsv(resumed.outcomes), want_csv);
}

TEST(SweepJournal, ResumeRejectsForeignJournal) {
  const auto points = SmallSweep();
  const TempDir tmp;
  const std::string path = tmp.File("foreign.journal");
  const runtime::SweepRunner runner({.num_threads = 1});
  (void)runner.RunJournaled(points, path);

  // Same journal, different sweep (one extra point): fingerprint mismatch.
  auto more = points;
  more.push_back(points.front());
  more.back().workload = "extra";
  EXPECT_THROW((void)runner.Resume(more, path), std::runtime_error);
}

TEST(SweepJournal, ResumeOnMissingJournalRunsFresh) {
  const auto points = SmallSweep();
  const TempDir tmp;
  const runtime::SweepRunner runner({.num_threads = 2});
  const auto fresh = runner.RunWithReport(points);
  const auto resumed = runner.Resume(points, tmp.File("never-written.journal"));
  EXPECT_EQ(ExportCsv(resumed.outcomes), ExportCsv(fresh.outcomes));
}

// --- Quarantine export fields ---------------------------------------------

TEST(SweepExport, QuarantineRecordsFaultSeedAndRetryHistory) {
  runtime::SweepOutcome o;
  o.index = 2;
  o.kind = ProcessorKind::kUltrascalarI;
  o.workload = "mix";
  o.ok = false;
  o.error = "final error";
  o.attempts = 2;
  o.attempt_errors = {"first error", "final error"};
  o.config.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::Random(4242, 0.01, 1000));
  const std::vector<runtime::SweepOutcome> outcomes = {o};

  const std::string csv = ExportCsv(outcomes);
  EXPECT_NE(csv.find("fault_seed=4242"), std::string::npos);
  EXPECT_NE(csv.find("attempts=2"), std::string::npos);
  EXPECT_NE(csv.find("error=final error"), std::string::npos);

  const std::string json = ExportJson(outcomes);
  EXPECT_NE(json.find("\"fault_seed\": 4242"), std::string::npos);
  EXPECT_NE(json.find("\"attempt_errors\": [\"first error\", \"final error\"]"),
            std::string::npos);
}

TEST(SweepExport, FaultFreeQuarantineKeepsHistoricalShape) {
  runtime::SweepOutcome o;
  o.index = 0;
  o.kind = ProcessorKind::kIdeal;
  o.workload = "fib";
  o.ok = false;
  o.error = "boom";
  o.attempts = 1;
  o.attempt_errors = {"boom"};
  const std::vector<runtime::SweepOutcome> outcomes = {o};
  const std::string csv = ExportCsv(outcomes);
  EXPECT_EQ(csv.find("fault_seed"), std::string::npos);
  const std::string json = ExportJson(outcomes);
  EXPECT_EQ(json.find("fault_seed"), std::string::npos);
  EXPECT_EQ(json.find("attempt_errors"), std::string::npos);
}

// --- Repro bundles --------------------------------------------------------

TEST(ReproBundle, FailedFaultPointReplaysStandalone) {
  // An unchecked fault-injection point: corruption reaches architectural
  // state, the oracle quarantines it, and the runner emits a bundle.
  const TempDir tmp;
  runtime::SweepPoint point;
  point.kind = ProcessorKind::kUltrascalarI;
  point.config.window_size = 32;
  point.config.mem.mode = memory::MemTimingMode::kMagic;
  point.config.datapath_eval = core::DatapathEval::kPacked;
  // This (seed, rate, workload) combination verifiably corrupts
  // architectural state: most injected faults land on empty stations or
  // unread operands, or are re-resolved before use, so the recipe matters.
  point.config.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::Random(424243, 0.05, 100'000));
  point.program = std::make_shared<isa::Program>(
      workloads::RandomMix({.num_instructions = 1024}));
  point.workload = "mix-fault";

  const runtime::SweepRunner runner({.num_threads = 1,
                                     .check_architectural_state = true,
                                     .bundle_dir = tmp.File("bundles"),
                                     .checkpoint_every = 64});
  const auto outcomes = runner.Run({point});
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_FALSE(outcomes[0].ok) << "fault plan unexpectedly harmless";

  // The bundle must replay with no access to the original sweep objects.
  const std::string bundle_path = tmp.File("bundles") + "/point-0";
  const runtime::ReproBundle bundle =
      runtime::ReadReproBundle(bundle_path);
  EXPECT_EQ(bundle.outcome.error, outcomes[0].error);
  EXPECT_EQ(bundle.outcome.workload, "mix-fault");
  ASSERT_NE(bundle.point.program, nullptr);
  ASSERT_NE(bundle.point.config.fault_plan, nullptr);
  EXPECT_EQ(bundle.point.config.fault_plan->provenance().seed, 424243u);
  ASSERT_TRUE(bundle.checkpoint.has_value());

  // Re-run from scratch: identical trajectory.
  const auto proc =
      core::MakeProcessor(bundle.point.kind, bundle.point.config);
  const core::RunResult replay = proc->Run(*bundle.point.program);
  EXPECT_EQ(replay.cycles, bundle.outcome.result.cycles);
  EXPECT_EQ(replay.committed, bundle.outcome.result.committed);
  EXPECT_EQ(replay.regs, bundle.outcome.result.regs);

  // Re-run from the bundled checkpoint: still identical.
  const core::RunResult from_ckpt =
      proc->RestoreCheckpoint(*bundle.point.program, *bundle.checkpoint);
  EXPECT_EQ(from_ckpt.cycles, bundle.outcome.result.cycles);
  EXPECT_EQ(from_ckpt.committed, bundle.outcome.result.committed);
  EXPECT_EQ(from_ckpt.regs, bundle.outcome.result.regs);
}

TEST(ReproBundle, CorruptBundleFileIsRejected) {
  const TempDir tmp;
  runtime::SweepPoint point;
  point.kind = ProcessorKind::kIdeal;
  point.config.mem.mode = memory::MemTimingMode::kMagic;
  point.program = std::make_shared<isa::Program>(workloads::Fibonacci(16));
  point.workload = "fib";
  runtime::SweepOutcome outcome;
  outcome.index = 0;
  outcome.kind = point.kind;
  outcome.workload = point.workload;
  const std::string bundle =
      runtime::WriteReproBundle(tmp.path(), point, outcome, nullptr);
  // Flip a byte in the framed program file.
  auto bytes = persist::ReadFileBytes(bundle + "/program.bin");
  bytes[bytes.size() / 2] ^= 0x40;
  persist::AtomicWriteFile(bundle + "/program.bin", bytes);
  EXPECT_THROW((void)runtime::ReadReproBundle(bundle), persist::FormatError);
}

}  // namespace
}  // namespace ultra
