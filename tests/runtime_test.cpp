// Tests for the runtime layer: ParallelFor, the deterministic SweepRunner,
// CSV/JSON export, the shared FunctionalSimCache, and CoreConfig::Validate.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/core.hpp"
#include "runtime/runtime.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

// --- ParallelFor ---------------------------------------------------------

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  constexpr std::size_t kCount = 257;
  std::vector<std::atomic<int>> seen(kCount);
  runtime::ParallelFor(4, kCount, [&](std::size_t i) { ++seen[i]; });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(seen[i].load(), 1);
}

TEST(ParallelFor, ZeroCountIsANoop) {
  runtime::ParallelFor(4, 0, [](std::size_t) { FAIL(); });
}

TEST(ParallelFor, RethrowsBodyException) {
  // ParallelForError derives from std::runtime_error, so callers that only
  // know "something threw" keep working.
  EXPECT_THROW(
      runtime::ParallelFor(4, 16,
                           [](std::size_t i) {
                             if (i == 7) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
}

TEST(ParallelFor, AggregatesEveryFailureAcrossWorkers) {
  std::atomic<int> ran{0};
  try {
    runtime::ParallelFor(4, 16, [&](std::size_t i) {
      ++ran;
      if (i == 3 || i == 7 || i == 11) {
        throw std::runtime_error("boom " + std::to_string(i));
      }
    });
    FAIL() << "expected ParallelForError";
  } catch (const runtime::ParallelForError& e) {
    EXPECT_EQ(ran.load(), 16);  // Failures never abort the loop.
    ASSERT_EQ(e.failures().size(), 3u);
    EXPECT_EQ(e.failures()[0].index, 3u);
    EXPECT_EQ(e.failures()[1].index, 7u);
    EXPECT_EQ(e.failures()[2].index, 11u);
    EXPECT_EQ(e.failures()[1].message, "boom 7");
    EXPECT_NE(std::string(e.what()).find("3 iterations failed"),
              std::string::npos);
  }
}

TEST(ParallelFor, SerialPathAggregatesToo) {
  std::atomic<int> ran{0};
  try {
    runtime::ParallelFor(1, 8, [&](std::size_t i) {
      ++ran;
      if (i % 4 == 0) throw std::runtime_error("bad");
    });
    FAIL() << "expected ParallelForError";
  } catch (const runtime::ParallelForError& e) {
    EXPECT_EQ(ran.load(), 8);
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].index, 0u);
    EXPECT_EQ(e.failures()[1].index, 4u);
  }
}

TEST(ParallelFor, DescribeCallbackLabelsFailures) {
  try {
    runtime::ParallelFor(
        4, 8,
        [](std::size_t i) {
          if (i == 2 || i == 5) throw std::runtime_error("boom");
        },
        [](std::size_t i) {
          return "workload-" + std::to_string(i) + " (UltrascalarI)";
        });
    FAIL() << "expected ParallelForError";
  } catch (const runtime::ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 2u);
    EXPECT_EQ(e.failures()[0].context, "workload-2 (UltrascalarI)");
    EXPECT_EQ(e.failures()[1].context, "workload-5 (UltrascalarI)");
    // what() names the point, not just the index.
    EXPECT_NE(std::string(e.what()).find("workload-2 (UltrascalarI)"),
              std::string::npos);
  }
}

TEST(ParallelFor, ThrowingDescribeNeverMasksTheFailure) {
  try {
    runtime::ParallelFor(
        2, 4, [](std::size_t i) { if (i == 1) throw std::runtime_error("x"); },
        [](std::size_t) -> std::string { throw std::runtime_error("label"); });
    FAIL() << "expected ParallelForError";
  } catch (const runtime::ParallelForError& e) {
    ASSERT_EQ(e.failures().size(), 1u);
    EXPECT_EQ(e.failures()[0].index, 1u);
    EXPECT_TRUE(e.failures()[0].context.empty());
  }
}

TEST(ParallelFor, SerialAndParallelAgree) {
  std::vector<int> serial(100), parallel(100);
  runtime::ParallelFor(1, serial.size(),
                       [&](std::size_t i) { serial[i] = int(i) * 3; });
  runtime::ParallelFor(4, parallel.size(),
                       [&](std::size_t i) { parallel[i] = int(i) * 3; });
  EXPECT_EQ(serial, parallel);
}

// --- SweepRunner ---------------------------------------------------------

std::vector<runtime::SweepPoint> SmallGrid() {
  const auto fib = std::make_shared<const isa::Program>(
      workloads::Fibonacci(10));
  const auto dot = std::make_shared<const isa::Program>(
      workloads::DotProduct(8));
  std::vector<runtime::SweepPoint> points;
  for (const auto kind :
       {core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
        core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid}) {
    for (const int window : {8, 32}) {
      runtime::SweepPoint p;
      p.kind = kind;
      p.config.window_size = window;
      p.config.cluster_size = 4;
      p.config.mem.mode = memory::MemTimingMode::kMagic;
      p.program = kind == core::ProcessorKind::kHybrid ? dot : fib;
      p.workload = p.program == fib ? "fib(10)" : "dot(8)";
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(SweepRunner, OutcomesKeepSubmissionOrder) {
  const auto points = SmallGrid();
  const auto outcomes = runtime::SweepRunner({.num_threads = 4}).Run(points);
  ASSERT_EQ(outcomes.size(), points.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    EXPECT_EQ(outcomes[i].index, i);
    EXPECT_EQ(outcomes[i].kind, points[i].kind);
    EXPECT_EQ(outcomes[i].workload, points[i].workload);
    EXPECT_TRUE(outcomes[i].ok) << outcomes[i].error;
    EXPECT_TRUE(outcomes[i].result.halted);
  }
}

TEST(SweepRunner, ExportIsIdenticalAtAnyThreadCount) {
  const auto points = SmallGrid();
  const auto one = runtime::SweepRunner({.num_threads = 1}).Run(points);
  const auto four = runtime::SweepRunner({.num_threads = 4}).Run(points);
  std::ostringstream csv1, csv4, json1, json4;
  runtime::WriteCsv(csv1, one);
  runtime::WriteCsv(csv4, four);
  runtime::WriteJson(json1, one);
  runtime::WriteJson(json4, four);
  EXPECT_EQ(csv1.str(), csv4.str());
  EXPECT_EQ(json1.str(), json4.str());
  EXPECT_NE(csv1.str().find("fib(10)"), std::string::npos);
}

TEST(SweepRunner, ArchitecturalStateCheckPassesOnCorrectCores) {
  const auto outcomes =
      runtime::SweepRunner(
          {.num_threads = 2, .check_architectural_state = true})
          .Run(SmallGrid());
  for (const auto& o : outcomes) EXPECT_TRUE(o.ok) << o.error;
}

TEST(SweepRunner, InvalidConfigFailsThePointNotTheSweep) {
  auto points = SmallGrid();
  points[1].config.window_size = 0;  // Validate() must reject this point.
  // Cache geometries the models cannot build must fail their point too,
  // not abort the process: a banked cache of 3 banks or of 0 ways in a
  // mode that accesses it, and empty cluster caches.
  points[3].config.mem.mode = memory::MemTimingMode::kBandwidthLimited;
  points[3].config.mem.cache.num_banks = 3;
  points[4].config.mem.mode = memory::MemTimingMode::kFatTree;
  points[4].config.mem.cache.ways = 0;
  points[5].config.mem.cluster_cache_leaves = 4;
  points[5].config.mem.cluster_cache_words = 0;
  // kMagic never builds the banked cache, so its geometry is irrelevant.
  points[6].config.mem.cache.num_banks = 3;
  // More registers than the ISA names used to abort the scalable
  // datapaths' constructors; a negative latency, to hang the access.
  points[2].config.num_regs = isa::kMaxLogicalRegisters + 1;  // USI.
  points[7].config.mem.magic_load_latency = -3;
  const auto outcomes =
      runtime::SweepRunner({.num_threads = 2, .max_attempts = 3}).Run(points);
  const std::pair<std::size_t, const char*> rejected[] = {
      {1, "window_size"},
      {2, "num_regs"},
      {3, "mem.cache.num_banks"},
      {4, "mem.cache.ways"},
      {5, "mem.cluster_cache_words"},
      {7, "mem.magic_load_latency"}};
  for (const auto& [index, field] : rejected) {
    EXPECT_FALSE(outcomes[index].ok) << field;
    EXPECT_NE(outcomes[index].error.find(field), std::string::npos)
        << outcomes[index].error;
    EXPECT_EQ(outcomes[index].attempts, 1) << field;  // Never retried.
  }
  for (const std::size_t ok : {0, 6}) {
    EXPECT_TRUE(outcomes[ok].ok) << outcomes[ok].error;
  }
}

TEST(SweepRunner, HardenedSweepQuarantinesHungThrowingAndMismatchedPoints) {
  const auto fib = std::make_shared<const isa::Program>(
      workloads::Fibonacci(10));
  const auto spin = std::make_shared<const isa::Program>(
      isa::AssembleOrDie("loop: jmp loop\n"));
  std::vector<runtime::SweepPoint> points(5);
  for (auto& p : points) {
    p.program = fib;
    p.workload = "fib(10)";
    p.config.mem.mode = memory::MemTimingMode::kMagic;
  }
  // Point 1 hangs: an infinite loop with an effectively unbounded cycle
  // budget, so only the deadline watchdog can end it.
  points[1].program = spin;
  points[1].workload = "spin";
  points[1].config.max_cycles = ~std::uint64_t{0};
  // Point 2 throws: Validate() rejects the config inside Run().
  points[2].config.window_size = 0;
  // Point 3 mismatches the oracle: too few cycles to reach halt.
  points[3].config.max_cycles = 4;

  runtime::SweepOptions opt;
  opt.num_threads = 2;
  opt.check_architectural_state = true;
  opt.point_deadline_seconds = 0.15;
  opt.max_attempts = 2;
  opt.retry_backoff_seconds = 0.001;
  const auto outcomes = runtime::SweepRunner(opt).Run(points);
  ASSERT_EQ(outcomes.size(), 5u);

  for (const std::size_t healthy : {std::size_t{0}, std::size_t{4}}) {
    EXPECT_TRUE(outcomes[healthy].ok) << outcomes[healthy].error;
    EXPECT_EQ(outcomes[healthy].attempts, 1);
    EXPECT_FALSE(outcomes[healthy].deadline_exceeded);
  }
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_TRUE(outcomes[1].deadline_exceeded);
  EXPECT_EQ(outcomes[1].attempts, 2);  // Deadline hits are retried.
  EXPECT_EQ(outcomes[1].attempt_errors.size(), 2u);
  EXPECT_NE(outcomes[1].error.find("deadline exceeded"), std::string::npos);
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_EQ(outcomes[2].attempts, 1);  // Invalid configs are not retried.
  EXPECT_NE(outcomes[2].error.find("window_size"), std::string::npos);
  EXPECT_FALSE(outcomes[3].ok);
  EXPECT_EQ(outcomes[3].attempts, 1);  // Oracle mismatches are not retried.
  EXPECT_NE(outcomes[3].error.find("functional reference"),
            std::string::npos);

  const auto bad = runtime::Quarantine(outcomes);
  ASSERT_EQ(bad.size(), 3u);
  EXPECT_EQ(bad[0]->index, 1u);
  EXPECT_EQ(bad[1]->index, 2u);
  EXPECT_EQ(bad[2]->index, 3u);

  std::ostringstream csv, json;
  runtime::WriteCsv(csv, outcomes);
  runtime::WriteJson(json, outcomes);
  EXPECT_NE(csv.str().find("# quarantine: 3 failed points"),
            std::string::npos);
  EXPECT_NE(csv.str().find("deadline exceeded"), std::string::npos);
  EXPECT_NE(json.str().find("\"quarantine\": ["), std::string::npos);
  EXPECT_NE(json.str().find("\"deadline_exceeded\": true"),
            std::string::npos);
  EXPECT_NE(json.str().find("\"workload\": \"spin\""), std::string::npos);
}

TEST(SweepRunner, NullProgramFailsWithoutRetry) {
  std::vector<runtime::SweepPoint> points(1);
  points[0].workload = "null";
  runtime::SweepOptions opt;
  opt.num_threads = 1;
  opt.max_attempts = 3;
  opt.retry_backoff_seconds = 0.0;
  const auto outcomes = runtime::SweepRunner(opt).Run(points);
  EXPECT_FALSE(outcomes[0].ok);
  EXPECT_EQ(outcomes[0].attempts, 1);
  EXPECT_NE(outcomes[0].error.find("null program"), std::string::npos);
}

TEST(SweepRunner, MapReturnsResultsInIndexOrder) {
  const runtime::SweepRunner runner({.num_threads = 4});
  const auto squares = runner.Map<std::size_t>(
      64, [](std::size_t i) { return i * i; });
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

// --- FunctionalSimCache --------------------------------------------------

TEST(FunctionalSimCache, SecondRequestIsAHitOnTheSameObject) {
  core::FunctionalSimCache cache;
  const auto program = workloads::Fibonacci(12);
  const auto a = cache.Get(program, isa::kDefaultLogicalRegisters);
  const auto b = cache.Get(program, isa::kDefaultLogicalRegisters);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // Cached: literally the same result object.
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_TRUE(a->halted);
}

TEST(FunctionalSimCache, KeysOnContentNotIdentity) {
  core::FunctionalSimCache cache;
  const auto a = cache.Get(workloads::Fibonacci(12), 32);
  const auto b = cache.Get(workloads::Fibonacci(12), 32);  // Fresh object.
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FunctionalSimCache, DistinguishesRegCountAndProgram) {
  core::FunctionalSimCache cache;
  const auto program = workloads::Fibonacci(12);
  const auto a = cache.Get(program, 32);
  const auto b = cache.Get(program, 16);
  const auto c = cache.Get(workloads::DotProduct(8), 32);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(FunctionalSimCache, ClearDropsEntries) {
  core::FunctionalSimCache cache;
  const auto program = workloads::Fibonacci(12);
  (void)cache.Get(program, 32);
  cache.Clear();
  (void)cache.Get(program, 32);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(FunctionalSimCache, EvictsLeastRecentlyUsedBeyondTheBound) {
  core::FunctionalSimCache cache;
  cache.SetMaxEntries(2);
  const auto a = cache.Get(workloads::Fibonacci(5), 32);
  const auto b = cache.Get(workloads::Fibonacci(6), 32);
  EXPECT_EQ(cache.size(), 2u);
  (void)cache.Get(workloads::Fibonacci(5), 32);  // Touch A: B becomes LRU.
  (void)cache.Get(workloads::Fibonacci(7), 32);  // Evicts B, keeps A.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  const auto a2 = cache.Get(workloads::Fibonacci(5), 32);
  EXPECT_EQ(a2.get(), a.get());  // A survived the eviction.
  EXPECT_EQ(cache.stats().misses, 3u);
  const auto b2 = cache.Get(workloads::Fibonacci(6), 32);  // Re-simulated.
  EXPECT_NE(b2.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
}

TEST(FunctionalSimCache, ShrinkingTheBoundEvictsImmediately) {
  core::FunctionalSimCache cache;
  (void)cache.Get(workloads::Fibonacci(5), 32);
  (void)cache.Get(workloads::Fibonacci(6), 32);
  (void)cache.Get(workloads::Fibonacci(7), 32);
  EXPECT_EQ(cache.size(), 3u);
  cache.SetMaxEntries(1);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  // The survivor is the most recently used entry.
  (void)cache.Get(workloads::Fibonacci(7), 32);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(FunctionalSimCache, BoundComesFromTheEnvironment) {
  ::setenv("ULTRA_FNSIM_CACHE_ENTRIES", "3", 1);
  core::FunctionalSimCache small;
  EXPECT_EQ(small.max_entries(), 3u);
  ::unsetenv("ULTRA_FNSIM_CACHE_ENTRIES");
  core::FunctionalSimCache fresh;
  EXPECT_EQ(fresh.max_entries(),
            core::FunctionalSimCache::kDefaultMaxEntries);
}

TEST(FunctionalSimCache, ConcurrentGetsConverge) {
  core::FunctionalSimCache cache;
  const auto program = workloads::Fibonacci(16);
  std::vector<std::shared_ptr<const core::FunctionalResult>> results(8);
  runtime::ParallelFor(8, results.size(), [&](std::size_t i) {
    results[i] = cache.Get(program, 32);
  });
  for (const auto& r : results) EXPECT_EQ(r.get(), results[0].get());
}

// --- CoreConfig::Validate ------------------------------------------------

TEST(ValidateConfig, AcceptsDefaults) {
  EXPECT_NO_THROW(core::CoreConfig{}.Validate());
  EXPECT_NO_THROW(core::CoreConfig{}.Validate(/*for_hybrid=*/true));
}

TEST(ValidateConfig, RejectsDegenerateFields) {
  const auto expect_rejected = [](auto mutate) {
    core::CoreConfig cfg;
    mutate(cfg);
    EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  };
  expect_rejected([](core::CoreConfig& c) { c.window_size = 0; });
  expect_rejected([](core::CoreConfig& c) { c.window_size = -4; });
  expect_rejected([](core::CoreConfig& c) { c.num_regs = 0; });
  // The ISA names 64 registers; the scalable datapaths assert on more.
  for (const auto kind :
       {core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
        core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid}) {
    core::CoreConfig cfg;
    cfg.num_regs = isa::kMaxLogicalRegisters + 1;
    EXPECT_THROW((void)core::MakeProcessor(kind, cfg), std::invalid_argument)
        << core::ProcessorKindName(kind);
    cfg.num_regs = isa::kMaxLogicalRegisters;
    EXPECT_NO_THROW((void)core::MakeProcessor(kind, cfg))
        << core::ProcessorKindName(kind);
  }
  expect_rejected([](core::CoreConfig& c) { c.max_cycles = 0; });
  expect_rejected([](core::CoreConfig& c) { c.num_alus = -1; });
  expect_rejected([](core::CoreConfig& c) { c.fetch_width = -1; });
  expect_rejected(
      [](core::CoreConfig& c) { c.pipeline_levels_per_stage = -1; });
  // Cache geometries the models cannot build, once their role is in use.
  expect_rejected([](core::CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kBandwidthLimited;
    c.mem.cache.num_banks = 3;
  });
  expect_rejected([](core::CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kButterfly;
    c.mem.cache.ways = 0;
  });
  expect_rejected([](core::CoreConfig& c) {
    c.mem.cluster_cache_leaves = 4;
    c.mem.cluster_cache_words = 0;
  });
  // Negative latencies of every memory role in use, each named.
  const auto expect_named = [](const char* field, auto mutate) {
    core::CoreConfig cfg;
    mutate(cfg);
    try {
      cfg.Validate();
      ADD_FAILURE() << field << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  expect_named("mem.cache.hit_latency", [](core::CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kFatTree;
    c.mem.cache.hit_latency = -1;
  });
  expect_named("mem.cache.miss_penalty", [](core::CoreConfig& c) {
    c.mem.mode = memory::MemTimingMode::kBandwidthLimited;
    c.mem.cache.miss_penalty = -10;
  });
  expect_named("mem.cluster_cache_hit_latency", [](core::CoreConfig& c) {
    c.mem.cluster_cache_leaves = 4;
    c.mem.cluster_cache_hit_latency = -1;
  });
  expect_named("mem.magic_load_latency",
               [](core::CoreConfig& c) { c.mem.magic_load_latency = -2; });
  expect_named("mem.magic_store_latency",
               [](core::CoreConfig& c) { c.mem.magic_store_latency = -1; });
  expect_named("num_regs", [](core::CoreConfig& c) {
    c.num_regs = isa::kMaxLogicalRegisters + 1;
  });
  // The banked cache takes any number of sets per bank and lines below
  // 4 bytes, and kMagic, which never builds it, ignores its geometry.
  {
    core::CoreConfig cfg;
    cfg.mem.mode = memory::MemTimingMode::kFatTree;
    cfg.mem.cache.sets_per_bank = 3;
    cfg.mem.cache.line_bytes = 2;
    EXPECT_NO_THROW(cfg.Validate());
    cfg.mem.mode = memory::MemTimingMode::kMagic;
    cfg.mem.cache.num_banks = 3;
    cfg.mem.cache.ways = 0;
    EXPECT_NO_THROW(cfg.Validate());
  }
}

TEST(ValidateConfig, HybridClusterSizeMustFitTheWindow) {
  core::CoreConfig cfg;
  cfg.window_size = 16;
  cfg.cluster_size = 32;
  EXPECT_NO_THROW(cfg.Validate());  // Non-hybrid cores ignore cluster_size.
  EXPECT_THROW(cfg.Validate(/*for_hybrid=*/true), std::invalid_argument);
  cfg.cluster_size = 0;
  EXPECT_THROW(cfg.Validate(/*for_hybrid=*/true), std::invalid_argument);
  cfg.cluster_size = 16;
  EXPECT_NO_THROW(cfg.Validate(/*for_hybrid=*/true));
}

TEST(ValidateConfig, RejectsDegenerateHierarchyGeometry) {
  const auto expect_rejected = [](auto mutate) {
    core::CoreConfig cfg;
    cfg.mem.hierarchy.l1d.enabled = true;
    mutate(cfg);
    EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  };
  expect_rejected([](core::CoreConfig& c) { c.mem.hierarchy.l1d.sets = 0; });
  expect_rejected([](core::CoreConfig& c) { c.mem.hierarchy.l1d.sets = 3; });
  expect_rejected([](core::CoreConfig& c) { c.mem.hierarchy.l1d.ways = 0; });
  expect_rejected(
      [](core::CoreConfig& c) { c.mem.hierarchy.l1d.block_bytes = 2; });
  expect_rejected(
      [](core::CoreConfig& c) { c.mem.hierarchy.l1d.block_bytes = 48; });
  expect_rejected(
      [](core::CoreConfig& c) { c.mem.hierarchy.l1d.hit_latency = 0; });
  expect_rejected(
      [](core::CoreConfig& c) { c.mem.hierarchy.l1d.miss_latency = 0; });
  expect_rejected([](core::CoreConfig& c) {
    c.mem.hierarchy.l1i.enabled = true;
    c.mem.hierarchy.l1i.sets = 7;
  });
  // Geometry of a disabled level is irrelevant and must NOT be rejected.
  {
    core::CoreConfig cfg;
    cfg.mem.hierarchy.l1i.sets = 7;
    EXPECT_NO_THROW(cfg.Validate());
  }
  expect_rejected(
      [](core::CoreConfig& c) { c.mem.hierarchy.prefetch.depth = -1; });
  expect_rejected([](core::CoreConfig& c) {
    c.mem.hierarchy.prefetch.depth = 1;
    c.mem.hierarchy.prefetch.table_entries = 0;
  });
  // Prefetching needs a data-side level to fill.
  {
    core::CoreConfig cfg;
    cfg.mem.hierarchy.prefetch.depth = 2;
    EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  }
  // The hierarchy and the per-cluster caches are mutually exclusive
  // locality models.
  {
    core::CoreConfig cfg;
    cfg.mem.hierarchy.l1d.enabled = true;
    cfg.mem.cluster_cache_leaves = 4;
    EXPECT_THROW(cfg.Validate(), std::invalid_argument);
  }
  // A fully-specified valid hierarchy passes.
  {
    core::CoreConfig cfg;
    cfg.mem.hierarchy.l1i.enabled = true;
    cfg.mem.hierarchy.l1d.enabled = true;
    cfg.mem.hierarchy.l2.enabled = true;
    cfg.mem.hierarchy.prefetch.depth = 4;
    EXPECT_NO_THROW(cfg.Validate());
  }
}

TEST(ValidateConfig, MakeProcessorRejectsBadConfigs) {
  core::CoreConfig cfg;
  cfg.window_size = 0;
  EXPECT_THROW(
      core::MakeProcessor(core::ProcessorKind::kUltrascalarI, cfg),
      std::invalid_argument);
  cfg.window_size = 8;
  cfg.cluster_size = 64;
  EXPECT_THROW(core::MakeProcessor(core::ProcessorKind::kHybrid, cfg),
               std::invalid_argument);
  // The same cluster_size is fine for a non-hybrid core.
  EXPECT_NO_THROW(
      core::MakeProcessor(core::ProcessorKind::kUltrascalarII, cfg));
}

}  // namespace
}  // namespace ultra
