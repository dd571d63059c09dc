// Tests for the memory substrate: backing store, the cache model in each of
// its roles, fat-tree network, bandwidth profiles, branch predictors, trace
// cache, and the MemorySystem facade in every timing mode.
#include <gtest/gtest.h>

#include <random>

#include "memory/memory.hpp"

namespace ultra::memory {
namespace {

// --- Backing store -------------------------------------------------------------

TEST(BackingStore, ReadsZeroWhenUnwritten) {
  BackingStore store;
  EXPECT_EQ(store.ReadWord(0), 0u);
  EXPECT_EQ(store.ReadWord(1234), 0u);
}

TEST(BackingStore, RoundTripsAndAligns) {
  BackingStore store;
  store.WriteWord(100, 7);
  EXPECT_EQ(store.ReadWord(100), 7u);
  EXPECT_EQ(store.ReadWord(101), 7u);  // Same aligned word.
  EXPECT_EQ(store.ReadWord(103), 7u);
  EXPECT_EQ(store.ReadWord(104), 0u);
  store.WriteWord(102, 9);  // Aligns down to 100.
  EXPECT_EQ(store.ReadWord(100), 9u);
}

TEST(BackingStore, LoadReplacesContents) {
  BackingStore store;
  store.WriteWord(0, 1);
  store.Load({{4, 2}});
  EXPECT_EQ(store.ReadWord(0), 0u);
  EXPECT_EQ(store.ReadWord(4), 2u);
}

int CyclesToComplete(MemorySystem& mem, std::uint64_t id) {
  for (int cycles = 1; cycles <= 200; ++cycles) {
    mem.Tick();
    for (const auto& r : mem.DrainCompleted()) {
      if (r.id == id) return cycles;
    }
  }
  return -1;
}

// --- Section 2's banked cache ----------------------------------------------

TEST(Cache, ConsecutiveLinesMapToDifferentBanks) {
  CacheConfig cfg;
  cfg.num_banks = 8;
  cfg.line_bytes = 16;
  const CacheLevelModel cache(cfg);
  for (int line = 0; line < 8; ++line) {
    EXPECT_EQ(cache.BankOf(static_cast<isa::Word>(line * 16)), line);
  }
  EXPECT_EQ(cache.BankOf(8 * 16), 0);  // Wraps.
}

TEST(Cache, MissThenHit) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.cache.hit_latency = 1;
  cfg.cache.miss_penalty = 10;
  MemorySystem mem(cfg, 4);
  mem.Reset({});
  // One cycle to be admitted, then the bank access: a cold miss, a hit,
  // and a hit on another word of the same line.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 64)), 1 + 11);
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 64)), 1 + 1);
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 68)), 1 + 1);
  // A store miss allocates too: the load after it hits.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitStore(0, 128, 5)), 1 + 11);
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 128)), 1 + 1);
  const CacheLevelModel* cache = mem.cache(CacheRole::kBanked);
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->stats().hits, 3u);
  EXPECT_EQ(cache->stats().misses, 2u);
}

TEST(Cache, BankConflictWithinACycle) {
  CacheConfig cfg;
  cfg.num_banks = 4;
  cfg.line_bytes = 16;
  cfg.ports_per_bank = 1;
  CacheLevelModel cache(cfg);
  cache.NewCycle();
  EXPECT_TRUE(cache.ClaimPort(0));
  // Same bank (same line) again in the same cycle: conflict.
  EXPECT_FALSE(cache.ClaimPort(4));
  // A different bank still has ports.
  EXPECT_TRUE(cache.ClaimPort(16));
  cache.NewCycle();
  EXPECT_TRUE(cache.ClaimPort(4));  // Retried next cycle.
  EXPECT_EQ(cache.stats().bank_conflicts, 1u);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);

  // In the memory system the port check precedes the lookup: the access
  // that conflicts is neither a hit nor a miss until its retry hits.
  MemoryConfig mem_cfg;
  mem_cfg.mode = MemTimingMode::kBandwidthLimited;
  mem_cfg.cache = cfg;
  MemorySystem mem(mem_cfg, 4);
  mem.Reset({});
  mem.SubmitLoad(0, 0);
  const auto retried = mem.SubmitLoad(1, 4);  // Same bank, same cycle.
  EXPECT_EQ(CyclesToComplete(mem, retried), 2 + cfg.hit_latency);
  const CacheLevelStats& stats = mem.cache(CacheRole::kBanked)->stats();
  EXPECT_EQ(stats.bank_conflicts, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(Cache, LruEvictionWithinSet) {
  // A geometry only the banked cache accepts: 3 sets per bank, 2-byte
  // lines. Lines 0, 6 and 12 (bytes 0, 12, 24) share bank 0, set 0.
  CacheConfig cfg;
  cfg.num_banks = 2;
  cfg.sets_per_bank = 3;
  cfg.ways = 2;
  cfg.line_bytes = 2;
  CacheLevelModel cache(cfg);
  // The banked cache's policy: every miss allocates.
  const auto access = [&cache](isa::Word addr) {
    if (cache.Lookup(addr, /*is_store=*/false).hit) return true;
    cache.Fill(addr, /*dirty=*/false, /*prefetched=*/false);
    return false;
  };
  EXPECT_FALSE(access(0));   // Miss, fills a way.
  EXPECT_FALSE(access(12));  // Miss, fills the other.
  EXPECT_FALSE(access(2));   // Bank 1: no effect on bank 0's set.
  EXPECT_TRUE(access(0));    // Hit: 0 is now MRU.
  EXPECT_FALSE(access(24));  // Evicts line 6 (LRU).
  EXPECT_TRUE(access(0));
  EXPECT_FALSE(access(12));  // Was evicted.
}

TEST(Cache, FlushDropsEverything) {
  CacheLevelModel cache(CacheConfig{});
  cache.Fill(0, /*dirty=*/false, /*prefetched=*/false);
  ASSERT_TRUE(cache.Contains(0));
  cache.Flush();
  EXPECT_FALSE(cache.Lookup(0, /*is_store=*/false).hit);
}

// --- Bandwidth profiles -----------------------------------------------------------

TEST(Bandwidth, RegimeShapes) {
  const double n = 4096;
  EXPECT_NEAR(BandwidthProfile::ForRegime(BandwidthRegime::kConstant)(n),
              1.0, 1e-9);
  EXPECT_NEAR(BandwidthProfile::ForRegime(BandwidthRegime::kSqrt)(n), 64.0,
              1e-9);
  EXPECT_NEAR(BandwidthProfile::ForRegime(BandwidthRegime::kLinear)(n),
              4096.0, 1e-9);
  EXPECT_LT(BandwidthProfile::ForRegime(BandwidthRegime::kSqrtMinus)(n),
            64.0);
  EXPECT_GT(BandwidthProfile::ForRegime(BandwidthRegime::kSqrtPlus)(n),
            64.0);
}

// --- Fat tree -----------------------------------------------------------------------

TEST(FatTree, SingleMessageTakesOneCyclePerLevel) {
  FatTreeNetwork net(8, BandwidthProfile::ForRegime(BandwidthRegime::kLinear));
  EXPECT_EQ(net.levels(), 3);
  net.SubmitUp(3, 42);
  int cycles = 0;
  std::vector<std::uint64_t> arrived;
  while (arrived.empty() && cycles < 10) {
    net.Tick();
    ++cycles;
    arrived = net.DrainRoot();
  }
  ASSERT_EQ(arrived.size(), 1u);
  EXPECT_EQ(arrived[0], 42u);
  EXPECT_EQ(cycles, net.levels() + 1);  // One hop per level + memory port.
}

TEST(FatTree, DownDeliveryReachesTheRightLeaf) {
  FatTreeNetwork net(8, BandwidthProfile::ForRegime(BandwidthRegime::kLinear));
  net.SubmitDown(5, 7);
  std::vector<FatTreeNetwork::Delivery> got;
  for (int i = 0; i < 10 && got.empty(); ++i) {
    net.Tick();
    got = net.DrainLeaves();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].leaf, 5);
  EXPECT_EQ(got[0].id, 7u);
}

TEST(FatTree, ThinRootLinkSerializesTraffic) {
  // Constant bandwidth: the root link carries 1 message per cycle, so 8
  // simultaneous messages take ~8 extra cycles to drain.
  FatTreeNetwork thin(8,
                      BandwidthProfile::ForRegime(BandwidthRegime::kConstant));
  FatTreeNetwork fat(8, BandwidthProfile::ForRegime(BandwidthRegime::kLinear));
  for (int leaf = 0; leaf < 8; ++leaf) {
    thin.SubmitUp(leaf, static_cast<std::uint64_t>(leaf));
    fat.SubmitUp(leaf, static_cast<std::uint64_t>(leaf));
  }
  const auto drain = [](FatTreeNetwork& net) {
    int cycles = 0;
    std::size_t total = 0;
    while (total < 8 && cycles < 100) {
      net.Tick();
      ++cycles;
      total += net.DrainRoot().size();
    }
    return cycles;
  };
  const int thin_cycles = drain(thin);
  const int fat_cycles = drain(fat);
  EXPECT_EQ(fat_cycles, 4);
  EXPECT_GE(thin_cycles, 8);
}

TEST(FatTree, LinkCapacityFollowsTheProfile) {
  FatTreeNetwork net(64, BandwidthProfile::ForRegime(BandwidthRegime::kSqrt));
  EXPECT_EQ(net.LinkCapacity(64), 8);
  EXPECT_EQ(net.LinkCapacity(16), 4);
  EXPECT_EQ(net.LinkCapacity(4), 2);
  EXPECT_EQ(net.LinkCapacity(1), 1);
}

// --- Branch predictors -----------------------------------------------------------

TEST(Predictors, NotTakenPredictsJumpsTaken) {
  NotTakenPredictor p;
  EXPECT_FALSE(p.PredictTaken(0, isa::MakeBranch(isa::Opcode::kBeq, 0, 0, 5)));
  EXPECT_TRUE(p.PredictTaken(0, isa::MakeJmp(3)));
}

TEST(Predictors, BtfnPredictsBackwardTaken) {
  BtfnPredictor p;
  EXPECT_TRUE(p.PredictTaken(10, isa::MakeBranch(isa::Opcode::kBne, 0, 0, 3)));
  EXPECT_FALSE(
      p.PredictTaken(10, isa::MakeBranch(isa::Opcode::kBne, 0, 0, 20)));
}

TEST(Predictors, TwoBitSaturates) {
  TwoBitPredictor p(16);
  const auto br = isa::MakeBranch(isa::Opcode::kBeq, 0, 0, 5);
  EXPECT_FALSE(p.PredictTaken(3, br));  // Initial state: weakly not-taken.
  p.Update(3, true);
  EXPECT_TRUE(p.PredictTaken(3, br));
  p.Update(3, true);
  p.Update(3, true);
  p.Update(3, false);  // One not-taken does not flip a saturated counter.
  EXPECT_TRUE(p.PredictTaken(3, br));
  p.Update(3, false);
  p.Update(3, false);
  EXPECT_FALSE(p.PredictTaken(3, br));
}

TEST(Predictors, OracleReplaysPerPcSequences) {
  std::vector<std::vector<std::uint8_t>> outcomes(4);
  outcomes[2] = {1, 0, 1};
  OraclePredictor p(outcomes);
  const auto br = isa::MakeBranch(isa::Opcode::kBlt, 0, 0, 0);
  EXPECT_TRUE(p.PredictTaken(2, br));
  EXPECT_FALSE(p.PredictTaken(2, br));
  EXPECT_TRUE(p.PredictTaken(2, br));
  EXPECT_FALSE(p.PredictTaken(2, br));  // Exhausted: default not-taken.
}

TEST(Predictors, CloneResetsDynamicState) {
  std::vector<std::vector<std::uint8_t>> outcomes(1);
  outcomes[0] = {1};
  OraclePredictor p(outcomes);
  const auto br = isa::MakeBranch(isa::Opcode::kBlt, 0, 0, 0);
  EXPECT_TRUE(p.PredictTaken(0, br));
  auto clone = p.Clone();
  EXPECT_TRUE(clone->PredictTaken(0, br));  // Fresh index.
}

// --- Trace cache -------------------------------------------------------------------

TEST(TraceCache, MissThenHit) {
  TraceCache tc(4, 3, 16);
  EXPECT_EQ(tc.Lookup(10, 0b101), nullptr);
  tc.Install(10, 0b101, {10, 11, 12});
  const auto* trace = tc.Lookup(10, 0b101);
  ASSERT_NE(trace, nullptr);
  EXPECT_EQ(trace->size(), 3u);
  EXPECT_EQ(tc.Lookup(10, 0b100), nullptr);  // Different outcome vector.
  EXPECT_EQ(tc.stats().hits, 1u);
  EXPECT_EQ(tc.stats().misses, 2u);
}

TEST(TraceCache, LruEviction) {
  TraceCache tc(2, 3, 16);
  tc.Install(1, 0, {1});
  tc.Install(2, 0, {2});
  ASSERT_NE(tc.Lookup(1, 0), nullptr);  // Touch 1: 2 becomes LRU.
  tc.Install(3, 0, {3});                // Evicts 2.
  EXPECT_NE(tc.Lookup(1, 0), nullptr);
  EXPECT_EQ(tc.Lookup(2, 0), nullptr);
  EXPECT_NE(tc.Lookup(3, 0), nullptr);
}

// --- MemorySystem facade -------------------------------------------------------------

TEST(MemorySystem, MagicModeFixedLatency) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kMagic;
  cfg.magic_load_latency = 3;
  MemorySystem mem(cfg, 8);
  mem.Reset({{100, 55}});
  const auto id = mem.SubmitLoad(0, 100);
  std::vector<MemResponse> got;
  int cycles = 0;
  while (got.empty() && cycles < 10) {
    mem.Tick();
    ++cycles;
    got = mem.DrainCompleted();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, id);
  EXPECT_EQ(got[0].value, 55u);
  EXPECT_EQ(cycles, 3);
}

TEST(MemorySystem, StoreIsArchitecturallyImmediate) {
  MemoryConfig cfg;
  MemorySystem mem(cfg, 8);
  mem.Reset({});
  mem.SubmitStore(0, 64, 9);
  EXPECT_EQ(mem.ReadWord(64), 9u);  // Visible before the timing completes.
}

TEST(MemorySystem, BandwidthLimitThrottlesCompletionRate) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.regime = BandwidthRegime::kConstant;  // 1 op/cycle.
  cfg.cache.num_banks = 16;
  MemorySystem mem(cfg, 16);
  mem.Reset({});
  for (int i = 0; i < 8; ++i) {
    mem.SubmitLoad(i, static_cast<isa::Word>(i * 64));
  }
  int cycles = 0;
  std::size_t done = 0;
  while (done < 8 && cycles < 100) {
    mem.Tick();
    ++cycles;
    done += mem.DrainCompleted().size();
  }
  EXPECT_GE(cycles, 8);  // At most one admission per cycle.
}

TEST(MemorySystem, LinearBandwidthCompletesInParallel) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.regime = BandwidthRegime::kLinear;
  cfg.cache.num_banks = 16;
  MemorySystem mem(cfg, 16);
  mem.Reset({});
  for (int i = 0; i < 8; ++i) {
    mem.SubmitLoad(i, static_cast<isa::Word>(i * 64));
  }
  int cycles = 0;
  std::size_t done = 0;
  while (done < 8 && cycles < 100) {
    mem.Tick();
    ++cycles;
    done += mem.DrainCompleted().size();
  }
  EXPECT_LE(cycles, 15);  // All admitted the same cycle; only misses serialize.
}

TEST(MemorySystem, FatTreeModeDeliversCorrectValues) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kFatTree;
  cfg.regime = BandwidthRegime::kSqrt;
  MemorySystem mem(cfg, 16);
  mem.Reset({{8, 123}});
  const auto id = mem.SubmitLoad(3, 8);
  std::vector<MemResponse> got;
  for (int i = 0; i < 50 && got.empty(); ++i) {
    mem.Tick();
    got = mem.DrainCompleted();
  }
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, id);
  EXPECT_EQ(got[0].value, 123u);
}

TEST(MemorySystem, FatTreeRoundTripCostsAtLeastTwoTreeDepths) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kFatTree;
  cfg.regime = BandwidthRegime::kLinear;
  MemorySystem mem(cfg, 64);  // 6 levels.
  mem.Reset({});
  mem.SubmitLoad(0, 0);
  int cycles = 0;
  while (mem.DrainCompleted().empty() && cycles < 60) {
    mem.Tick();
    ++cycles;
  }
  EXPECT_GE(cycles, 2 * 6);
}

TEST(MemorySystem, ManyRandomOpsAreAllCompletedExactlyOnce) {
  for (const auto mode :
       {MemTimingMode::kMagic, MemTimingMode::kBandwidthLimited,
        MemTimingMode::kFatTree}) {
    MemoryConfig cfg;
    cfg.mode = mode;
    cfg.regime = BandwidthRegime::kSqrt;
    MemorySystem mem(cfg, 16);
    mem.Reset({});
    std::mt19937 rng(5);
    std::set<std::uint64_t> outstanding;
    for (int i = 0; i < 200; ++i) {
      const auto addr = static_cast<isa::Word>((rng() % 256) * 4);
      if (rng() % 2) {
        outstanding.insert(mem.SubmitLoad(static_cast<int>(rng() % 16), addr));
      } else {
        outstanding.insert(
            mem.SubmitStore(static_cast<int>(rng() % 16), addr, rng()));
      }
    }
    int cycles = 0;
    while (!outstanding.empty() && cycles < 10000) {
      mem.Tick();
      ++cycles;
      for (const auto& resp : mem.DrainCompleted()) {
        ASSERT_EQ(outstanding.erase(resp.id), 1u)
            << "duplicate or unknown completion";
      }
    }
    EXPECT_TRUE(outstanding.empty()) << "mode " << static_cast<int>(mode);
  }
}

// --- Distributed per-cluster caches (Section 7) ------------------------------

TEST(ClusterCache, SecondLoadFromSameClusterHitsLocally) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.regime = BandwidthRegime::kConstant;
  cfg.cluster_cache_leaves = 4;
  MemorySystem mem(cfg, 16);
  mem.Reset({{64, 9}});
  const auto drain_one = [&](std::uint64_t id) {
    for (int i = 0; i < 100; ++i) {
      mem.Tick();
      for (const auto& r : mem.DrainCompleted()) {
        if (r.id == id) return r;
      }
    }
    ADD_FAILURE() << "request never completed";
    return MemResponse{};
  };
  const auto hits = [&mem](int cluster) {
    return mem.cache(CacheRole::kCluster, cluster)->stats().hits;
  };
  const auto first = drain_one(mem.SubmitLoad(1, 64));
  EXPECT_EQ(first.value, 9u);
  EXPECT_EQ(hits(0), 0u);
  const auto second = drain_one(mem.SubmitLoad(2, 64));  // Same cluster.
  EXPECT_EQ(second.value, 9u);
  EXPECT_EQ(hits(0), 1u);
  // A different cluster misses its own local cache.
  drain_one(mem.SubmitLoad(9, 64));
  EXPECT_EQ(hits(2), 0u);
  EXPECT_EQ(mem.cache(CacheRole::kCluster, 2)->stats().misses, 1u);
}

TEST(ClusterCache, StoreInvalidatesEveryLocalCopy) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.cluster_cache_leaves = 4;
  MemorySystem mem(cfg, 8);
  mem.Reset({{32, 1}});
  const auto run = [&] {
    for (int i = 0; i < 50; ++i) mem.Tick();
    mem.DrainCompleted();
  };
  mem.SubmitLoad(0, 32);  // Fills cluster 0's cache.
  mem.SubmitLoad(5, 32);  // Fills cluster 1's cache.
  run();
  mem.SubmitStore(0, 32, 2);
  run();
  for (const int cluster : {0, 1}) {
    const CacheLevelModel* local = mem.cache(CacheRole::kCluster, cluster);
    EXPECT_FALSE(local->Contains(32)) << "cluster " << cluster;
    EXPECT_EQ(local->stats().invalidations, 1u) << "cluster " << cluster;
  }
  // The reload sees the new value (from memory, not a stale copy).
  const auto id = mem.SubmitLoad(5, 32);
  isa::Word got = 0;
  for (int i = 0; i < 50; ++i) {
    mem.Tick();
    for (const auto& r : mem.DrainCompleted()) {
      if (r.id == id) got = r.value;
    }
  }
  EXPECT_EQ(got, 2u);
}

TEST(ClusterCache, LruEvictionBoundsTheFootprint) {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kMagic;
  cfg.cluster_cache_leaves = 8;
  cfg.cluster_cache_words = 2;
  MemorySystem mem(cfg, 8);
  mem.Reset({});
  const auto run = [&] {
    for (int i = 0; i < 10; ++i) mem.Tick();
    mem.DrainCompleted();
  };
  // A miss adds nothing to the backing tier's latency.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 0)),
            cfg.magic_load_latency);
  mem.SubmitLoad(0, 4);
  mem.SubmitLoad(0, 8);  // Evicts address 0.
  run();
  const CacheLevelModel& local = *mem.cache(CacheRole::kCluster);
  EXPECT_FALSE(local.Contains(0));
  mem.SubmitLoad(0, 0);
  run();
  EXPECT_EQ(local.stats().hits, 0u);
  // Still resident: a local hit.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 8)),
            cfg.cluster_cache_hit_latency);
  EXPECT_EQ(local.stats().hits, 1u);

  // Taking in a word that is already present leaves its LRU place alone.
  // With one admission per cycle, the second load of address 0 misses
  // before the first brings the word in, and completes after address 4
  // came in; 0 stays the LRU word, so address 8 evicts it.
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.regime = BandwidthRegime::kConstant;
  MemorySystem queued(cfg, 8);
  queued.Reset({});
  for (const isa::Word addr : {0u, 4u, 0u}) queued.SubmitLoad(0, addr);
  for (int i = 0; i < 20; ++i) queued.Tick();
  queued.SubmitLoad(0, 8);
  for (int i = 0; i < 20; ++i) queued.Tick();
  const CacheLevelModel& words = *queued.cache(CacheRole::kCluster);
  EXPECT_EQ(words.stats().hits, 0u);
  EXPECT_FALSE(words.Contains(0));
  EXPECT_TRUE(words.Contains(4));
}

TEST(ClusterCache, CoresStayCorrectWithDistributedCaches) {
  // Full-system check lives in core tests; here a store/load interleaving
  // through the facade must match the backing store at every step.
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kBandwidthLimited;
  cfg.regime = BandwidthRegime::kSqrt;
  cfg.cluster_cache_leaves = 4;
  MemorySystem mem(cfg, 16);
  mem.Reset({});
  std::mt19937 rng(3);
  for (int step = 0; step < 300; ++step) {
    const auto addr = static_cast<isa::Word>((rng() % 16) * 4);
    if (rng() % 2) {
      mem.SubmitStore(static_cast<int>(rng() % 16), addr, rng() % 1000);
      for (int i = 0; i < 30; ++i) mem.Tick();
      mem.DrainCompleted();
    } else {
      const auto id = mem.SubmitLoad(static_cast<int>(rng() % 16), addr);
      const isa::Word expected = mem.ReadWord(addr);
      bool done = false;
      for (int i = 0; i < 60 && !done; ++i) {
        mem.Tick();
        for (const auto& r : mem.DrainCompleted()) {
          if (r.id == id) {
            ASSERT_EQ(r.value, expected) << "addr " << addr;
            done = true;
          }
        }
      }
      ASSERT_TRUE(done);
    }
  }
}

// --- Multi-level hierarchy (PR 9) -----------------------------------------

CacheLevelConfig SmallLevel() {
  CacheLevelConfig cfg;
  cfg.enabled = true;
  cfg.sets = 2;
  cfg.ways = 2;
  cfg.block_bytes = 16;
  cfg.hit_latency = 1;
  cfg.miss_latency = 8;
  return cfg;
}

TEST(CacheLevel, MissThenHitWithinABlock) {
  CacheLevelModel level(SmallLevel());
  EXPECT_FALSE(level.Lookup(0, false).hit);
  level.Fill(0, /*dirty=*/false, /*prefetched=*/false);
  EXPECT_TRUE(level.Lookup(0, false).hit);
  EXPECT_TRUE(level.Lookup(12, false).hit);   // Same 16-byte block.
  EXPECT_FALSE(level.Lookup(16, false).hit);  // Next block.
  EXPECT_EQ(level.stats().hits, 2u);
  EXPECT_EQ(level.stats().misses, 2u);
}

TEST(CacheLevel, LruEvictionWithinASet) {
  // 2 sets x 16-byte blocks: addresses 0, 32, 64 share set 0.
  CacheLevelModel level(SmallLevel());
  level.Fill(0, false, false);
  level.Fill(32, false, false);
  level.Lookup(0, false);        // Touch 0: 32 becomes LRU.
  level.Fill(64, false, false);  // Evicts 32.
  EXPECT_TRUE(level.Contains(0));
  EXPECT_FALSE(level.Contains(32));
  EXPECT_TRUE(level.Contains(64));
  EXPECT_EQ(level.stats().evictions, 1u);
}

TEST(CacheLevel, DirtyVictimCountsAsWriteback) {
  CacheLevelModel level(SmallLevel());
  level.Fill(0, /*dirty=*/false, false);
  level.Lookup(0, /*is_store=*/true);  // Write-back: hit marks dirty.
  level.Fill(32, false, false);
  level.Lookup(32, false);                             // 0 is now LRU.
  EXPECT_TRUE(level.Fill(64, false, false));           // Dirty victim.
  EXPECT_EQ(level.stats().writebacks, 1u);
  EXPECT_FALSE(level.Fill(32 + 128, false, false));    // Clean victim (32).
}

TEST(CacheLevel, ContainsHasNoSideEffects) {
  CacheLevelModel level(SmallLevel());
  level.Fill(0, false, false);
  const auto before = level.stats();
  EXPECT_TRUE(level.Contains(0));
  EXPECT_FALSE(level.Contains(16));
  EXPECT_EQ(level.stats().hits, before.hits);
  EXPECT_EQ(level.stats().misses, before.misses);
}

TEST(CacheLevel, PrefetchedLinesAreCountedOnFirstHitOnly) {
  CacheLevelModel level(SmallLevel());
  level.Fill(0, false, /*prefetched=*/true);
  EXPECT_EQ(level.stats().prefetch_fills, 1u);
  EXPECT_TRUE(level.Lookup(0, false).was_prefetched);
  EXPECT_FALSE(level.Lookup(0, false).was_prefetched);  // Bit cleared.
  EXPECT_EQ(level.stats().prefetch_hits, 1u);
}

TEST(CacheLevel, StateRoundTripsThroughCheckpoint) {
  CacheLevelModel level(SmallLevel());
  level.Fill(0, true, false);
  level.Fill(32, false, true);
  level.Lookup(0, false);
  persist::Encoder e;
  level.SaveState(e);
  CacheLevelModel restored(SmallLevel());
  persist::Decoder d(e.bytes());
  restored.RestoreState(d);
  EXPECT_TRUE(restored.Contains(0));
  EXPECT_TRUE(restored.Contains(32));
  EXPECT_EQ(restored.stats().hits, level.stats().hits);
  EXPECT_EQ(restored.stats().prefetch_fills, 1u);
}

TEST(StridePrefetch, TrainsOnConstantStrideOnly) {
  StridePrefetcher pf({.depth = 2, .table_entries = 4});
  std::vector<isa::Word> out;
  pf.ObserveMiss(0, 32, out);    // Allocate.
  EXPECT_TRUE(out.empty());
  pf.ObserveMiss(32, 32, out);   // Stride learned, confidence 1.
  EXPECT_TRUE(out.empty());
  pf.ObserveMiss(64, 32, out);   // Confidence 2: emit.
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 96u);
  EXPECT_EQ(out[1], 128u);
  out.clear();
  pf.ObserveMiss(70000, 32, out);  // Different 4 KiB region: fresh entry.
  EXPECT_TRUE(out.empty());
}

TEST(StridePrefetch, StrideChangeResetsConfidence) {
  StridePrefetcher pf({.depth = 2, .table_entries = 4});
  std::vector<isa::Word> out;
  pf.ObserveMiss(0, 32, out);
  pf.ObserveMiss(32, 32, out);
  pf.ObserveMiss(64, 32, out);
  ASSERT_FALSE(out.empty());
  out.clear();
  pf.ObserveMiss(256, 32, out);  // Stride break.
  EXPECT_TRUE(out.empty());
  pf.ObserveMiss(512, 32, out);  // New stride, confidence 1 again.
  EXPECT_TRUE(out.empty());
}

MemoryConfig HierarchyConfig1Level() {
  MemoryConfig cfg;
  cfg.mode = MemTimingMode::kMagic;
  cfg.magic_load_latency = 20;
  cfg.hierarchy.l1d.enabled = true;
  cfg.hierarchy.l1d.sets = 4;
  cfg.hierarchy.l1d.ways = 2;
  cfg.hierarchy.l1d.block_bytes = 16;
  cfg.hierarchy.l1d.hit_latency = 2;
  cfg.hierarchy.l1d.miss_latency = 5;
  return cfg;
}

TEST(MemHierarchy, L1HitIsFastAndBypassesBacking) {
  MemorySystem mem(HierarchyConfig1Level(), 4);
  mem.Reset({{64, 7}});
  // Cold miss: L1 lookup (2) + miss penalty (5) + magic backing (20).
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 64)), 27);
  // Warm hit: the L1 lookup alone.
  const auto id = mem.SubmitLoad(0, 64);
  EXPECT_EQ(CyclesToComplete(mem, id), 2);
  const CacheLevelModel* l1d = mem.cache(CacheRole::kL1D);
  ASSERT_NE(l1d, nullptr);
  EXPECT_EQ(l1d->stats().hits, 1u);
  EXPECT_EQ(l1d->stats().misses, 1u);
}

TEST(MemHierarchy, StoreStaysArchitecturallyImmediate) {
  MemorySystem mem(HierarchyConfig1Level(), 4);
  mem.Reset({});
  mem.SubmitStore(0, 64, 9);
  EXPECT_EQ(mem.ReadWord(64), 9u);  // Before any timing completes.
}

TEST(MemHierarchy, DirtyEvictionChargesAWriteback) {
  auto cfg = HierarchyConfig1Level();
  cfg.hierarchy.l1d.sets = 1;
  cfg.hierarchy.l1d.ways = 1;  // Direct-mapped single line.
  cfg.magic_store_latency = 1;
  MemorySystem mem(cfg, 4);
  mem.Reset({});
  // Dirty the only line, then miss to a conflicting block: the victim
  // write-back adds another miss_latency before the backing trip.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitStore(0, 0, 1)), 8);  // 2+5+1.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 16)), 32);
  EXPECT_EQ(mem.cache(CacheRole::kL1D)->stats().writebacks, 1u);
}

TEST(MemHierarchy, L2HitFillsL1AndSkipsBacking) {
  auto cfg = HierarchyConfig1Level();
  cfg.hierarchy.l2.enabled = true;
  cfg.hierarchy.l2.sets = 8;
  cfg.hierarchy.l2.ways = 4;
  cfg.hierarchy.l2.block_bytes = 16;
  cfg.hierarchy.l2.hit_latency = 4;
  cfg.hierarchy.l2.miss_latency = 10;
  cfg.hierarchy.l1d.sets = 1;
  cfg.hierarchy.l1d.ways = 1;
  MemorySystem mem(cfg, 4);
  mem.Reset({});
  // Cold: 2 + 5 + 4 + 10 + 20. Fills both levels.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 0)), 41);
  // Conflict evicts 0 from the one-line L1 but not from L2.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 16)), 41);
  // L1 miss, L2 hit: 2 + 5 + 4, no backing trip.
  EXPECT_EQ(CyclesToComplete(mem, mem.SubmitLoad(0, 0)), 11);
  ASSERT_NE(mem.cache(CacheRole::kL2), nullptr);
  EXPECT_EQ(mem.cache(CacheRole::kL2)->stats().hits, 1u);
}

TEST(MemHierarchy, PrefetchFillTurnsTheNextMissIntoAHit) {
  auto cfg = HierarchyConfig1Level();
  cfg.hierarchy.prefetch.depth = 2;
  cfg.hierarchy.prefetch.fill_latency = 3;
  MemorySystem mem(cfg, 4);
  mem.Reset({});
  // Two constant-stride misses train the detector; the third emits
  // prefetches for blocks 48 and 64.
  CyclesToComplete(mem, mem.SubmitLoad(0, 0));
  CyclesToComplete(mem, mem.SubmitLoad(0, 16));
  CyclesToComplete(mem, mem.SubmitLoad(0, 32));
  EXPECT_EQ(mem.prefetch_issued(), 2u);
  // The fills landed during the 27-cycle demand miss above.
  const auto id = mem.SubmitLoad(0, 48);
  EXPECT_EQ(CyclesToComplete(mem, id), 2);  // Hit latency only.
  EXPECT_GE(mem.cache(CacheRole::kL1D)->stats().prefetch_fills, 1u);
  EXPECT_EQ(mem.cache(CacheRole::kL1D)->stats().prefetch_hits, 1u);
}

TEST(MemHierarchy, HierarchyValuesMatchBackingUnderRandomTraffic) {
  auto cfg = HierarchyConfig1Level();
  cfg.hierarchy.l2.enabled = true;
  cfg.hierarchy.l2.sets = 4;
  cfg.hierarchy.l2.ways = 2;
  cfg.hierarchy.l2.block_bytes = 32;
  cfg.hierarchy.prefetch.depth = 2;
  MemorySystem mem(cfg, 8);
  mem.Reset({});
  std::mt19937 rng(7);
  for (int step = 0; step < 300; ++step) {
    const auto addr = static_cast<isa::Word>((rng() % 64) * 4);
    if (rng() % 2) {
      mem.SubmitStore(static_cast<int>(rng() % 8), addr, rng() % 1000);
      for (int i = 0; i < 40; ++i) mem.Tick();
      mem.DrainCompleted();
    } else {
      const auto id = mem.SubmitLoad(static_cast<int>(rng() % 8), addr);
      const isa::Word expected = mem.ReadWord(addr);
      bool done = false;
      for (int i = 0; i < 80 && !done; ++i) {
        mem.Tick();
        for (const auto& r : mem.DrainCompleted()) {
          if (r.id == id) {
            ASSERT_EQ(r.value, expected) << "addr " << addr;
            done = true;
          }
        }
      }
      ASSERT_TRUE(done);
    }
  }
  const CacheLevelStats& l1d = mem.cache(CacheRole::kL1D)->stats();
  EXPECT_GT(l1d.hits + l1d.misses, 0u);
}

}  // namespace
}  // namespace ultra::memory
