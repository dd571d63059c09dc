// The one cache model, and the stride prefetcher that feeds it.
//
// CacheLevelModel is a set-associative array of blocks with LRU
// replacement, optionally split into line-interleaved banks that accept a
// fixed number of accesses per cycle. Every cache of memory blocks in the
// simulator is an instance of it, in one of five roles:
//
//  * L1I -- owned by core::FetchEngine;
//  * L1D and L2 -- the axes of the Performance-Optimum Superscalar
//    Architecture study (arxiv 1204.2809): size, associativity, block size,
//    hit/miss latency, dirty eviction;
//  * Section 7's "cache distributed among the clusters" -- one fully
//    associative instance of word-sized blocks per cluster;
//  * Section 2's interleaved, banked data cache at the far side of the
//    fat-tree or butterfly network.
//
// The model itself has no write policy: the code that owns an instance
// applies the policy of the role it plays (MemorySystem for the last four).
// Every instance is timing-only: architectural data always lives in the
// BackingStore, so the correctness tests keep a single source of truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "isa/opcode.hpp"
#include "persist/serial.hpp"

namespace ultra::memory {

/// Section 2's banked cache (MemoryConfig::cache).
struct CacheConfig {
  int num_banks = 8;      // Power of two.
  int sets_per_bank = 64;
  int ways = 2;
  int line_bytes = 16;    // Power of two.
  int hit_latency = 1;    // Cycles from bank access to data.
  int miss_penalty = 10;  // Additional cycles on a miss.
  int ports_per_bank = 1; // Accesses a bank accepts per cycle.
};

struct CacheLevelConfig {
  bool enabled = false;
  int sets = 64;         // Power of two.
  int ways = 4;
  int block_bytes = 32;  // Power of two, >= 4.
  int hit_latency = 1;   // Cycles for a lookup that hits.
  int miss_latency = 8;  // Additional cycles charged when the lookup misses.

  [[nodiscard]] int CapacityBytes() const { return sets * ways * block_bytes; }
};

struct PrefetchConfig {
  int depth = 0;           // Blocks prefetched ahead per trigger; 0 = off.
  int table_entries = 16;  // Stride-detector entries (LRU-replaced).
  int fill_latency = 12;   // Cycles from prefetch issue to the L1 fill.
};

struct HierarchyConfig {
  CacheLevelConfig l1i;
  CacheLevelConfig l1d;
  CacheLevelConfig l2;
  PrefetchConfig prefetch;

  /// True when loads/stores take the hierarchy path in MemorySystem.
  [[nodiscard]] bool DataPathEnabled() const {
    return l1d.enabled || l2.enabled;
  }
};

struct CacheLevelStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;      // Dirty victims evicted.
  std::uint64_t prefetch_fills = 0;  // Lines installed by the prefetcher.
  std::uint64_t prefetch_hits = 0;   // Demand hits on prefetched lines.
  std::uint64_t bank_conflicts = 0;  // Port claims refused (ClaimPort).
  std::uint64_t invalidations = 0;   // Lines dropped by Invalidate.

  [[nodiscard]] double MissRate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(misses) / total;
  }
};

/// One cache: `banks` line-interleaved banks, each of `sets` sets of `ways`
/// blocks with LRU replacement. Timing and occupancy only: a Lookup decides
/// hit or miss and updates the LRU, dirty and prefetched bits; data stays in
/// the BackingStore.
class CacheLevelModel {
 public:
  /// An L1I, L1D, L2 or cluster cache: one bank with no port limit.
  explicit CacheLevelModel(const CacheLevelConfig& config);
  /// Section 2's banked cache: consecutive lines go to consecutive banks
  /// (bank = line % num_banks, set = line / num_banks % sets_per_bank), and
  /// each bank accepts `ports_per_bank` accesses per cycle. config() reports
  /// `sets_per_bank`, `line_bytes` and `miss_penalty` as `sets`,
  /// `block_bytes` and `miss_latency`.
  explicit CacheLevelModel(const CacheConfig& config);

  struct LookupResult {
    bool hit = false;
    bool was_prefetched = false;  // Hit on a line the prefetcher installed.
  };

  /// Which bank serves @p byte_address.
  [[nodiscard]] int BankOf(isa::Word byte_address) const;

  /// Takes one of this cycle's ports on @p byte_address's bank. Returns
  /// false, counting a bank conflict and touching no line, when the bank has
  /// none left.
  bool ClaimPort(isa::Word byte_address);

  /// Frees every bank's ports; call at the start of every cycle.
  void NewCycle();

  /// Probes @p byte_address. A store that hits marks the line dirty
  /// (write-back: no traffic to the next tier until eviction).
  LookupResult Lookup(isa::Word byte_address, bool is_store);

  /// Installs the block holding @p byte_address (into an invalid way, else
  /// the LRU one). Returns true when the victim was dirty, i.e. a write-back
  /// to the next tier happened. A block already present is only updated.
  bool Fill(isa::Word byte_address, bool dirty, bool prefetched);

  /// Presence probe with no LRU/stats side effects (prefetch dedup).
  [[nodiscard]] bool Contains(isa::Word byte_address) const;

  /// Drops the block holding @p byte_address, if present (write-through
  /// invalidation).
  void Invalidate(isa::Word byte_address);

  void Flush();

  [[nodiscard]] const CacheLevelConfig& config() const { return config_; }
  [[nodiscard]] const CacheLevelStats& stats() const { return stats_; }

  /// Checkpoint support: tags, valid/dirty/prefetched bits, LRU stamps, this
  /// cycle's port counts and stats, so a restored run observes the same
  /// hit/miss/conflict sequence.
  void SaveState(persist::Encoder& e) const;
  void RestoreState(persist::Decoder& d);

 private:
  struct Line {
    std::uint64_t tag = 0;
    bool valid = false;
    bool dirty = false;
    bool prefetched = false;
    std::uint64_t lru = 0;  // Larger = more recently used.
  };

  static constexpr std::size_t kAbsent = ~std::size_t{0};

  CacheLevelModel(const CacheLevelConfig& config, int banks,
                  int ports_per_bank);

  CacheLevelConfig config_;
  int banks_;
  int ports_per_bank_;
  int block_shift_;
  // One row of `ways` lines per (bank, set) pair: row = block % rows_ and
  // tag = block / rows_, which is the same pair as (bank, set, tag) above.
  std::uint64_t rows_;
  std::vector<Line> lines_;       // [row][way] flattened.
  std::vector<int> ports_used_;   // Per bank, this cycle.
  std::uint64_t access_counter_ = 0;
  CacheLevelStats stats_;

  /// Index of the first line of @p byte_address's row, and its tag.
  [[nodiscard]] std::pair<std::size_t, std::uint64_t> RowOf(
      isa::Word byte_address) const;
  /// Index of the valid line holding @p byte_address, or kAbsent.
  [[nodiscard]] std::size_t Find(isa::Word byte_address) const;
};

/// Region-keyed stride detector. Each entry tracks the last missing block
/// and the inter-miss stride within one aligned 4 KiB region; two
/// consecutive equal strides arm the entry, after which every further miss
/// emits `depth` predicted blocks. Keying by region keeps independent
/// streams (and out-of-order interleavings across streams) from corrupting
/// each other's stride state.
class StridePrefetcher {
 public:
  explicit StridePrefetcher(const PrefetchConfig& config);

  /// Observes a demand miss on @p block_address (block-aligned). Appends
  /// predicted block addresses to @p out (not cleared; may append nothing).
  void ObserveMiss(isa::Word block_address, int block_bytes,
                   std::vector<isa::Word>& out);

  [[nodiscard]] const PrefetchConfig& config() const { return config_; }

  void SaveState(persist::Encoder& e) const;
  void RestoreState(persist::Decoder& d);

 private:
  struct Entry {
    bool valid = false;
    isa::Word region = 0;
    isa::Word last_block = 0;
    std::int64_t stride = 0;
    int confidence = 0;
    std::uint64_t lru = 0;
  };

  PrefetchConfig config_;
  std::vector<Entry> entries_;
  std::uint64_t use_counter_ = 0;
};

}  // namespace ultra::memory
