#include "memory/hierarchy.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace ultra::memory {

namespace {

constexpr isa::Word kRegionShift = 12;  // 4 KiB stride-detector regions.

int Log2Exact(int value) {
  int shift = 0;
  while ((1 << shift) < value) ++shift;
  return shift;
}

}  // namespace

CacheLevelModel::CacheLevelModel(const CacheLevelConfig& config)
    : CacheLevelModel(config, /*banks=*/1,
                      /*ports_per_bank=*/std::numeric_limits<int>::max()) {}

CacheLevelModel::CacheLevelModel(const CacheConfig& config)
    : CacheLevelModel(CacheLevelConfig{.enabled = true,
                                       .sets = config.sets_per_bank,
                                       .ways = config.ways,
                                       .block_bytes = config.line_bytes,
                                       .hit_latency = config.hit_latency,
                                       .miss_latency = config.miss_penalty},
                      config.num_banks, config.ports_per_bank) {}

CacheLevelModel::CacheLevelModel(const CacheLevelConfig& config, int banks,
                                 int ports_per_bank)
    : config_(config),
      banks_(banks),
      ports_per_bank_(ports_per_bank),
      block_shift_(Log2Exact(config.block_bytes)),
      rows_(static_cast<std::uint64_t>(banks) *
            static_cast<std::uint64_t>(config.sets)) {
  // Each role's geometry rules (CacheGeometryError, memory_system.hpp) are
  // checked before any instance is built; these are what the model needs.
  assert(banks_ >= 1 && ports_per_bank_ >= 1);
  assert(config_.sets >= 1 && config_.ways >= 1);
  assert(config_.block_bytes >= 1 &&
         (config_.block_bytes & (config_.block_bytes - 1)) == 0);
  lines_.assign(rows_ * static_cast<std::uint64_t>(config_.ways), Line{});
  ports_used_.assign(static_cast<std::size_t>(banks_), 0);
}

int CacheLevelModel::BankOf(isa::Word byte_address) const {
  return static_cast<int>((byte_address >> block_shift_) %
                          static_cast<isa::Word>(banks_));
}

std::pair<std::size_t, std::uint64_t> CacheLevelModel::RowOf(
    isa::Word byte_address) const {
  const std::uint64_t block = byte_address >> block_shift_;
  return {static_cast<std::size_t>(block % rows_) *
              static_cast<std::size_t>(config_.ways),
          block / rows_};
}

std::size_t CacheLevelModel::Find(isa::Word byte_address) const {
  const auto [first, tag] = RowOf(byte_address);
  const std::size_t end = first + static_cast<std::size_t>(config_.ways);
  for (std::size_t i = first; i < end; ++i) {
    if (lines_[i].valid && lines_[i].tag == tag) return i;
  }
  return kAbsent;
}

bool CacheLevelModel::ClaimPort(isa::Word byte_address) {
  int& used = ports_used_[static_cast<std::size_t>(BankOf(byte_address))];
  if (used >= ports_per_bank_) {
    ++stats_.bank_conflicts;
    return false;
  }
  ++used;
  return true;
}

void CacheLevelModel::NewCycle() {
  std::fill(ports_used_.begin(), ports_used_.end(), 0);
}

CacheLevelModel::LookupResult CacheLevelModel::Lookup(isa::Word byte_address,
                                                      bool is_store) {
  const std::size_t i = Find(byte_address);
  if (i == kAbsent) {
    ++stats_.misses;
    return LookupResult{};
  }
  Line& line = lines_[i];
  ++stats_.hits;
  const LookupResult result{.hit = true, .was_prefetched = line.prefetched};
  if (line.prefetched) {
    ++stats_.prefetch_hits;
    line.prefetched = false;  // Count each prefetched line once.
  }
  if (is_store) line.dirty = true;
  line.lru = ++access_counter_;
  return result;
}

bool CacheLevelModel::Fill(isa::Word byte_address, bool dirty,
                           bool prefetched) {
  if (const std::size_t i = Find(byte_address); i != kAbsent) {
    // Already present (e.g. a prefetch raced a demand fill): just update.
    if (dirty) lines_[i].dirty = true;
    lines_[i].lru = ++access_counter_;
    return false;
  }
  const auto [first, tag] = RowOf(byte_address);
  const std::size_t end = first + static_cast<std::size_t>(config_.ways);
  std::size_t victim = first;
  for (std::size_t i = first; i < end; ++i) {
    if (!lines_[i].valid) {
      victim = i;
      break;
    }
    if (lines_[i].lru < lines_[victim].lru) victim = i;
  }
  Line& line = lines_[victim];
  const bool writeback = line.valid && line.dirty;
  if (line.valid) ++stats_.evictions;
  if (writeback) ++stats_.writebacks;
  line = Line{.tag = tag,
              .valid = true,
              .dirty = dirty,
              .prefetched = prefetched,
              .lru = ++access_counter_};
  if (prefetched) ++stats_.prefetch_fills;
  return writeback;
}

bool CacheLevelModel::Contains(isa::Word byte_address) const {
  return Find(byte_address) != kAbsent;
}

void CacheLevelModel::Invalidate(isa::Word byte_address) {
  const std::size_t i = Find(byte_address);
  if (i == kAbsent) return;
  lines_[i].valid = false;
  ++stats_.invalidations;
}

void CacheLevelModel::Flush() {
  std::fill(lines_.begin(), lines_.end(), Line{});
  access_counter_ = 0;
}

void CacheLevelModel::SaveState(persist::Encoder& e) const {
  e.U32(static_cast<std::uint32_t>(lines_.size()));
  for (const Line& line : lines_) {
    e.U64(line.tag);
    e.Bool(line.valid);
    e.Bool(line.dirty);
    e.Bool(line.prefetched);
    e.U64(line.lru);
  }
  e.U32(static_cast<std::uint32_t>(ports_used_.size()));
  for (const int used : ports_used_) e.I32(used);
  e.U64(access_counter_);
  e.U64(stats_.hits);
  e.U64(stats_.misses);
  e.U64(stats_.evictions);
  e.U64(stats_.writebacks);
  e.U64(stats_.prefetch_fills);
  e.U64(stats_.prefetch_hits);
  e.U64(stats_.bank_conflicts);
  e.U64(stats_.invalidations);
}

void CacheLevelModel::RestoreState(persist::Decoder& d) {
  if (d.U32() != lines_.size()) {
    throw persist::FormatError("cache level geometry mismatch");
  }
  for (Line& line : lines_) {
    line.tag = d.U64();
    line.valid = d.Bool();
    line.dirty = d.Bool();
    line.prefetched = d.Bool();
    line.lru = d.U64();
  }
  if (d.U32() != ports_used_.size()) {
    throw persist::FormatError("cache bank count mismatch");
  }
  for (int& used : ports_used_) used = d.I32();
  access_counter_ = d.U64();
  stats_.hits = d.U64();
  stats_.misses = d.U64();
  stats_.evictions = d.U64();
  stats_.writebacks = d.U64();
  stats_.prefetch_fills = d.U64();
  stats_.prefetch_hits = d.U64();
  stats_.bank_conflicts = d.U64();
  stats_.invalidations = d.U64();
}

StridePrefetcher::StridePrefetcher(const PrefetchConfig& config)
    : config_(config) {
  assert(config_.depth >= 1);
  assert(config_.table_entries >= 1);
  entries_.assign(static_cast<std::size_t>(config_.table_entries), Entry{});
}

void StridePrefetcher::ObserveMiss(isa::Word block_address, int block_bytes,
                                   std::vector<isa::Word>& out) {
  const isa::Word region = block_address >> kRegionShift;
  Entry* entry = nullptr;
  Entry* victim = &entries_[0];
  for (Entry& candidate : entries_) {
    if (candidate.valid && candidate.region == region) {
      entry = &candidate;
      break;
    }
    if (!candidate.valid) {
      victim = &candidate;
    } else if (victim->valid && candidate.lru < victim->lru) {
      victim = &candidate;
    }
  }
  if (entry == nullptr) {
    *victim = Entry{};
    victim->valid = true;
    victim->region = region;
    victim->last_block = block_address;
    victim->lru = ++use_counter_;
    return;  // First miss in the region: nothing to predict yet.
  }
  const std::int64_t delta = static_cast<std::int64_t>(block_address) -
                             static_cast<std::int64_t>(entry->last_block);
  if (delta != 0 && delta == entry->stride) {
    entry->confidence = std::min(entry->confidence + 1, 4);
  } else {
    entry->stride = delta;
    entry->confidence = delta != 0 ? 1 : 0;
  }
  entry->last_block = block_address;
  entry->lru = ++use_counter_;
  if (entry->confidence < 2) return;
  for (int k = 1; k <= config_.depth; ++k) {
    const std::int64_t predicted =
        static_cast<std::int64_t>(block_address) + entry->stride * k;
    if (predicted < 0) break;
    const isa::Word block = static_cast<isa::Word>(predicted) &
                            ~static_cast<isa::Word>(block_bytes - 1);
    out.push_back(block);
  }
}

void StridePrefetcher::SaveState(persist::Encoder& e) const {
  e.U32(static_cast<std::uint32_t>(entries_.size()));
  for (const Entry& entry : entries_) {
    e.Bool(entry.valid);
    e.U32(entry.region);
    e.U32(entry.last_block);
    e.I64(entry.stride);
    e.I32(entry.confidence);
    e.U64(entry.lru);
  }
  e.U64(use_counter_);
}

void StridePrefetcher::RestoreState(persist::Decoder& d) {
  const std::uint32_t count = d.U32();
  if (count != entries_.size()) {
    throw persist::FormatError("prefetcher table size mismatch");
  }
  for (Entry& entry : entries_) {
    entry.valid = d.Bool();
    entry.region = d.U32();
    entry.last_block = d.U32();
    entry.stride = d.I64();
    entry.confidence = d.I32();
    entry.lru = d.U64();
  }
  use_counter_ = d.U64();
}

}  // namespace ultra::memory
