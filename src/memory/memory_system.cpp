#include "memory/memory_system.hpp"

#include <algorithm>
#include <cassert>
#include <string_view>
#include <utility>

namespace ultra::memory {

std::string CacheGeometryError(const MemoryConfig& mem) {
  std::string error;
  // Records the first rule broken.
  const auto require = [&error](bool ok, std::string_view field,
                                const char* rule, int value) {
    if (ok || !error.empty()) return;
    error = std::string(field) + " must be " + rule + ", got " +
            std::to_string(value);
  };
  const auto power_of_two = [](int v) { return v > 0 && (v & (v - 1)) == 0; };
  if (mem.mode != MemTimingMode::kMagic) {
    const CacheConfig& c = mem.cache;
    require(power_of_two(c.num_banks), "mem.cache.num_banks",
            "a positive power of two", c.num_banks);
    require(c.sets_per_bank >= 1, "mem.cache.sets_per_bank", ">= 1",
            c.sets_per_bank);
    require(c.ways >= 1, "mem.cache.ways", ">= 1", c.ways);
    require(power_of_two(c.line_bytes), "mem.cache.line_bytes",
            "a positive power of two", c.line_bytes);
    require(c.ports_per_bank >= 1, "mem.cache.ports_per_bank", ">= 1",
            c.ports_per_bank);
    require(c.hit_latency >= 0, "mem.cache.hit_latency", ">= 0",
            c.hit_latency);
    require(c.miss_penalty >= 0, "mem.cache.miss_penalty", ">= 0",
            c.miss_penalty);
  } else {
    require(mem.magic_load_latency >= 0, "mem.magic_load_latency", ">= 0",
            mem.magic_load_latency);
    require(mem.magic_store_latency >= 0, "mem.magic_store_latency", ">= 0",
            mem.magic_store_latency);
  }
  if (mem.cluster_cache_leaves > 0) {
    require(mem.cluster_cache_words >= 1, "mem.cluster_cache_words", ">= 1",
            mem.cluster_cache_words);
    require(mem.cluster_cache_hit_latency >= 0,
            "mem.cluster_cache_hit_latency", ">= 0",
            mem.cluster_cache_hit_latency);
  }
  const std::pair<const CacheLevelConfig*, const char*> levels[] = {
      {&mem.hierarchy.l1i, "l1i"},
      {&mem.hierarchy.l1d, "l1d"},
      {&mem.hierarchy.l2, "l2"}};
  for (const auto& [level, name] : levels) {
    if (!level->enabled) continue;
    const std::string field = std::string("mem.hierarchy.") + name + ".";
    require(power_of_two(level->sets), field + "sets",
            "a positive power of two", level->sets);
    require(level->ways >= 1, field + "ways", ">= 1", level->ways);
    require(level->block_bytes >= 4 && power_of_two(level->block_bytes),
            field + "block_bytes", "a power of two >= 4", level->block_bytes);
    require(level->hit_latency >= 1, field + "hit_latency", ">= 1",
            level->hit_latency);
    require(level->miss_latency >= 1, field + "miss_latency", ">= 1",
            level->miss_latency);
  }
  const PrefetchConfig& prefetch = mem.hierarchy.prefetch;
  require(prefetch.depth >= 0, "mem.hierarchy.prefetch.depth", ">= 0",
          prefetch.depth);
  if (prefetch.depth > 0) {
    require(prefetch.table_entries >= 1,
            "mem.hierarchy.prefetch.table_entries", ">= 1",
            prefetch.table_entries);
    require(prefetch.fill_latency >= 1, "mem.hierarchy.prefetch.fill_latency",
            ">= 1", prefetch.fill_latency);
  }
  return error;
}

MemorySystem::MemorySystem(const MemoryConfig& config, int num_leaves)
    : config_(config),
      num_leaves_(std::max(1, num_leaves)),
      ops_per_cycle_(1),
      profile_(BandwidthProfile::ForRegime(config.regime,
                                           config.bandwidth_scale)) {
  ops_per_cycle_ = profile_.OpsPerCycle(num_leaves_);
  if (config_.mode != MemTimingMode::kMagic) banked_.emplace(config_.cache);
  if (config_.mode == MemTimingMode::kFatTree) {
    network_ = std::make_unique<FatTreeNetwork>(num_leaves_, profile_);
  }
  if (config_.mode == MemTimingMode::kButterfly) {
    butterfly_ = std::make_unique<ButterflyNetwork>(num_leaves_);
  }
  if (config_.cluster_cache_leaves > 0) {
    // One fully associative cache of words per cluster of leaves.
    const CacheLevelModel words(CacheLevelConfig{
        .enabled = true,
        .sets = 1,
        .ways = config_.cluster_cache_words,
        .block_bytes = 4,
        .hit_latency = config_.cluster_cache_hit_latency,
        .miss_latency = 0});
    const int clusters =
        (num_leaves_ + config_.cluster_cache_leaves - 1) /
        config_.cluster_cache_leaves;
    levels_.push_back(
        {CacheRole::kCluster, config_.cluster_cache_leaves,
         std::vector<CacheLevelModel>(static_cast<std::size_t>(clusters),
                                      words)});
  }
  if (config_.hierarchy.l1d.enabled) {
    levels_.push_back({CacheRole::kL1D, num_leaves_,
                       {CacheLevelModel(config_.hierarchy.l1d)}});
  }
  if (config_.hierarchy.l2.enabled) {
    levels_.push_back({CacheRole::kL2, num_leaves_,
                       {CacheLevelModel(config_.hierarchy.l2)}});
  }
  if (config_.hierarchy.DataPathEnabled() &&
      config_.hierarchy.prefetch.depth > 0) {
    prefetcher_ = std::make_unique<StridePrefetcher>(config_.hierarchy.prefetch);
  }
}

const CacheLevelModel* MemorySystem::cache(CacheRole role, int index) const {
  if (role == CacheRole::kBanked) return banked_ ? &*banked_ : nullptr;
  for (const Level& level : levels_) {
    if (level.role == role) {
      return &level.caches.at(static_cast<std::size_t>(index));
    }
  }
  return nullptr;
}

int MemorySystem::ButterflyPort(isa::Word addr) const {
  return banked_->BankOf(addr) % num_leaves_;
}

void MemorySystem::Reset(const std::map<isa::Word, isa::Word>& image) {
  store_.Load(image);
  if (banked_) banked_->Flush();
  for (Level& level : levels_) {
    for (CacheLevelModel& cache : level.caches) cache.Flush();
  }
  if (config_.mode == MemTimingMode::kFatTree) {
    network_ = std::make_unique<FatTreeNetwork>(num_leaves_, profile_);
  }
  if (config_.mode == MemTimingMode::kButterfly) {
    butterfly_ = std::make_unique<ButterflyNetwork>(num_leaves_);
  }
  admission_queue_ = {};
  root_retry_queue_ = {};
  completions_.clear();
  in_network_.clear();
  completed_.clear();
  if (prefetcher_) {
    prefetcher_ = std::make_unique<StridePrefetcher>(config_.hierarchy.prefetch);
  }
  hier_pending_.clear();
  prefetch_fills_.clear();
  prefetch_issued_ = 0;
  now_ = 0;
}

std::uint64_t MemorySystem::Submit(int leaf, bool is_store, isa::Word addr,
                                   isa::Word value) {
  Request req;
  req.id = next_id_++;
  req.leaf = leaf % num_leaves_;
  req.is_store = is_store;
  req.addr = addr;
  // Architectural effect now: stores are submitted post-serialization, so
  // program order is already correct, and any later load is held back by the
  // Figure 5 circuits until this store's completion signal.
  if (is_store) {
    store_.WriteWord(addr, value);
  } else {
    req.loaded_value = store_.ReadWord(addr);
  }

  // Walk the chain, innermost level first, until a level serves the request
  // (`served` ends as its index, or levels_.size() on a full miss).
  int delay = 0;
  std::size_t served = 0;
  for (; served < levels_.size(); ++served) {
    Level& level = levels_[served];
    CacheLevelModel& cache = level.For(req.leaf);
    if (level.role == CacheRole::kCluster) {
      // Write-through with invalidation keeps the distributed caches
      // coherent (the Figure 5 circuits already order loads after stores).
      // A load hit completes locally, spending no tree bandwidth -- the
      // whole point of the Section 7 suggestion. A miss costs nothing; the
      // load allocates when its completion is scheduled (CompleteAt).
      if (is_store) {
        for (CacheLevelModel& copy : level.caches) copy.Invalidate(addr);
      } else if (cache.Lookup(addr, /*is_store=*/false).hit) {
        delay += cache.config().hit_latency;
        break;
      }
      continue;
    }
    // Write-back: the store's dirtiness lives in the innermost level; an
    // outer copy stays clean until an inner write-back would make it dirty
    // (the timing model charges write-backs at eviction, below).
    const bool innermost = served == 0;
    delay += cache.config().hit_latency;
    const CacheLevelModel::LookupResult looked =
        cache.Lookup(addr, is_store && innermost);
    if (looked.hit) {
      // The first demand hit on a prefetched line re-arms the stream: the
      // detector sees the access and keeps running ahead of the program
      // instead of waiting for the next miss. Lookup clears the line's
      // prefetched bit, so each prefetched line re-arms at most once.
      if (innermost && looked.was_prefetched && prefetcher_) {
        SchedulePrefetches(addr);
      }
      break;
    }
    delay += cache.config().miss_latency;
    // Only the innermost level's demand misses train the prefetcher; its
    // fills land in Tick.
    if (innermost && prefetcher_) SchedulePrefetches(addr);
  }
  // Write-allocate: install the block in every write-back level inside the
  // one that served the request (all of them on a full miss), outermost
  // first, charging the level's miss latency per dirty victim written back.
  for (std::size_t k = served; k-- > 0;) {
    if (levels_[k].role == CacheRole::kCluster) continue;
    CacheLevelModel& cache = levels_[k].For(req.leaf);
    if (cache.Fill(addr, /*dirty=*/is_store && k == 0, /*prefetched=*/false)) {
      delay += cache.config().miss_latency;
    }
  }
  if (served < levels_.size()) {
    CompleteAt(now_ + static_cast<std::uint64_t>(delay), req);
  } else if (delay == 0) {
    DispatchToBacking(req);  // No level charged a lookup: straight through.
  } else {
    // The backing tier sees the miss once the lookup latencies elapse.
    hier_pending_.emplace_back(now_ + static_cast<std::uint64_t>(delay), req);
  }
  return req.id;
}

void MemorySystem::DispatchToBacking(const Request& req) {
  switch (config_.mode) {
    case MemTimingMode::kMagic:
      CompleteAt(now_ + static_cast<std::uint64_t>(
                            req.is_store ? config_.magic_store_latency
                                         : config_.magic_load_latency),
                 req);
      break;
    case MemTimingMode::kBandwidthLimited:
      admission_queue_.push(req);
      break;
    case MemTimingMode::kFatTree:
      in_network_.emplace(req.id, req);
      network_->SubmitUp(req.leaf, req.id);
      break;
    case MemTimingMode::kButterfly:
      in_network_.emplace(req.id, req);
      butterfly_->SubmitForward(req.leaf, ButterflyPort(req.addr), req.id);
      break;
  }
}

void MemorySystem::SchedulePrefetches(isa::Word addr) {
  // The prefetcher feeds the innermost level, which it exists only with.
  const CacheLevelModel& innermost = levels_.front().caches.front();
  const int block_bytes = innermost.config().block_bytes;
  const isa::Word block =
      addr & ~static_cast<isa::Word>(block_bytes - 1);
  prefetch_scratch_.clear();
  prefetcher_->ObserveMiss(block, block_bytes, prefetch_scratch_);
  for (const isa::Word candidate : prefetch_scratch_) {
    if (innermost.Contains(candidate)) continue;
    bool queued = false;
    for (const auto& [ready, pending] : prefetch_fills_) {
      if (pending == candidate) {
        queued = true;
        break;
      }
    }
    if (queued) continue;
    prefetch_fills_.emplace_back(
        now_ + static_cast<std::uint64_t>(config_.hierarchy.prefetch.fill_latency),
        candidate);
    ++prefetch_issued_;
  }
}

std::uint64_t MemorySystem::SubmitLoad(int leaf, isa::Word addr) {
  return Submit(leaf, /*is_store=*/false, addr, 0);
}

std::uint64_t MemorySystem::SubmitStore(int leaf, isa::Word addr,
                                        isa::Word value) {
  return Submit(leaf, /*is_store=*/true, addr, value);
}

void MemorySystem::CompleteAt(std::uint64_t cycle, const Request& req) {
  if (!req.is_store) {
    for (Level& level : levels_) {
      if (level.role != CacheRole::kCluster) continue;
      // A cluster cache takes a load's word when its completion is
      // scheduled, and only if absent: a word already there keeps its LRU
      // place.
      CacheLevelModel& cache = level.For(req.leaf);
      if (!cache.Contains(req.addr)) {
        cache.Fill(req.addr, /*dirty=*/false, /*prefetched=*/false);
      }
    }
  }
  MemResponse resp;
  resp.id = req.id;
  resp.is_store = req.is_store;
  resp.value = req.loaded_value;
  completions_[cycle].push_back(resp);
}

void MemorySystem::ServiceAtCache(const Request& req) {
  // The port check comes first, so a conflict leaves the lines and the
  // hit/miss counts untouched. Every miss allocates, a store's too: the
  // cache only times the access, the data is already in store_.
  if (!banked_->ClaimPort(req.addr)) {
    root_retry_queue_.push(req);  // Bank conflict: retry next cycle.
    return;
  }
  int latency = banked_->config().hit_latency;
  if (!banked_->Lookup(req.addr, /*is_store=*/false).hit) {
    banked_->Fill(req.addr, /*dirty=*/false, /*prefetched=*/false);
    latency += banked_->config().miss_latency;
  }
  if (config_.mode == MemTimingMode::kFatTree ||
      config_.mode == MemTimingMode::kButterfly) {
    // The response starts its return trip once the cache latency elapses.
    pending_downs_.push_back({now_ + static_cast<std::uint64_t>(latency), req});
    return;
  }
  CompleteAt(now_ + static_cast<std::uint64_t>(latency), req);
}

void MemorySystem::Tick() {
  ++now_;
  if (banked_) banked_->NewCycle();

  // Chain misses whose lookup latencies have elapsed enter the backing tier
  // this cycle.
  if (!hier_pending_.empty()) {
    std::size_t keep = 0;
    for (auto& [ready, req] : hier_pending_) {
      if (ready <= now_) {
        DispatchToBacking(req);
      } else {
        hier_pending_[keep++] = {ready, req};
      }
    }
    hier_pending_.resize(keep);
  }
  // Prefetched blocks land in every level, outermost first, once their fill
  // latency elapses; only the innermost copy counts as prefetched. Prefetch
  // fills never charge anyone a write-back penalty (there is no demand
  // access to charge), but dirty victims still count in the stats.
  if (!prefetch_fills_.empty()) {
    std::size_t keep = 0;
    for (auto& [ready, block] : prefetch_fills_) {
      if (ready <= now_) {
        for (std::size_t k = levels_.size(); k-- > 0;) {
          levels_[k].caches.front().Fill(block, /*dirty=*/false,
                                         /*prefetched=*/k == 0);
        }
      } else {
        prefetch_fills_[keep++] = {ready, block};
      }
    }
    prefetch_fills_.resize(keep);
  }

  switch (config_.mode) {
    case MemTimingMode::kMagic:
      break;
    case MemTimingMode::kBandwidthLimited: {
      // Retried bank-conflict requests compete for bandwidth first.
      int budget = ops_per_cycle_;
      while (budget > 0 && !root_retry_queue_.empty()) {
        Request req = root_retry_queue_.front();
        root_retry_queue_.pop();
        --budget;
        ServiceAtCache(req);
      }
      while (budget > 0 && !admission_queue_.empty()) {
        Request req = admission_queue_.front();
        admission_queue_.pop();
        --budget;
        ServiceAtCache(req);
      }
      break;
    }
    case MemTimingMode::kFatTree: {
      network_->Tick();
      for (const std::uint64_t id : network_->DrainRoot()) {
        const auto it = in_network_.find(id);
        assert(it != in_network_.end());
        ServiceAtCache(it->second);
      }
      // Bank-conflict retries at the root.
      const std::size_t retries = root_retry_queue_.size();
      for (std::size_t i = 0; i < retries; ++i) {
        Request req = root_retry_queue_.front();
        root_retry_queue_.pop();
        ServiceAtCache(req);
      }
      // Responses whose cache latency has elapsed start the downward trip.
      std::vector<std::pair<std::uint64_t, Request>> still_waiting;
      for (auto& [ready, req] : pending_downs_) {
        if (ready <= now_) {
          network_->SubmitDown(req.leaf, req.id);
        } else {
          still_waiting.emplace_back(ready, req);
        }
      }
      pending_downs_ = std::move(still_waiting);
      for (const auto& delivery : network_->DrainLeaves()) {
        const auto it = in_network_.find(delivery.id);
        assert(it != in_network_.end());
        CompleteAt(now_, it->second);
        in_network_.erase(it);
      }
      break;
    }
    case MemTimingMode::kButterfly: {
      butterfly_->Tick();
      for (const auto& arrival : butterfly_->DrainForward()) {
        const auto it = in_network_.find(arrival.id);
        assert(it != in_network_.end());
        ServiceAtCache(it->second);
      }
      const std::size_t retries = root_retry_queue_.size();
      for (std::size_t i = 0; i < retries; ++i) {
        Request req = root_retry_queue_.front();
        root_retry_queue_.pop();
        ServiceAtCache(req);
      }
      std::vector<std::pair<std::uint64_t, Request>> still_waiting;
      for (auto& [ready, req] : pending_downs_) {
        if (ready <= now_) {
          butterfly_->SubmitReverse(ButterflyPort(req.addr), req.leaf,
                                    req.id);
        } else {
          still_waiting.emplace_back(ready, req);
        }
      }
      pending_downs_ = std::move(still_waiting);
      for (const auto& arrival : butterfly_->DrainReverse()) {
        const auto it = in_network_.find(arrival.id);
        assert(it != in_network_.end());
        CompleteAt(now_, it->second);
        in_network_.erase(it);
      }
      break;
    }
  }

  // Publish completions due this cycle.
  while (!completions_.empty() && completions_.begin()->first <= now_) {
    for (const auto& resp : completions_.begin()->second) {
      completed_.push_back(resp);
    }
    completions_.erase(completions_.begin());
  }
}

std::vector<MemResponse> MemorySystem::DrainCompleted() {
  auto out = std::move(completed_);
  completed_.clear();
  return out;
}

void MemorySystem::SaveState(persist::Encoder& e) const {
  const auto save_request = [&e](const Request& req) {
    e.U64(req.id);
    e.I32(req.leaf);
    e.Bool(req.is_store);
    e.U32(req.addr);
    e.U32(req.loaded_value);
  };
  const auto save_queue = [&](const std::queue<Request>& q) {
    std::queue<Request> copy = q;
    e.U32(static_cast<std::uint32_t>(copy.size()));
    while (!copy.empty()) {
      save_request(copy.front());
      copy.pop();
    }
  };

  e.U64(next_id_);
  e.U64(now_);
  save_queue(admission_queue_);
  save_queue(root_retry_queue_);

  e.U32(static_cast<std::uint32_t>(pending_downs_.size()));
  for (const auto& [ready, req] : pending_downs_) {
    e.U64(ready);
    save_request(req);
  }

  e.U32(static_cast<std::uint32_t>(completions_.size()));
  for (const auto& [cycle, resps] : completions_) {  // std::map: sorted.
    e.U64(cycle);
    e.U32(static_cast<std::uint32_t>(resps.size()));
    for (const auto& resp : resps) {
      e.U64(resp.id);
      e.Bool(resp.is_store);
      e.U32(resp.value);
    }
  }

  // Hash map: emit sorted by id for deterministic bytes.
  std::vector<std::uint64_t> ids;
  ids.reserve(in_network_.size());
  for (const auto& [id, req] : in_network_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  e.U32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint64_t id : ids) save_request(in_network_.at(id));

  e.U32(static_cast<std::uint32_t>(completed_.size()));
  for (const auto& resp : completed_) {
    e.U64(resp.id);
    e.Bool(resp.is_store);
    e.U32(resp.value);
  }

  store_.SaveState(e);
  e.Bool(banked_.has_value());
  if (banked_) banked_->SaveState(e);
  e.Bool(network_ != nullptr);
  if (network_ != nullptr) network_->SaveState(e);
  e.Bool(butterfly_ != nullptr);
  if (butterfly_ != nullptr) butterfly_->SaveState(e);

  // Chain state: in-flight misses, queued prefetch fills, the levels.
  e.U32(static_cast<std::uint32_t>(hier_pending_.size()));
  for (const auto& [ready, req] : hier_pending_) {
    e.U64(ready);
    save_request(req);
  }
  e.U32(static_cast<std::uint32_t>(prefetch_fills_.size()));
  for (const auto& [ready, block] : prefetch_fills_) {
    e.U64(ready);
    e.U32(block);
  }
  e.U64(prefetch_issued_);
  e.U32(static_cast<std::uint32_t>(levels_.size()));
  for (const Level& level : levels_) {
    e.U8(static_cast<std::uint8_t>(level.role));
    e.U32(static_cast<std::uint32_t>(level.caches.size()));
    for (const CacheLevelModel& cache : level.caches) cache.SaveState(e);
  }
  e.Bool(prefetcher_ != nullptr);
  if (prefetcher_ != nullptr) prefetcher_->SaveState(e);
}

void MemorySystem::RestoreState(persist::Decoder& d) {
  const auto restore_request = [&d]() {
    Request req;
    req.id = d.U64();
    req.leaf = d.I32();
    req.is_store = d.Bool();
    req.addr = d.U32();
    req.loaded_value = d.U32();
    return req;
  };
  const auto restore_queue = [&](std::queue<Request>& q) {
    q = {};
    const std::uint32_t n = d.U32();
    for (std::uint32_t i = 0; i < n; ++i) q.push(restore_request());
  };

  next_id_ = d.U64();
  now_ = d.U64();
  restore_queue(admission_queue_);
  restore_queue(root_retry_queue_);

  pending_downs_.clear();
  const std::uint32_t num_pending = d.U32();
  pending_downs_.reserve(num_pending);
  for (std::uint32_t i = 0; i < num_pending; ++i) {
    const std::uint64_t ready = d.U64();
    pending_downs_.emplace_back(ready, restore_request());
  }

  completions_.clear();
  const std::uint32_t num_completion_cycles = d.U32();
  for (std::uint32_t i = 0; i < num_completion_cycles; ++i) {
    const std::uint64_t cycle = d.U64();
    const std::uint32_t count = d.U32();
    auto& resps = completions_[cycle];
    resps.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) {
      MemResponse resp;
      resp.id = d.U64();
      resp.is_store = d.Bool();
      resp.value = d.U32();
      resps.push_back(resp);
    }
  }

  in_network_.clear();
  const std::uint32_t num_in_network = d.U32();
  in_network_.reserve(num_in_network);
  for (std::uint32_t i = 0; i < num_in_network; ++i) {
    Request req = restore_request();
    in_network_.emplace(req.id, req);
  }

  completed_.clear();
  const std::uint32_t num_completed = d.U32();
  completed_.reserve(num_completed);
  for (std::uint32_t i = 0; i < num_completed; ++i) {
    MemResponse resp;
    resp.id = d.U64();
    resp.is_store = d.Bool();
    resp.value = d.U32();
    completed_.push_back(resp);
  }

  store_.RestoreState(d);
  if (d.Bool() != banked_.has_value()) {
    throw persist::FormatError("memory mode mismatch (banked cache)");
  }
  if (banked_) banked_->RestoreState(d);
  if (d.Bool() != (network_ != nullptr)) {
    throw persist::FormatError("memory mode mismatch (fat tree)");
  }
  if (network_ != nullptr) network_->RestoreState(d);
  if (d.Bool() != (butterfly_ != nullptr)) {
    throw persist::FormatError("memory mode mismatch (butterfly)");
  }
  if (butterfly_ != nullptr) butterfly_->RestoreState(d);

  hier_pending_.clear();
  const std::uint32_t num_hier = d.U32();
  hier_pending_.reserve(std::min<std::size_t>(num_hier, d.remaining()));
  for (std::uint32_t i = 0; i < num_hier; ++i) {
    const std::uint64_t ready = d.U64();
    hier_pending_.emplace_back(ready, restore_request());
  }
  prefetch_fills_.clear();
  const std::uint32_t num_prefetch = d.U32();
  prefetch_fills_.reserve(std::min<std::size_t>(num_prefetch, d.remaining()));
  for (std::uint32_t i = 0; i < num_prefetch; ++i) {
    const std::uint64_t ready = d.U64();
    const isa::Word block = d.U32();
    prefetch_fills_.emplace_back(ready, block);
  }
  prefetch_issued_ = d.U64();
  if (d.U32() != levels_.size()) {
    throw persist::FormatError("memory cache chain mismatch");
  }
  for (Level& level : levels_) {
    if (d.U8() != static_cast<std::uint8_t>(level.role) ||
        d.U32() != level.caches.size()) {
      throw persist::FormatError("memory cache chain mismatch");
    }
    for (CacheLevelModel& cache : level.caches) cache.RestoreState(d);
  }
  if (d.Bool() != (prefetcher_ != nullptr)) {
    throw persist::FormatError("memory hierarchy mismatch (prefetcher)");
  }
  if (prefetcher_ != nullptr) prefetcher_->RestoreState(d);
}

}  // namespace ultra::memory
