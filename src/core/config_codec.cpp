#include "core/config_codec.hpp"

#include <string>

#include "fault/plan_codec.hpp"

namespace ultra::core {

namespace {

constexpr int kNumOpClasses = 9;  // See isa::OpClass.

void EncodeCacheLevel(persist::Encoder& e,
                      const memory::CacheLevelConfig& level) {
  e.Bool(level.enabled);
  e.I32(level.sets);
  e.I32(level.ways);
  e.I32(level.block_bytes);
  e.I32(level.hit_latency);
  e.I32(level.miss_latency);
}

memory::CacheLevelConfig DecodeCacheLevel(persist::Decoder& d) {
  memory::CacheLevelConfig level;
  level.enabled = d.Bool();
  level.sets = d.I32();
  level.ways = d.I32();
  level.block_bytes = d.I32();
  level.hit_latency = d.I32();
  level.miss_latency = d.I32();
  return level;
}

void EncodeMemConfig(persist::Encoder& e, const memory::MemoryConfig& mem) {
  e.U8(static_cast<std::uint8_t>(mem.mode));
  e.I32(mem.magic_load_latency);
  e.I32(mem.magic_store_latency);
  e.I32(mem.cache.num_banks);
  e.I32(mem.cache.sets_per_bank);
  e.I32(mem.cache.ways);
  e.I32(mem.cache.line_bytes);
  e.I32(mem.cache.hit_latency);
  e.I32(mem.cache.miss_penalty);
  e.I32(mem.cache.ports_per_bank);
  e.U8(static_cast<std::uint8_t>(mem.regime));
  e.F64(mem.bandwidth_scale);
  e.I32(mem.cluster_cache_leaves);
  e.I32(mem.cluster_cache_words);
  e.I32(mem.cluster_cache_hit_latency);
  EncodeCacheLevel(e, mem.hierarchy.l1i);
  EncodeCacheLevel(e, mem.hierarchy.l1d);
  EncodeCacheLevel(e, mem.hierarchy.l2);
  e.I32(mem.hierarchy.prefetch.depth);
  e.I32(mem.hierarchy.prefetch.table_entries);
  e.I32(mem.hierarchy.prefetch.fill_latency);
}

memory::MemoryConfig DecodeMemConfig(persist::Decoder& d) {
  memory::MemoryConfig mem;
  const std::uint8_t mode = d.U8();
  if (mode > static_cast<std::uint8_t>(memory::MemTimingMode::kButterfly)) {
    throw persist::FormatError("bad memory timing mode");
  }
  mem.mode = static_cast<memory::MemTimingMode>(mode);
  mem.magic_load_latency = d.I32();
  mem.magic_store_latency = d.I32();
  mem.cache.num_banks = d.I32();
  mem.cache.sets_per_bank = d.I32();
  mem.cache.ways = d.I32();
  mem.cache.line_bytes = d.I32();
  mem.cache.hit_latency = d.I32();
  mem.cache.miss_penalty = d.I32();
  mem.cache.ports_per_bank = d.I32();
  const std::uint8_t regime = d.U8();
  if (regime > static_cast<std::uint8_t>(memory::BandwidthRegime::kLinear)) {
    throw persist::FormatError("bad bandwidth regime");
  }
  mem.regime = static_cast<memory::BandwidthRegime>(regime);
  mem.bandwidth_scale = d.F64();
  mem.cluster_cache_leaves = d.I32();
  mem.cluster_cache_words = d.I32();
  mem.cluster_cache_hit_latency = d.I32();
  mem.hierarchy.l1i = DecodeCacheLevel(d);
  mem.hierarchy.l1d = DecodeCacheLevel(d);
  mem.hierarchy.l2 = DecodeCacheLevel(d);
  mem.hierarchy.prefetch.depth = d.I32();
  mem.hierarchy.prefetch.table_entries = d.I32();
  mem.hierarchy.prefetch.fill_latency = d.I32();
  // The cache models assert their geometry: corrupt input must be a
  // FormatError, never an abort.
  if (const std::string error = memory::CacheGeometryError(mem);
      !error.empty()) {
    throw persist::FormatError("bad memory config: " + error);
  }
  return mem;
}

}  // namespace

void EncodeCoreConfig(persist::Encoder& e, const CoreConfig& config) {
  e.I32(config.window_size);
  e.I32(config.num_regs);
  e.I32(config.cluster_size);
  e.I32(config.fetch_width);
  e.U8(static_cast<std::uint8_t>(config.fetch_mode));
  e.I32(config.trace_cache_capacity);
  e.I32(config.trace_branches);
  e.U8(static_cast<std::uint8_t>(config.predictor));
  for (int c = 0; c < kNumOpClasses; ++c) {
    e.I32(config.latencies.Cycles(static_cast<isa::OpClass>(c)));
  }
  EncodeMemConfig(e, config.mem);
  e.U64(config.max_cycles);
  e.I32(config.num_alus);
  e.Bool(config.store_forwarding);
  e.I32(config.pipeline_levels_per_stage);
  e.U8(static_cast<std::uint8_t>(config.datapath_eval));
  e.I32(config.checker_stride);
  e.Bool(config.fault_plan != nullptr);
  if (config.fault_plan != nullptr) {
    fault::EncodeFaultPlan(e, *config.fault_plan);
  }
}

CoreConfig DecodeCoreConfig(persist::Decoder& d) {
  CoreConfig config;
  config.window_size = d.I32();
  config.num_regs = d.I32();
  config.cluster_size = d.I32();
  config.fetch_width = d.I32();
  const std::uint8_t fetch_mode = d.U8();
  if (fetch_mode > static_cast<std::uint8_t>(FetchMode::kTraceCache)) {
    throw persist::FormatError("bad fetch mode");
  }
  config.fetch_mode = static_cast<FetchMode>(fetch_mode);
  config.trace_cache_capacity = d.I32();
  config.trace_branches = d.I32();
  const std::uint8_t predictor = d.U8();
  if (predictor > static_cast<std::uint8_t>(PredictorKind::kOracle)) {
    throw persist::FormatError("bad predictor kind");
  }
  config.predictor = static_cast<PredictorKind>(predictor);
  for (int c = 0; c < kNumOpClasses; ++c) {
    const std::int32_t cycles = d.I32();
    // Validate before LatencyModel::Set, whose >= 1 contract is an assert:
    // corrupt input must be a FormatError, never an abort.
    if (cycles < 1) {
      throw persist::FormatError("bad op-class latency");
    }
    config.latencies.Set(static_cast<isa::OpClass>(c), cycles);
  }
  config.mem = DecodeMemConfig(d);
  config.max_cycles = d.U64();
  config.num_alus = d.I32();
  config.store_forwarding = d.Bool();
  config.pipeline_levels_per_stage = d.I32();
  const std::uint8_t eval = d.U8();
  if (eval > static_cast<std::uint8_t>(DatapathEval::kPacked)) {
    throw persist::FormatError("bad datapath eval mode");
  }
  config.datapath_eval = static_cast<DatapathEval>(eval);
  config.checker_stride = d.I32();
  if (d.Bool()) {
    config.fault_plan = std::make_shared<const fault::FaultPlan>(
        fault::DecodeFaultPlan(d));
  }
  return config;
}

std::uint64_t FingerprintConfig(const CoreConfig& config) {
  persist::Encoder e;
  EncodeCoreConfig(e, config);
  return persist::Fnv1a64(e.bytes());
}

}  // namespace ultra::core
