#include "core/config.hpp"

#include <stdexcept>
#include <string>

namespace ultra::core {

void CoreConfig::Validate(bool for_hybrid) const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("CoreConfig: " + what);
  };
  if (window_size <= 0) {
    fail("window_size must be positive, got " + std::to_string(window_size));
  }
  if (num_regs <= 0) {
    fail("num_regs must be positive, got " + std::to_string(num_regs));
  }
  if (num_regs > isa::kMaxLogicalRegisters) {
    fail("num_regs must be at most " +
         std::to_string(isa::kMaxLogicalRegisters) +
         " (the registers the ISA can name), got " + std::to_string(num_regs));
  }
  if (max_cycles == 0) {
    fail("max_cycles must be nonzero (a zero budget can never commit)");
  }
  if (num_alus < 0) {
    fail("num_alus must be >= 0 (0 = one ALU per station), got " +
         std::to_string(num_alus));
  }
  if (fetch_width < 0) {
    fail("fetch_width must be >= 0 (0 = window-wide), got " +
         std::to_string(fetch_width));
  }
  if (pipeline_levels_per_stage < 0) {
    fail("pipeline_levels_per_stage must be >= 0, got " +
         std::to_string(pipeline_levels_per_stage));
  }
  if (fetch_mode == FetchMode::kTraceCache) {
    if (trace_cache_capacity <= 0) {
      fail("trace_cache_capacity must be positive, got " +
           std::to_string(trace_cache_capacity));
    }
    if (trace_branches < 0) {
      fail("trace_branches must be >= 0, got " +
           std::to_string(trace_branches));
    }
  }
  if (datapath_eval == DatapathEval::kChecked && checker_stride < 1) {
    fail("checker_stride must be >= 1 in checked mode, got " +
         std::to_string(checker_stride));
  }
  if (fault_plan && datapath_eval != DatapathEval::kPacked &&
      datapath_eval != DatapathEval::kChecked) {
    fail("fault_plan requires datapath_eval packed or checked (faults "
         "corrupt the packed path's cached station arguments, which the "
         "incremental and full-recompute paths do not keep)");
  }
  if (const std::string error = memory::CacheGeometryError(mem);
      !error.empty()) {
    fail(error);
  }
  if (mem.hierarchy.prefetch.depth > 0 && !mem.hierarchy.DataPathEnabled()) {
    fail("mem.hierarchy.prefetch.depth > 0 requires an enabled L1D or L2 "
         "level to prefetch into");
  }
  if (mem.hierarchy.DataPathEnabled() && mem.cluster_cache_leaves > 0) {
    fail("mem.hierarchy L1D/L2 and cluster caches are mutually exclusive "
         "locality models; enable one or the other");
  }
  if (for_hybrid && (cluster_size < 1 || cluster_size > window_size)) {
    fail("hybrid cluster_size must lie in [1, window_size]: C = " +
         std::to_string(cluster_size) + ", n = " +
         std::to_string(window_size));
  }
}

}  // namespace ultra::core
