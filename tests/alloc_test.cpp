// Steady-state allocation test for the cycle loops (own binary: it
// replaces the global allocator).
//
// Every global operator new is counted, the nothrow forms included
// (std::stable_sort takes its buffer from nothrow new), and every operator
// delete frees what they allocate. For each processor model we run the same
// configuration on a short and on a long ALU-only workload; if any cycle
// phase allocated, the long run's allocation count would exceed the short
// run's by at least the extra simulated cycles (hundreds). The allowed
// delta only covers amortized container growth that is proportional to
// *results*, not cycles: the fetch buffer doubles O(log extra_instructions)
// times.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/core.hpp"
#include "fault/fault_plan.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* CountedAlignedAlloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  if (void* p = std::aligned_alloc(align, (size + align - 1) / align * align))
    return p;
  throw std::bad_alloc();
}

template <typename Alloc>
void* OrNull(Alloc&& alloc) noexcept {
  try {
    return alloc();
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return OrNull([&] { return CountedAlloc(size); });
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return OrNull([&] { return CountedAlloc(size); });
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return OrNull([&] {
    return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  });
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return OrNull([&] {
    return CountedAlignedAlloc(size, static_cast<std::size_t>(align));
  });
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ultra {
namespace {

using core::CoreConfig;
using core::ProcessorKind;

struct RunCost {
  std::uint64_t allocations = 0;
  std::uint64_t cycles = 0;
  std::uint64_t committed = 0;
};

RunCost MeasuredRun(ProcessorKind kind, const CoreConfig& cfg,
                    const isa::Program& program) {
  auto proc = core::MakeProcessor(kind, cfg);
  const std::uint64_t before = g_allocations.load();
  const auto result = proc->Run(program);
  RunCost cost;
  cost.allocations = g_allocations.load() - before;
  cost.cycles = result.cycles;
  cost.committed = result.committed;
  EXPECT_TRUE(result.halted);
  return cost;
}

class SteadyStateAllocations : public testing::TestWithParam<ProcessorKind> {
};

TEST_P(SteadyStateAllocations, CycleLoopDoesNotTouchTheAllocator) {
  const ProcessorKind kind = GetParam();
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  // ALU-only dependency chains: no memory traffic, no branches, so the
  // steady state exercises exactly the per-cycle phases (datapath
  // propagation, sequencing, scheduling, execute, commit, fetch).
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run = MeasuredRun(kind, cfg, short_prog);
  const RunCost long_run = MeasuredRun(kind, cfg, long_prog);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);

  // Per-run setup (state buffers, predictor, memory model) costs the same
  // in both runs and cancels in the delta; a single allocation per cycle
  // would put the delta above the extra-cycle count.
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  const std::uint64_t extra_cycles = long_run.cycles - short_run.cycles;
  EXPECT_LT(delta, 64u) << "long run: " << long_run.allocations
                        << " allocations over " << long_run.cycles
                        << " cycles; short run: " << short_run.allocations
                        << " over " << short_run.cycles;
  EXPECT_LT(delta * 8, extra_cycles);
}

/// Telemetry variant of the short-vs-long methodology. The sink is fresh
/// per run, so the registration/bind allocations at the top of Run() cost
/// the same in both runs and cancel in the delta; what the delta isolates
/// is the per-cycle hook cost, which must be zero. The tracer ring is
/// pre-sized outside the measured region -- overwriting a full ring is the
/// designed steady state and must not allocate either.
RunCost MeasuredTelemetryRun(ProcessorKind kind, const CoreConfig& base,
                             const isa::Program& program, bool metrics,
                             bool trace) {
  telemetry::PipelineTracer tracer({.capacity = std::size_t{1} << 14});
  telemetry::RunTelemetry telem;
  telem.metrics_enabled = metrics;
  if (trace) telem.tracer = &tracer;
  CoreConfig cfg = base;
  cfg.telemetry = &telem;
  return MeasuredRun(kind, cfg, program);
}

TEST_P(SteadyStateAllocations, TelemetryDisabledAddsNoAllocations) {
  const ProcessorKind kind = GetParam();
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run =
      MeasuredTelemetryRun(kind, cfg, short_prog, false, false);
  const RunCost long_run =
      MeasuredTelemetryRun(kind, cfg, long_prog, false, false);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  EXPECT_LT(delta, 64u);
  EXPECT_LT(delta * 8, long_run.cycles - short_run.cycles);
}

TEST_P(SteadyStateAllocations, TelemetryEnabledStaysAllocationFree) {
  const ProcessorKind kind = GetParam();
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run =
      MeasuredTelemetryRun(kind, cfg, short_prog, true, true);
  const RunCost long_run =
      MeasuredTelemetryRun(kind, cfg, long_prog, true, true);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  EXPECT_LT(delta, 64u);
  EXPECT_LT(delta * 8, long_run.cycles - short_run.cycles);
}

TEST_P(SteadyStateAllocations, PackedCycleLoopDoesNotTouchTheAllocator) {
  const ProcessorKind kind = GetParam();
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.datapath_eval = core::DatapathEval::kPacked;
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run = MeasuredRun(kind, cfg, short_prog);
  const RunCost long_run = MeasuredRun(kind, cfg, long_prog);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  const std::uint64_t extra_cycles = long_run.cycles - short_run.cycles;
  EXPECT_LT(delta, 64u) << "long run: " << long_run.allocations
                        << " allocations over " << long_run.cycles
                        << " cycles; short run: " << short_run.allocations
                        << " over " << short_run.cycles;
  EXPECT_LT(delta * 8, extra_cycles);
}

// The fallback-free packed loops keep store forwarding and the telemetry
// hooks inside the word-parallel walk; with both engaged the steady state
// must still stay off the allocator.
TEST_P(SteadyStateAllocations, PackedForwardingTelemetryStaysAllocationFree) {
  const ProcessorKind kind = GetParam();
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.datapath_eval = core::DatapathEval::kPacked;
  cfg.store_forwarding = true;
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run =
      MeasuredTelemetryRun(kind, cfg, short_prog, true, true);
  const RunCost long_run =
      MeasuredTelemetryRun(kind, cfg, long_prog, true, true);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  EXPECT_LT(delta, 64u) << "long run: " << long_run.allocations
                        << " allocations over " << long_run.cycles
                        << " cycles; short run: " << short_run.allocations
                        << " over " << short_run.cycles;
  EXPECT_LT(delta * 8, long_run.cycles - short_run.cycles);
}

// Fault plans run on the packed loop too: staging events, corrupting the
// cached arguments, stalls and forced squashes must all stay off the
// allocator. The plan is built before the measured region; its value
// corruptions and forced squashes keep the ALU-only runs halting.
TEST_P(SteadyStateAllocations, PackedFaultPlanStaysAllocationFree) {
  const ProcessorKind kind = GetParam();
  constexpr fault::FaultKind kinds[] = {fault::FaultKind::kCorruptValue,
                                        fault::FaultKind::kStallStation,
                                        fault::FaultKind::kForceMispredict};
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kMagic;
  cfg.datapath_eval = core::DatapathEval::kPacked;
  cfg.fault_plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::Random(5, 0.02, 100'000, kinds));
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run = MeasuredRun(kind, cfg, short_prog);
  const RunCost long_run = MeasuredRun(kind, cfg, long_prog);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  EXPECT_LT(delta, 64u) << "long run: " << long_run.allocations
                        << " allocations over " << long_run.cycles
                        << " cycles; short run: " << short_run.allocations
                        << " over " << short_run.cycles;
  EXPECT_LT(delta * 8, long_run.cycles - short_run.cycles);
}

// The butterfly memory network is ticked every cycle, in flight or idle.
// With no load or store in the program no message ever enters it, so its
// idle nodes must not allocate.
TEST_P(SteadyStateAllocations, ButterflyMemoryStaysAllocationFree) {
  const ProcessorKind kind = GetParam();
  CoreConfig cfg;
  cfg.window_size = 32;
  cfg.cluster_size = 8;
  cfg.mem.mode = memory::MemTimingMode::kButterfly;
  const auto short_prog = workloads::DependencyChains(
      {.num_instructions = 512, .ilp = 4, .seed = 11});
  const auto long_prog = workloads::DependencyChains(
      {.num_instructions = 4096, .ilp = 4, .seed = 11});

  const RunCost short_run = MeasuredRun(kind, cfg, short_prog);
  const RunCost long_run = MeasuredRun(kind, cfg, long_prog);
  ASSERT_GT(long_run.cycles, short_run.cycles + 500u);
  const std::uint64_t delta = long_run.allocations - short_run.allocations;
  EXPECT_LT(delta, 64u) << "long run: " << long_run.allocations
                        << " allocations over " << long_run.cycles
                        << " cycles; short run: " << short_run.allocations
                        << " over " << short_run.cycles;
  EXPECT_LT(delta * 8, long_run.cycles - short_run.cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllCores, SteadyStateAllocations,
    testing::Values(ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
                    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid),
    [](const auto& info) {
      return std::string(core::ProcessorKindName(info.param));
    });

}  // namespace
}  // namespace ultra
