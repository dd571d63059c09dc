// Simulator throughput benchmark (engineering, not a paper figure).
//
// Measures how fast the cycle-level models themselves run -- simulated
// cycles per wall second and committed instructions per wall second -- for
// every core kind across window sizes and workloads under the default
// datapath evaluation (CoreConfig::datapath_eval = kIncremental: the
// incremental loop on the three scalable cores, the packed loop on Ideal),
// and compares the incremental evaluation against the full-recompute
// reference path on the largest Ultrascalar I configuration. The
// incremental path re-runs only dirty register columns and never allocates
// in steady state, so its advantage grows with n * L. At the largest window
// it also times every core's bit-packed path against a different loop (a
// differential guard: both must agree) -- the incremental one on the
// scalable cores, the full-recompute reference on Ideal -- the packed and
// checked paths under a fault plan against clean packed, and the cost of
// each squashed instruction on packed BubbleSort(32), BTFN against the
// oracle predictor.
//
// Points are dispatched through runtime::SweepRunner (single worker by
// default so per-point wall times are not corrupted by oversubscription);
// each point's wall_seconds comes from the runner.
//
// Usage: bench_sim_throughput [--quick] [--threads=N] [--json=PATH]
//   --quick    smaller grid and shorter workloads (CI smoke run)
//   --json     output path (default BENCH_sim_throughput.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/table.hpp"
#include "core/core.hpp"
#include "core/functional_sim_cache.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/telemetry.hpp"
#include "workloads/workloads.hpp"

namespace {

struct Options {
  bool quick = false;
  int threads = 1;
  std::string json_path = "BENCH_sim_throughput.json";
};

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opt.quick = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      opt.threads = std::atoi(arg.c_str() + std::strlen("--threads="));
    } else if (arg.rfind("--json=", 0) == 0) {
      opt.json_path = arg.substr(std::strlen("--json="));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    }
  }
  return opt;
}

const char* EvalName(ultra::core::DatapathEval eval) {
  switch (eval) {
    case ultra::core::DatapathEval::kFullRecompute:
      return "full";
    case ultra::core::DatapathEval::kIncremental:
      return "incremental";
    case ultra::core::DatapathEval::kChecked:
      return "checked";
    case ultra::core::DatapathEval::kPacked:
      return "packed";
  }
  return "unknown";
}

double PerSecond(std::uint64_t count, double seconds) {
  return seconds > 0.0 ? static_cast<double>(count) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ultra;
  const Options opt = ParseArgs(argc, argv);
  std::printf("=== Simulator throughput (cycles/sec, instructions/sec) ===\n");
  std::printf("mode: %s\n\n", opt.quick ? "quick" : "full");

  struct Workload {
    std::string name;
    std::shared_ptr<const isa::Program> program;
  };
  const int chain_len = opt.quick ? 2048 : 8192;
  const int mix_len = opt.quick ? 1024 : 4096;
  const std::vector<Workload> suite = {
      {"chains(ilp=4)",
       std::make_shared<isa::Program>(workloads::DependencyChains(
           {.num_instructions = chain_len, .ilp = 4}))},
      {"mix", std::make_shared<isa::Program>(
                  workloads::RandomMix({.num_instructions = mix_len}))},
  };
  const std::vector<int> windows =
      opt.quick ? std::vector<int>{64, 256} : std::vector<int>{64, 256, 1024};
  const int L = 32;
  const core::ProcessorKind kinds[] = {
      core::ProcessorKind::kIdeal, core::ProcessorKind::kUltrascalarI,
      core::ProcessorKind::kUltrascalarII, core::ProcessorKind::kHybrid};

  // --- Grid: every core kind, incremental evaluation. ---
  std::vector<runtime::SweepPoint> points;
  for (const auto kind : kinds) {
    for (const auto& w : suite) {
      for (const int n : windows) {
        runtime::SweepPoint point;
        point.kind = kind;
        point.config.window_size = n;
        point.config.num_regs = L;
        point.config.mem.mode = memory::MemTimingMode::kMagic;
        point.program = w.program;
        point.workload = w.name;
        points.push_back(std::move(point));
      }
    }
  }
  // --- Comparison: the largest Ultrascalar I window, both eval paths. ---
  const int big_n = opt.quick ? windows.back() : 1024;
  const std::size_t compare_base = points.size();
  for (const auto eval :
       {core::DatapathEval::kFullRecompute, core::DatapathEval::kIncremental}) {
    runtime::SweepPoint point;
    point.kind = core::ProcessorKind::kUltrascalarI;
    point.config.window_size = big_n;
    point.config.num_regs = L;
    point.config.datapath_eval = eval;
    point.config.mem.mode = memory::MemTimingMode::kMagic;
    point.program = suite[0].program;
    point.workload = suite[0].name;
    points.push_back(std::move(point));
  }
  // --- Packed comparison: every kind at the largest window, bit-packed
  // word-parallel evaluation against a baseline loop. Also a differential
  // guard: the two loops must agree cycle-for-cycle. Ideal's default already
  // runs its packed loop, so its baseline is the full-recompute reference. ---
  const auto baseline_eval = [](core::ProcessorKind kind) {
    return kind == core::ProcessorKind::kIdeal
               ? core::DatapathEval::kFullRecompute
               : core::DatapathEval::kIncremental;
  };
  const std::size_t packed_base = points.size();
  for (const auto kind : kinds) {
    for (const auto eval : {baseline_eval(kind), core::DatapathEval::kPacked}) {
      runtime::SweepPoint point;
      point.kind = kind;
      point.config.window_size = big_n;
      point.config.num_regs = L;
      point.config.datapath_eval = eval;
      point.config.mem.mode = memory::MemTimingMode::kMagic;
      point.program = suite[0].program;
      point.workload = suite[0].name;
      points.push_back(std::move(point));
    }
  }
  // --- Fault plans on the packed loop: every scalable core at the largest
  // window, unchecked and checked, under one plan. Its value corruptions,
  // stalls and forced squashes cannot withhold an operand forever, so the
  // unchecked runs finish too (a dropped delivery or ready flip can wedge
  // a station until the checker repairs it). ---
  constexpr fault::FaultKind kPlanKinds[] = {
      fault::FaultKind::kCorruptValue, fault::FaultKind::kStallStation,
      fault::FaultKind::kForceMispredict};
  const auto plan = std::make_shared<const fault::FaultPlan>(
      fault::FaultPlan::Random(17, 0.01, 20'000, kPlanKinds));
  const core::ProcessorKind scalable[] = {core::ProcessorKind::kUltrascalarI,
                                          core::ProcessorKind::kUltrascalarII,
                                          core::ProcessorKind::kHybrid};
  const std::size_t fault_base = points.size();
  for (const auto kind : scalable) {
    for (const auto eval :
         {core::DatapathEval::kPacked, core::DatapathEval::kChecked}) {
      runtime::SweepPoint point;
      point.kind = kind;
      point.config.window_size = big_n;
      point.config.num_regs = L;
      point.config.datapath_eval = eval;
      point.config.mem.mode = memory::MemTimingMode::kMagic;
      point.config.fault_plan = plan;
      point.program = suite[0].program;
      point.workload = suite[0].name;
      points.push_back(std::move(point));
    }
  }
  // --- Wrong-path cost: packed BubbleSort(32) at the largest window under
  // BTFN and under the oracle predictor, which fetches no wrong path. Each
  // run repeats and the best wall time counts. The oracle's functional
  // pre-run is cached before the sweep so no point pays for it. ---
  constexpr int kWrongPathRepeats = 3;
  const core::PredictorKind wrong_path_predictors[] = {
      core::PredictorKind::kBtfn, core::PredictorKind::kOracle};
  const auto sort =
      std::make_shared<const isa::Program>(workloads::BubbleSort(32));
  (void)core::FunctionalSimCache::Global().Get(*sort, L);
  const std::size_t wrong_path_base = points.size();
  for (const auto kind : kinds) {
    for (const auto predictor : wrong_path_predictors) {
      for (int r = 0; r < kWrongPathRepeats; ++r) {
        runtime::SweepPoint point;
        point.kind = kind;
        point.config.window_size = big_n;
        point.config.num_regs = L;
        point.config.datapath_eval = core::DatapathEval::kPacked;
        point.config.predictor = predictor;
        point.config.mem.mode = memory::MemTimingMode::kMagic;
        point.program = sort;
        point.workload = predictor == core::PredictorKind::kOracle
                             ? "sort(32)/oracle"
                             : "sort(32)/btfn";
        points.push_back(std::move(point));
      }
    }
  }

  // Batching off for the measurement grid: lockstep followers would adopt
  // their leader's result without running, zeroing the per-point wall times
  // this benchmark exists to measure. The ensemble section below measures
  // batching itself.
  const runtime::SweepRunner runner(
      {.num_threads = opt.threads, .ensemble_batching = false});
  const auto outcomes = runner.Run(points);
  for (const auto& o : outcomes) {
    if (!o.ok) {
      std::fprintf(stderr, "point %zu failed: %s\n", o.index,
                   o.error.c_str());
      return 1;
    }
  }

  std::size_t next = 0;
  for (const auto kind : kinds) {
    std::printf("--- %s ---\n",
                std::string(core::ProcessorKindName(kind)).c_str());
    analysis::Table table({"workload", "n", "cycles", "wall_s", "Mcyc/s",
                           "Minstr/s"});
    for (const auto& w : suite) {
      for (std::size_t i = 0; i < windows.size(); ++i) {
        const auto& o = outcomes[next++];
        analysis::Table& row = table.Row();
        row.Cell(w.name);
        row.Cell(static_cast<double>(o.config.window_size), 0);
        row.Cell(static_cast<double>(o.result.cycles), 0);
        row.Cell(o.wall_seconds, 4);
        row.Cell(PerSecond(o.result.cycles, o.wall_seconds) / 1e6, 3);
        row.Cell(PerSecond(o.result.committed, o.wall_seconds) / 1e6, 3);
      }
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  const auto& full = outcomes[compare_base];
  const auto& incr = outcomes[compare_base + 1];
  const double full_cps = PerSecond(full.result.cycles, full.wall_seconds);
  const double incr_cps = PerSecond(incr.result.cycles, incr.wall_seconds);
  const double speedup = full_cps > 0.0 ? incr_cps / full_cps : 0.0;
  std::printf(
      "--- UltrascalarI n=%d L=%d, %s: incremental vs full recompute ---\n",
      big_n, L, suite[0].name.c_str());
  std::printf("full:        %10.0f cycles/s  (%.4f s, %llu cycles)\n",
              full_cps, full.wall_seconds,
              static_cast<unsigned long long>(full.result.cycles));
  std::printf("incremental: %10.0f cycles/s  (%.4f s, %llu cycles)\n",
              incr_cps, incr.wall_seconds,
              static_cast<unsigned long long>(incr.result.cycles));
  std::printf("speedup:     %.2fx\n\n", speedup);
  if (full.result.cycles != incr.result.cycles ||
      full.result.committed != incr.result.committed) {
    std::fprintf(stderr,
                 "eval paths disagree: full %llu cycles / %llu committed, "
                 "incremental %llu cycles / %llu committed\n",
                 static_cast<unsigned long long>(full.result.cycles),
                 static_cast<unsigned long long>(full.result.committed),
                 static_cast<unsigned long long>(incr.result.cycles),
                 static_cast<unsigned long long>(incr.result.committed));
    return 1;
  }

  // --- Packed vs its baseline loop, every kind at the largest window. ---
  std::printf("--- n=%d L=%d, %s: packed vs baseline ---\n", big_n, L,
              suite[0].name.c_str());
  struct PackedRow {
    core::ProcessorKind kind;
    core::DatapathEval baseline = core::DatapathEval::kIncremental;
    double baseline_cps = 0.0;
    double packed_cps = 0.0;
    double speedup = 0.0;
  };
  std::vector<PackedRow> packed_rows;
  {
    analysis::Table table(
        {"kind", "baseline", "base Mcyc/s", "packed Mcyc/s", "speedup"});
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      const auto& pbase = outcomes[packed_base + 2 * k];
      const auto& ppacked = outcomes[packed_base + 2 * k + 1];
      // Differential guard: the packed path must agree with the baseline.
      if (pbase.result.cycles != ppacked.result.cycles ||
          pbase.result.committed != ppacked.result.committed ||
          pbase.result.regs != ppacked.result.regs) {
        std::fprintf(stderr,
                     "packed eval diverges from %s on %s: %llu/%llu "
                     "cycles, %llu/%llu committed\n",
                     EvalName(pbase.config.datapath_eval),
                     std::string(core::ProcessorKindName(kinds[k])).c_str(),
                     static_cast<unsigned long long>(pbase.result.cycles),
                     static_cast<unsigned long long>(ppacked.result.cycles),
                     static_cast<unsigned long long>(pbase.result.committed),
                     static_cast<unsigned long long>(
                         ppacked.result.committed));
        return 1;
      }
      PackedRow row;
      row.kind = kinds[k];
      row.baseline = pbase.config.datapath_eval;
      row.baseline_cps = PerSecond(pbase.result.cycles, pbase.wall_seconds);
      row.packed_cps = PerSecond(ppacked.result.cycles, ppacked.wall_seconds);
      row.speedup =
          row.baseline_cps > 0.0 ? row.packed_cps / row.baseline_cps : 0.0;
      packed_rows.push_back(row);
      analysis::Table& r = table.Row();
      r.Cell(std::string(core::ProcessorKindName(kinds[k])));
      r.Cell(EvalName(row.baseline));
      r.Cell(row.baseline_cps / 1e6, 3);
      r.Cell(row.packed_cps / 1e6, 3);
      r.Cell(row.speedup, 2);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // --- Packed and checked under a fault plan, against clean packed. ---
  std::printf("--- n=%d L=%d, %s: packed / checked under a fault plan ---\n",
              big_n, L, suite[0].name.c_str());
  struct FaultRow {
    core::ProcessorKind kind;
    double clean_cps = 0.0;
    double packed_cps = 0.0;
    double checked_cps = 0.0;
    std::uint64_t injected = 0;
    std::uint64_t divergences = 0;
  };
  std::vector<FaultRow> fault_rows;
  {
    analysis::Table table({"kind", "clean Mcyc/s", "packed Mcyc/s",
                           "checked Mcyc/s", "faults", "diverg"});
    for (std::size_t k = 0; k < std::size(scalable); ++k) {
      const auto& packed = outcomes[fault_base + 2 * k];
      const auto& checked = outcomes[fault_base + 2 * k + 1];
      if (!packed.result.halted || !checked.result.halted) {
        std::fprintf(stderr, "fault-plan run did not halt on %s\n",
                     std::string(core::ProcessorKindName(scalable[k])).c_str());
        return 1;
      }
      FaultRow row;
      row.kind = scalable[k];
      for (const PackedRow& p : packed_rows) {
        if (p.kind == row.kind) row.clean_cps = p.packed_cps;
      }
      row.packed_cps = PerSecond(packed.result.cycles, packed.wall_seconds);
      row.checked_cps = PerSecond(checked.result.cycles, checked.wall_seconds);
      row.injected = checked.result.stats.fault.injected;
      row.divergences = checked.result.stats.fault.divergences;
      fault_rows.push_back(row);
      analysis::Table& r = table.Row();
      r.Cell(std::string(core::ProcessorKindName(row.kind)));
      r.Cell(row.clean_cps / 1e6, 3);
      r.Cell(row.packed_cps / 1e6, 3);
      r.Cell(row.checked_cps / 1e6, 3);
      r.Cell(static_cast<double>(row.injected), 0);
      r.Cell(static_cast<double>(row.divergences), 0);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // --- Wrong-path cost: ns per squashed instruction = (BTFN wall - BTFN
  // cycles x oracle ns per cycle) / squashed, on packed BubbleSort(32). ---
  std::printf("--- n=%d L=%d, sort(32) packed: BTFN vs oracle predictor "
              "(best of %d) ---\n",
              big_n, L, kWrongPathRepeats);
  struct WrongPathRow {
    core::ProcessorKind kind;
    double btfn_wall = 0.0;
    std::uint64_t btfn_cycles = 0;
    std::uint64_t squashed = 0;
    double oracle_wall = 0.0;
    std::uint64_t oracle_cycles = 0;
    double oracle_ns_per_cycle = 0.0;
    double ns_per_squashed = 0.0;
  };
  std::vector<WrongPathRow> wrong_path_rows;
  {
    const auto best = [&](std::size_t first) {
      const runtime::SweepOutcome* fastest = &outcomes[first];
      for (int r = 1; r < kWrongPathRepeats; ++r) {
        const auto& o = outcomes[first + static_cast<std::size_t>(r)];
        if (o.wall_seconds < fastest->wall_seconds) fastest = &o;
      }
      return fastest;
    };
    analysis::Table table({"kind", "BTFN ms", "BTFN cyc", "squashed",
                           "oracle ms", "oracle cyc", "oracle ns/cyc",
                           "ns/squashed"});
    for (std::size_t k = 0; k < std::size(kinds); ++k) {
      const std::size_t first = wrong_path_base + 2 * kWrongPathRepeats * k;
      const runtime::SweepOutcome& btfn = *best(first);
      const runtime::SweepOutcome& oracle = *best(first + kWrongPathRepeats);
      if (!btfn.result.halted || !oracle.result.halted ||
          btfn.result.regs != oracle.result.regs ||
          btfn.result.committed != oracle.result.committed) {
        std::fprintf(stderr,
                     "BTFN and oracle runs disagree on %s: %llu/%llu "
                     "committed\n",
                     std::string(core::ProcessorKindName(kinds[k])).c_str(),
                     static_cast<unsigned long long>(btfn.result.committed),
                     static_cast<unsigned long long>(oracle.result.committed));
        return 1;
      }
      WrongPathRow row;
      row.kind = kinds[k];
      row.btfn_wall = btfn.wall_seconds;
      row.btfn_cycles = btfn.result.cycles;
      row.squashed = btfn.result.stats.squashed_instructions;
      row.oracle_wall = oracle.wall_seconds;
      row.oracle_cycles = oracle.result.cycles;
      row.oracle_ns_per_cycle =
          row.oracle_cycles > 0
              ? 1e9 * row.oracle_wall / static_cast<double>(row.oracle_cycles)
              : 0.0;
      row.ns_per_squashed =
          row.squashed > 0
              ? (1e9 * row.btfn_wall - static_cast<double>(row.btfn_cycles) *
                                           row.oracle_ns_per_cycle) /
                    static_cast<double>(row.squashed)
              : 0.0;
      wrong_path_rows.push_back(row);
      analysis::Table& r = table.Row();
      r.Cell(std::string(core::ProcessorKindName(row.kind)));
      r.Cell(1e3 * row.btfn_wall, 2);
      r.Cell(row.btfn_cycles);
      r.Cell(row.squashed);
      r.Cell(1e3 * row.oracle_wall, 2);
      r.Cell(row.oracle_cycles);
      r.Cell(row.oracle_ns_per_cycle, 0);
      r.Cell(row.ns_per_squashed, 1);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  // --- Ensemble batching: the same sweep with batching off vs on. The
  // sweep repeats each configuration so interchangeable points exercise the
  // lockstep-follower path, and the architectural check pulls in the
  // functional oracle, which batching warms once per program. The
  // functional-sim cache is cleared before each run so both start cold. ---
  const int ens_repeats = 3;
  std::vector<runtime::SweepPoint> ens_points;
  for (const auto kind : kinds) {
    for (const auto& w : suite) {
      for (int r = 0; r < ens_repeats; ++r) {
        runtime::SweepPoint point;
        point.kind = kind;
        point.config.window_size = windows.front();
        point.config.num_regs = L;
        point.config.mem.mode = memory::MemTimingMode::kMagic;
        point.program = w.program;
        point.workload = w.name;
        ens_points.push_back(std::move(point));
      }
    }
  }
  const auto timed_sweep = [&](bool batching) {
    core::FunctionalSimCache::Global().Clear();
    runtime::SweepOptions options;
    options.num_threads = opt.threads;
    options.check_architectural_state = true;
    options.ensemble_batching = batching;
    const runtime::SweepRunner ens_runner(options);
    const auto start = std::chrono::steady_clock::now();
    auto report = ens_runner.RunWithReport(ens_points);
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    for (const auto& o : report.outcomes) {
      if (!o.ok) {
        std::fprintf(stderr, "ensemble point %zu failed: %s\n", o.index,
                     o.error.c_str());
        std::exit(1);
      }
    }
    return std::make_pair(wall, std::move(report));
  };
  const auto [unbatched_wall, unbatched_report] = timed_sweep(false);
  const auto [batched_wall, batched_report] = timed_sweep(true);
  for (std::size_t i = 0; i < ens_points.size(); ++i) {
    const auto& a = unbatched_report.outcomes[i];
    const auto& b = batched_report.outcomes[i];
    if (a.result.cycles != b.result.cycles ||
        a.result.committed != b.result.committed ||
        a.result.regs != b.result.regs || a.result.memory != b.result.memory) {
      std::fprintf(stderr,
                   "ensemble batching changed point %zu: %llu vs %llu cycles\n",
                   i, static_cast<unsigned long long>(a.result.cycles),
                   static_cast<unsigned long long>(b.result.cycles));
      return 1;
    }
  }
  const auto counter = [](const runtime::SweepReport& report,
                          std::string_view name) -> std::uint64_t {
    const telemetry::MetricValue* v = report.runner_metrics.Find(name);
    return v != nullptr ? v->value : 0;
  };
  const std::uint64_t prewarms = counter(batched_report,
                                         "sweep.oracle_prewarms");
  const std::uint64_t followers = counter(batched_report,
                                          "sweep.ensemble_followers");
  const double ens_speedup =
      batched_wall > 0.0 ? unbatched_wall / batched_wall : 0.0;
  std::printf("--- ensemble batching (%zu points, %d repeats, oracle checks, "
              "threads=%d) ---\n",
              ens_points.size(), ens_repeats, opt.threads);
  std::printf("unbatched: %.4f s\n", unbatched_wall);
  std::printf("batched:   %.4f s  (%llu oracle prewarms, %llu lockstep "
              "followers)\n",
              batched_wall, static_cast<unsigned long long>(prewarms),
              static_cast<unsigned long long>(followers));
  std::printf("speedup:   %.2fx\n\n", ens_speedup);

  std::ofstream out(opt.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  out << "{\n  \"bench_mode\": \"" << (opt.quick ? "quick" : "full")
      << "\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const auto& o = outcomes[i];
    out << "    {\"kind\": \"" << core::ProcessorKindName(o.kind)
        << "\", \"workload\": \"" << o.workload
        << "\", \"n\": " << o.config.window_size
        << ", \"L\": " << o.config.num_regs << ", \"eval\": \""
        << EvalName(o.config.datapath_eval)
        << "\", \"ensemble_batching\": false"
        << ", \"cycles\": " << o.result.cycles
        << ", \"committed\": " << o.result.committed
        << ", \"wall_seconds\": " << o.wall_seconds
        << ", \"cycles_per_sec\": "
        << PerSecond(o.result.cycles, o.wall_seconds)
        << ", \"instructions_per_sec\": "
        << PerSecond(o.result.committed, o.wall_seconds) << "}"
        << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"usi_big_comparison\": {\"n\": " << big_n
      << ", \"L\": " << L << ", \"full_cycles_per_sec\": " << full_cps
      << ", \"incremental_cycles_per_sec\": " << incr_cps
      << ", \"speedup\": " << speedup << "},\n";
  out << "  \"packed_comparison\": {\"n\": " << big_n << ", \"L\": " << L
      << ", \"workload\": \"" << suite[0].name << "\", \"kinds\": [\n";
  for (std::size_t k = 0; k < packed_rows.size(); ++k) {
    const PackedRow& row = packed_rows[k];
    out << "    {\"kind\": \"" << core::ProcessorKindName(row.kind)
        << "\", \"baseline_eval\": \"" << EvalName(row.baseline)
        << "\", \"baseline_cycles_per_sec\": " << row.baseline_cps
        << ", \"packed_cycles_per_sec\": " << row.packed_cps
        << ", \"speedup\": " << row.speedup << "}"
        << (k + 1 < packed_rows.size() ? "," : "") << "\n";
  }
  out << "  ]},\n";
  out << "  \"fault_plan\": {\"n\": " << big_n << ", \"L\": " << L
      << ", \"workload\": \"" << suite[0].name
      << "\", \"plan\": \"seed 17, rate 0.01, corrupt-value + stall + "
         "force-mispredict\", \"kinds\": [\n";
  for (std::size_t k = 0; k < fault_rows.size(); ++k) {
    const FaultRow& row = fault_rows[k];
    out << "    {\"kind\": \"" << core::ProcessorKindName(row.kind)
        << "\", \"clean_packed_cycles_per_sec\": " << row.clean_cps
        << ", \"packed_cycles_per_sec\": " << row.packed_cps
        << ", \"checked_cycles_per_sec\": " << row.checked_cps
        << ", \"faults_injected\": " << row.injected
        << ", \"divergences_detected\": " << row.divergences << "}"
        << (k + 1 < fault_rows.size() ? "," : "") << "\n";
  }
  out << "  ]},\n";
  out << "  \"wrong_path\": {\"n\": " << big_n << ", \"L\": " << L
      << ", \"workload\": \"sort(32)\", \"eval\": \"packed\", "
         "\"repeats\": "
      << kWrongPathRepeats << ", \"kinds\": [\n";
  for (std::size_t k = 0; k < wrong_path_rows.size(); ++k) {
    const WrongPathRow& row = wrong_path_rows[k];
    out << "    {\"kind\": \"" << core::ProcessorKindName(row.kind)
        << "\", \"btfn_wall_seconds\": " << row.btfn_wall
        << ", \"btfn_cycles\": " << row.btfn_cycles
        << ", \"squashed\": " << row.squashed
        << ", \"oracle_wall_seconds\": " << row.oracle_wall
        << ", \"oracle_cycles\": " << row.oracle_cycles
        << ", \"oracle_ns_per_cycle\": " << row.oracle_ns_per_cycle
        << ", \"ns_per_squashed\": " << row.ns_per_squashed << "}"
        << (k + 1 < wrong_path_rows.size() ? "," : "") << "\n";
  }
  out << "  ]},\n";
  out << "  \"ensemble\": {\"points\": " << ens_points.size()
      << ", \"repeats\": " << ens_repeats
      << ", \"check_architectural_state\": true"
      << ", \"unbatched_wall_seconds\": " << unbatched_wall
      << ", \"batched_wall_seconds\": " << batched_wall
      << ", \"speedup\": " << ens_speedup
      << ", \"oracle_prewarms\": " << prewarms
      << ", \"lockstep_followers\": " << followers << "}\n}\n";
  out.close();
  std::printf("wrote %s\n", opt.json_path.c_str());
  return 0;
}
