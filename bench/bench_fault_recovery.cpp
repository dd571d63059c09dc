// Fault-recovery benchmark (engineering, not a paper figure).
//
// Measures IPC degradation versus injected fault rate for each scalable
// core under datapath_eval = kChecked: every point runs a seeded
// FaultPlan (all five kinds) through the self-checking datapath and is
// verified against the functional oracle. A fault that escaped detection
// would corrupt architectural state and fail the oracle check, so this
// binary doubles as the CI fault-injection smoke gate: any mismatch exits
// nonzero.
//
// Rows report, per (core, rate): injected faults, detected divergences,
// checker resyncs, forced-squash volume, cycles, IPC, and IPC relative to
// the same core's fault-free baseline.
//
// Usage: bench_fault_recovery [--quick] [--threads=N] [--json=PATH]
//                             [--bundle-dir=DIR] [--force-failure]
//   --quick         smaller grid and shorter workload (CI smoke run)
//   --json          output path (default BENCH_fault_recovery.json)
//   --bundle-dir    emit a repro bundle per failed point into DIR
//   --force-failure append one unchecked fault-injection point that is
//                   *expected* to fail the oracle (faults flow with no
//                   checker). With --bundle-dir, this deterministically
//                   produces a bundle the CI job replays via
//                   examples/replay_bundle; the forced failure does not
//                   affect the exit code.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/table.hpp"
#include "core/core.hpp"
#include "fault/fault.hpp"
#include "runtime/runtime.hpp"
#include "workloads/workloads.hpp"

namespace {

struct Options {
  bool quick = false;
  int threads = 1;
  std::string json_path = "BENCH_fault_recovery.json";
  std::string bundle_dir;
  bool force_failure = false;
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
    } else if (arg.rfind("--bundle-dir=", 0) == 0) {
      opt.bundle_dir = arg.substr(std::strlen("--bundle-dir="));
    } else if (arg == "--force-failure") {
      opt.force_failure = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ultra;
  const Options opt = ParseArgs(argc, argv);
  std::printf("=== Fault recovery: IPC vs injected fault rate (checked) ===\n");
  std::printf("mode: %s\n\n", opt.quick ? "quick" : "full");

  const auto program = std::make_shared<isa::Program>(workloads::RandomMix(
      {.num_instructions = opt.quick ? 1024 : 4096}));
  const std::vector<double> rates =
      opt.quick ? std::vector<double>{0.0, 0.005, 0.02}
                : std::vector<double>{0.0, 0.002, 0.005, 0.01, 0.02};
  // Horizon safely past the longest run at these sizes; events scheduled
  // beyond the actual run length are simply never staged.
  const std::uint64_t horizon = 100'000;
  const int n = opt.quick ? 32 : 64;
  const int L = 32;
  const core::ProcessorKind kinds[] = {core::ProcessorKind::kUltrascalarI,
                                       core::ProcessorKind::kUltrascalarII,
                                       core::ProcessorKind::kHybrid};

  std::vector<runtime::SweepPoint> points;
  std::vector<double> point_rate;
  std::vector<std::uint64_t> point_seed;
  for (const auto kind : kinds) {
    for (std::size_t r = 0; r < rates.size(); ++r) {
      runtime::SweepPoint point;
      point.kind = kind;
      point.config.window_size = n;
      point.config.num_regs = L;
      point.config.cluster_size = 8;
      point.config.mem.mode = memory::MemTimingMode::kMagic;
      point.config.datapath_eval = core::DatapathEval::kChecked;
      point.config.checker_stride = 32;
      const std::uint64_t seed =
          1000 + 100 * static_cast<std::uint64_t>(kind) + r;
      if (rates[r] > 0.0) {
        point.config.fault_plan = std::make_shared<const fault::FaultPlan>(
            fault::FaultPlan::Random(seed, rates[r], horizon));
      }
      point.program = program;
      point.workload = "mix";
      points.push_back(std::move(point));
      point_rate.push_back(rates[r]);
      point_seed.push_back(seed);
    }
  }

  // The forced-failure point (only with --force-failure): a fault plan
  // with datapath_eval kPacked and no checker, so the corruption flows to
  // architectural state and the oracle quarantines the point.
  // Every parameter is pinned (independent of --quick) because most
  // injected faults land on empty stations or unread operands, or are
  // re-resolved before use — this exact
  // (seed, rate, workload, window) combination is verified to corrupt
  // architectural state, and being deterministic its repro bundle replays
  // exactly.
  std::size_t forced_index = points.size();  // == size(): none.
  if (opt.force_failure) {
    runtime::SweepPoint point;
    point.kind = core::ProcessorKind::kUltrascalarI;
    point.config.window_size = 32;
    point.config.mem.mode = memory::MemTimingMode::kMagic;
    point.config.datapath_eval = core::DatapathEval::kPacked;
    point.config.fault_plan = std::make_shared<const fault::FaultPlan>(
        fault::FaultPlan::Random(424243, 0.05, horizon));
    point.program = std::make_shared<isa::Program>(
        workloads::RandomMix({.num_instructions = 1024}));
    point.workload = "mix-forced-fault";
    forced_index = points.size();
    points.push_back(std::move(point));
    point_rate.push_back(0.05);
    point_seed.push_back(424243);
  }

  runtime::SweepOptions sweep_options{.num_threads = opt.threads,
                                      .check_architectural_state = true};
  if (!opt.bundle_dir.empty()) {
    sweep_options.bundle_dir = opt.bundle_dir;
    sweep_options.checkpoint_every = 256;
  }
  const runtime::SweepRunner runner(sweep_options);
  const auto outcomes = runner.Run(points);
  bool failed = false;
  for (const auto& o : outcomes) {
    if (!o.ok && o.index == forced_index) {
      std::printf(
          "forced failure quarantined as expected: point %zu: %s\n",
          o.index, o.error.c_str());
    } else if (!o.ok) {
      std::fprintf(stderr,
                   "UNDETECTED DIVERGENCE: point %zu (%s, rate=%g): %s\n",
                   o.index,
                   std::string(core::ProcessorKindName(o.kind)).c_str(),
                   point_rate[o.index], o.error.c_str());
      failed = true;
    }
  }
  if (failed) return 1;
  if (opt.force_failure && outcomes[forced_index].ok) {
    std::fprintf(stderr,
                 "--force-failure point unexpectedly passed the oracle\n");
    return 1;
  }

  std::size_t next = 0;
  for (const auto kind : kinds) {
    std::printf("--- %s (n=%d, L=%d) ---\n",
                std::string(core::ProcessorKindName(kind)).c_str(), n, L);
    analysis::Table table({"rate", "faults", "diverg", "resyncs", "fsquash",
                           "cycles", "IPC", "IPC/base"});
    const double base_ipc = outcomes[next].result.Ipc();
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const auto& o = outcomes[next++];
      const auto& s = o.result.stats;
      analysis::Table& row = table.Row();
      row.Cell(rates[r], 3);
      row.Cell(static_cast<double>(s.fault.injected), 0);
      row.Cell(static_cast<double>(s.fault.divergences), 0);
      row.Cell(static_cast<double>(s.fault.resyncs), 0);
      row.Cell(static_cast<double>(s.fault.squashes), 0);
      row.Cell(static_cast<double>(o.result.cycles), 0);
      row.Cell(o.result.Ipc(), 4);
      row.Cell(base_ipc > 0.0 ? o.result.Ipc() / base_ipc : 0.0, 4);
    }
    std::printf("%s\n", table.ToString().c_str());
  }

  std::ofstream out(opt.json_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.json_path.c_str());
    return 1;
  }
  out << "{\n  \"mode\": \"" << (opt.quick ? "quick" : "full")
      << "\",\n  \"workload\": \"mix\", \"window_size\": " << n
      << ", \"num_regs\": " << L << ", \"checker_stride\": 32"
      << ",\n  \"points\": [\n";
  next = 0;
  for (const auto kind : kinds) {
    const double base_ipc = outcomes[next].result.Ipc();
    for (std::size_t r = 0; r < rates.size(); ++r) {
      const auto& o = outcomes[next++];
      const auto& s = o.result.stats;
      out << "    {\"kind\": \"" << core::ProcessorKindName(kind)
          << "\", \"rate\": " << point_rate[o.index]
          << ", \"seed\": " << point_seed[o.index]
          << ", \"cycles\": " << o.result.cycles
          << ", \"committed\": " << o.result.committed
          << ", \"ipc\": " << o.result.Ipc()
          << ", \"ipc_rel_baseline\": "
          << (base_ipc > 0.0 ? o.result.Ipc() / base_ipc : 0.0)
          << ", \"faults_injected\": " << s.fault.injected
          << ", \"divergences_detected\": " << s.fault.divergences
          << ", \"checker_resyncs\": " << s.fault.resyncs
          << ", \"squashes_under_fault\": " << s.fault.squashes
          << ", \"oracle_ok\": true}"
          << (next < std::size(kinds) * rates.size() ? "," : "") << "\n";
    }
  }
  out << "  ]\n}\n";
  out.close();
  std::printf("wrote %s\n", opt.json_path.c_str());
  return 0;
}
