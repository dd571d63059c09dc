// Golden digest corpus: pins the cores' behaviour across refactors that
// move code every evaluation path shares (fetch, commit, squash, memory
// ordering), where a slip changes all paths alike and no differential test
// notices. A fixed corpus -- four kinds x n in {4, 16, 64, 256} x sort,
// memcpy, dot, the Figure 3 program and a recorded trace, each under a base
// config, one setting per axis and the packed evaluation of the three
// scalable cores (also with pipelined delivery on Ultrascalar I) -- is run,
// and every run yields three FNV-1a digests: one over its export row, stats
// and architectural state, one over its schedule (every committed
// instruction's station and fetch, issue, complete and commit cycles), and
// one over the state bytes of a checkpoint captured halfway through the run,
// which pins the saved layout that a same-build round trip cannot see. The
// digests live in golden/corpus.txt.
//
// A change that alters a digest on purpose regenerates the file with
//   golden_test --regenerate
// and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/core.hpp"
#include "fault/fault_plan.hpp"
#include "persist/serial.hpp"
#include "runtime/runtime.hpp"
#include "trace_timeline.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::CoreConfig;
using core::ProcessorKind;

constexpr ProcessorKind kAllKinds[] = {
    ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
    ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid};
constexpr int kWindows[] = {4, 16, 64, 256};

struct NamedProgram {
  std::string name;
  isa::Program program;
};

const std::vector<NamedProgram>& Programs() {
  static const std::vector<NamedProgram> programs = [] {
    const auto trace = workloads::DecodeTraceText(workloads::EncodeTraceText(
        workloads::RecordTrace("indirect", workloads::IndirectSum(16))));
    return std::vector<NamedProgram>{
        {"sort", workloads::BubbleSort(8)},
        {"memcpy", workloads::MemCopy(16)},
        {"dot", workloads::DotProduct(16)},
        {"fig3", workloads::Figure3Example()},
        {"trace", workloads::TraceToProgram(trace)}};
  }();
  return programs;
}

/// One setting per axis, applied on top of the base config. `applies`
/// skips kinds the setting means nothing to.
struct Setting {
  std::string name;
  std::function<void(CoreConfig&)> apply;
  std::function<bool(ProcessorKind)> applies = [](ProcessorKind) {
    return true;
  };
};

const std::vector<Setting>& Settings() {
  static const std::vector<Setting> settings = {
      {"base", [](CoreConfig&) {}},
      {"fetch=basic_block",
       [](CoreConfig& c) { c.fetch_mode = core::FetchMode::kBasicBlock; }},
      {"fetch=trace_cache",
       [](CoreConfig& c) { c.fetch_mode = core::FetchMode::kTraceCache; }},
      {"predictor=not_taken",
       [](CoreConfig& c) { c.predictor = core::PredictorKind::kNotTaken; }},
      {"predictor=two_bit",
       [](CoreConfig& c) { c.predictor = core::PredictorKind::kTwoBit; }},
      {"predictor=oracle",
       [](CoreConfig& c) { c.predictor = core::PredictorKind::kOracle; }},
      {"mem=bandwidth",
       [](CoreConfig& c) {
         c.mem.mode = memory::MemTimingMode::kBandwidthLimited;
       }},
      {"mem=fat_tree",
       [](CoreConfig& c) { c.mem.mode = memory::MemTimingMode::kFatTree; }},
      {"mem=butterfly",
       [](CoreConfig& c) { c.mem.mode = memory::MemTimingMode::kButterfly; }},
      {"hierarchy",
       [](CoreConfig& c) {
         c.mem.hierarchy.l1i.enabled = true;
         c.mem.hierarchy.l1i.sets = 4;
         c.mem.hierarchy.l1d.enabled = true;
         c.mem.hierarchy.l1d.sets = 4;
         c.mem.hierarchy.l2.enabled = true;
         c.mem.hierarchy.l2.sets = 16;
         c.mem.hierarchy.prefetch.depth = 2;
       }},
      {"cluster_caches",
       [](CoreConfig& c) {
         c.mem.mode = memory::MemTimingMode::kFatTree;
         c.mem.cluster_cache_leaves = 2;
         c.mem.cluster_cache_words = 8;
       }},
      {"alus=2", [](CoreConfig& c) { c.num_alus = 2; }},
      {"store_forwarding", [](CoreConfig& c) { c.store_forwarding = true; }},
      {"pipelined",
       [](CoreConfig& c) { c.pipeline_levels_per_stage = 1; },
       [](ProcessorKind k) { return k == ProcessorKind::kUltrascalarI; }},
      {"faults+checked",
       [](CoreConfig& c) {
         c.datapath_eval = core::DatapathEval::kChecked;
         c.checker_stride = 16;
         c.fault_plan = std::make_shared<const fault::FaultPlan>(
             fault::FaultPlan::Random(12, 0.05, 4000));
       },
       [](ProcessorKind k) { return k != ProcessorKind::kIdeal; }},
      {"eval=packed",
       [](CoreConfig& c) { c.datapath_eval = core::DatapathEval::kPacked; },
       [](ProcessorKind k) { return k != ProcessorKind::kIdeal; }},
      {"pipelined+packed",
       [](CoreConfig& c) {
         c.pipeline_levels_per_stage = 1;
         c.datapath_eval = core::DatapathEval::kPacked;
       },
       [](ProcessorKind k) { return k == ProcessorKind::kUltrascalarI; }},
  };
  return settings;
}

struct CorpusRun {
  std::string name;
  ProcessorKind kind;
  CoreConfig config;
  const isa::Program* program;
};

std::vector<CorpusRun> Corpus(ProcessorKind kind) {
  std::vector<CorpusRun> runs;
  for (const int n : kWindows) {
    for (const NamedProgram& p : Programs()) {
      for (const Setting& s : Settings()) {
        if (!s.applies(kind)) continue;
        CoreConfig cfg;
        cfg.window_size = n;
        cfg.cluster_size = 4;
        cfg.max_cycles = 200'000;
        s.apply(cfg);
        runs.push_back({std::string(core::ProcessorKindName(kind)) + "/n" +
                            std::to_string(n) + "/" + p.name + "/" + s.name,
                        kind, cfg, &p.program});
      }
    }
  }
  return runs;
}

std::string Hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The CSV row a sweep exports for this run (header and trailer dropped).
std::string ExportRow(const CorpusRun& run, const core::RunResult& result) {
  runtime::SweepOutcome o;
  o.kind = run.kind;
  o.workload = run.name;
  o.config = run.config;
  o.ok = true;
  o.result = result;
  o.attempts = 1;
  std::ostringstream os;
  runtime::WriteCsv(os, {o});
  const std::string csv = os.str();
  const std::size_t begin = csv.find('\n') + 1;
  return csv.substr(begin, csv.find('\n', begin) - begin);
}

std::uint64_t ResultDigest(const CorpusRun& run, const core::RunResult& r) {
  persist::Encoder e;
  e.Str(ExportRow(run, r));
  const core::RunStats& s = r.stats;
  for (const std::uint64_t v :
       {s.fault.checks, s.mem_hierarchy.l1d_writebacks,
        s.mem_hierarchy.l2_writebacks, s.mem_hierarchy.icache_hits,
        s.mem_hierarchy.prefetch_fills}) {
    e.U64(v);
  }
  e.U32(static_cast<std::uint32_t>(r.regs.size()));
  for (const isa::Word w : r.regs) e.U32(w);
  e.U32(static_cast<std::uint32_t>(r.memory.size()));
  for (const auto& [addr, w] : r.memory) {
    e.U32(addr);
    e.U32(w);
  }
  return persist::Fnv1a64(e.bytes());
}

std::uint64_t ScheduleDigest(
    const std::vector<analysis::InstrTiming>& timeline) {
  persist::Encoder e;
  e.U64(timeline.size());
  for (const analysis::InstrTiming& t : timeline) {
    e.U64(t.seq);
    e.I32(t.station);
    e.U64(t.pc);
    e.U64(t.fetch_cycle);
    e.U64(t.issue_cycle);
    e.U64(t.complete_cycle);
    e.U64(t.commit_cycle);
  }
  return persist::Fnv1a64(e.bytes());
}

/// The state bytes of a checkpoint captured at the top of cycle
/// `cycles / 2`; a run too short to reach cycle 1 digests no bytes.
std::uint64_t CheckpointDigest(const CorpusRun& run, std::uint64_t cycles) {
  const std::uint64_t at = cycles / 2;
  if (at == 0) return persist::Fnv1a64({});
  const persist::Checkpoint checkpoint =
      core::MakeProcessor(run.kind, run.config)
          ->SaveCheckpoint(*run.program, at);
  return persist::Fnv1a64(checkpoint.state);
}

/// "<name> <result digest> <schedule digest> <checkpoint digest>": the
/// result from the untraced run, the schedule from a traced rerun, the
/// checkpoint from a third run stopped halfway.
std::string DigestLine(const CorpusRun& run) {
  const test::TracedRun traced =
      test::RunTraced(run.kind, run.config, *run.program);
  return run.name + " " + Hex(ResultDigest(run, traced)) + " " +
         Hex(ScheduleDigest(traced.timeline)) + " " +
         Hex(CheckpointDigest(run, traced.cycles));
}

const char kHeader[] =
    "# Golden digest corpus (tests/golden_test.cpp): <run> <export row, stats\n"
    "# and state digest> <schedule digest> <mid-run checkpoint digest>.\n"
    "# Regenerate with `golden_test --regenerate` and say why in CHANGES.md.\n";

std::map<std::string, std::string> LoadCorpusFile() {
  std::ifstream in(ULTRA_GOLDEN_CORPUS);
  std::map<std::string, std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.emplace(line.substr(0, line.find(' ')), line);
  }
  return lines;
}

int Regenerate() {
  std::ofstream out(ULTRA_GOLDEN_CORPUS, std::ios::trunc);
  out << kHeader;
  std::size_t count = 0;
  for (const ProcessorKind kind : kAllKinds) {
    for (const CorpusRun& run : Corpus(kind)) {
      out << DigestLine(run) << '\n';
      ++count;
    }
  }
  out.flush();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", ULTRA_GOLDEN_CORPUS);
    return 1;
  }
  std::printf("wrote %zu digests to %s\n", count, ULTRA_GOLDEN_CORPUS);
  return 0;
}

class GoldenCorpus : public testing::TestWithParam<ProcessorKind> {};

TEST_P(GoldenCorpus, DigestsMatchTheCommittedFile) {
  const auto golden = LoadCorpusFile();
  ASSERT_FALSE(golden.empty()) << "no digests in " << ULTRA_GOLDEN_CORPUS;
  const std::string prefix =
      std::string(core::ProcessorKindName(GetParam())) + "/";
  const std::vector<CorpusRun> runs = Corpus(GetParam());
  std::size_t expected = 0;
  for (const auto& [name, line] : golden) {
    if (name.compare(0, prefix.size(), prefix) == 0) ++expected;
  }
  EXPECT_EQ(runs.size(), expected) << "the corpus and the file disagree on "
                                      "which runs exist; regenerate";
  int mismatches = 0;
  for (const CorpusRun& run : runs) {
    const std::string got = DigestLine(run);
    const auto it = golden.find(run.name);
    if (it != golden.end() && it->second == got) continue;
    if (++mismatches <= 20) {
      ADD_FAILURE() << "digest mismatch\n  want: "
                    << (it == golden.end() ? "(missing)" : it->second)
                    << "\n  got:  " << got;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << runs.size() << " runs";
}

INSTANTIATE_TEST_SUITE_P(Kinds, GoldenCorpus, testing::ValuesIn(kAllKinds),
                         [](const auto& info) {
                           return std::string(
                               core::ProcessorKindName(info.param));
                         });

}  // namespace
}  // namespace ultra

int main(int argc, char** argv) {
  testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--regenerate") {
      return ultra::Regenerate();
    }
  }
  return RUN_ALL_TESTS();
}
