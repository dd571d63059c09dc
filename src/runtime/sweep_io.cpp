#include "runtime/sweep_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ostream>
#include <sstream>
#include <string>

#include "fault/fault_plan.hpp"
#include "persist/serial.hpp"
#include "telemetry/metrics.hpp"

namespace ultra::runtime {

namespace {

const char* PredictorName(core::PredictorKind kind) {
  switch (kind) {
    case core::PredictorKind::kNotTaken:
      return "not_taken";
    case core::PredictorKind::kBtfn:
      return "btfn";
    case core::PredictorKind::kTwoBit:
      return "two_bit";
    case core::PredictorKind::kOracle:
      return "oracle";
  }
  return "?";
}

const char* FetchModeName(core::FetchMode mode) {
  switch (mode) {
    case core::FetchMode::kIdeal:
      return "ideal";
    case core::FetchMode::kBasicBlock:
      return "basic_block";
    case core::FetchMode::kTraceCache:
      return "trace_cache";
  }
  return "?";
}

const char* MemModeName(memory::MemTimingMode mode) {
  switch (mode) {
    case memory::MemTimingMode::kMagic:
      return "magic";
    case memory::MemTimingMode::kBandwidthLimited:
      return "bandwidth_limited";
    case memory::MemTimingMode::kFatTree:
      return "fat_tree";
    case memory::MemTimingMode::kButterfly:
      return "butterfly";
  }
  return "?";
}

/// Compact single-token hierarchy descriptor for the CSV: per-level
/// sets x ways x block_bytes plus the prefetch depth, or "off" when the
/// whole hierarchy is disabled. Semicolon-separated so the cell never needs
/// CSV quoting.
std::string HierarchyDesc(const memory::HierarchyConfig& h) {
  if (!h.l1i.enabled && !h.l1d.enabled && !h.l2.enabled &&
      h.prefetch.depth == 0) {
    return "off";
  }
  std::string out;
  const auto level = [&out](const char* name,
                            const memory::CacheLevelConfig& l) {
    if (!l.enabled) return;
    if (!out.empty()) out += ';';
    out += name;
    out += ':';
    out += std::to_string(l.sets) + 'x' + std::to_string(l.ways) + 'x' +
           std::to_string(l.block_bytes);
  };
  level("l1i", h.l1i);
  level("l1d", h.l1d);
  level("l2", h.l2);
  if (h.prefetch.depth > 0) {
    if (!out.empty()) out += ';';
    out += "pf:" + std::to_string(h.prefetch.depth);
  }
  return out;
}

std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string FormatIpc(const core::RunResult& result) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", result.Ipc());
  return buf;
}

bool AnyMetrics(const std::vector<SweepOutcome>& outcomes) {
  for (const SweepOutcome& o : outcomes) {
    if (!o.metrics.empty()) return true;
  }
  return false;
}

/// Compact single-token metric rendering for the CSV comment trailer:
/// counters/gauges as name=value, histograms as
/// name=count:C,sum:S,buckets:b0|b1|...|overflow.
void WriteCsvMetric(std::ostream& os, const telemetry::MetricValue& m) {
  os << m.name << '=';
  if (m.kind == telemetry::MetricKind::kHistogram) {
    os << "count:" << m.count << ",sum:" << m.sum << ",buckets:";
    for (std::size_t b = 0; b < m.buckets.size(); ++b) {
      os << (b == 0 ? "" : "|") << m.buckets[b];
    }
  } else {
    os << m.value;
  }
}

void WriteJsonMetric(std::ostream& os, const telemetry::MetricValue& m) {
  os << "{\"name\": \"" << JsonEscape(m.name) << "\", \"kind\": \""
     << telemetry::MetricKindName(m.kind) << "\", ";
  if (m.kind == telemetry::MetricKind::kHistogram) {
    os << "\"count\": " << m.count << ", \"sum\": " << m.sum
       << ", \"bounds\": [";
    for (std::size_t b = 0; b < m.bounds.size(); ++b) {
      os << (b == 0 ? "" : ", ") << m.bounds[b];
    }
    os << "], \"buckets\": [";
    for (std::size_t b = 0; b < m.buckets.size(); ++b) {
      os << (b == 0 ? "" : ", ") << m.buckets[b];
    }
    os << "]}";
  } else {
    os << "\"value\": " << m.value << '}';
  }
}

}  // namespace

void WriteCsv(std::ostream& os, const std::vector<SweepOutcome>& outcomes) {
  os << "index,workload,processor,window_size,num_regs,cluster_size,"
        "fetch_width,fetch_mode,predictor,mem_mode,hierarchy,num_alus,"
        "store_forwarding,pipeline_levels_per_stage,ok,error,halted,cycles,"
        "committed,ipc,mispredictions,squashed_instructions,forwarded_loads,"
        "load_count,store_count,fetch_stall_cycles,window_full_cycles,"
        "faults_injected,divergences_detected,checker_resyncs,"
        "squashes_under_fault,l1d_hits,l1d_misses,l2_hits,l2_misses,"
        "icache_misses,icache_stall_cycles,prefetch_issued,prefetch_useful,"
        "attempts,deadline_exceeded\n";
  for (const SweepOutcome& o : outcomes) {
    const core::CoreConfig& c = o.config;
    const core::RunStats& s = o.result.stats;
    os << o.index << ',' << CsvEscape(o.workload) << ','
       << core::ProcessorKindName(o.kind) << ',' << c.window_size << ','
       << c.num_regs << ',' << c.cluster_size << ',' << c.fetch_width << ','
       << FetchModeName(c.fetch_mode) << ',' << PredictorName(c.predictor)
       << ',' << MemModeName(c.mem.mode) << ','
       << HierarchyDesc(c.mem.hierarchy) << ',' << c.num_alus << ','
       << (c.store_forwarding ? 1 : 0) << ',' << c.pipeline_levels_per_stage
       << ',' << (o.ok ? 1 : 0) << ',' << CsvEscape(o.error) << ','
       << (o.result.halted ? 1 : 0) << ',' << o.result.cycles << ','
       << o.result.committed << ',' << FormatIpc(o.result) << ','
       << s.mispredictions << ',' << s.squashed_instructions << ','
       << s.forwarded_loads << ',' << s.load_count << ',' << s.store_count
       << ',' << s.fetch_stall_cycles << ',' << s.window_full_cycles << ','
       << s.fault.injected << ',' << s.fault.divergences << ','
       << s.fault.resyncs << ',' << s.fault.squashes << ','
       << s.mem_hierarchy.l1d_hits << ',' << s.mem_hierarchy.l1d_misses << ','
       << s.mem_hierarchy.l2_hits << ',' << s.mem_hierarchy.l2_misses << ','
       << s.mem_hierarchy.icache_misses << ','
       << s.mem_hierarchy.icache_stall_cycles << ','
       << s.mem_hierarchy.prefetch_issued << ','
       << s.mem_hierarchy.prefetch_useful << ','
       << o.attempts << ',' << (o.deadline_exceeded ? 1 : 0) << '\n';
  }
  // Quarantine section: failed points again, as comment lines a CSV reader
  // skips, so a partial sweep's artifact names its casualties in one place.
  const auto bad = Quarantine(outcomes);
  os << "# quarantine: " << bad.size() << " failed point"
     << (bad.size() == 1 ? "" : "s") << '\n';
  for (const SweepOutcome* o : bad) {
    os << "# index=" << o->index << " processor="
       << core::ProcessorKindName(o->kind) << " workload="
       << CsvEscape(o->workload);
    // The seed that produced the failing fault plan, when there was one:
    // enough to rebuild the identical plan via FaultPlan::Random. Omitted
    // entirely for fault-free sweeps so their artifacts keep the
    // historical byte shape.
    if (o->config.fault_plan != nullptr &&
        o->config.fault_plan->provenance().randomized) {
      os << " fault_seed=" << o->config.fault_plan->provenance().seed;
    }
    os << " attempts=" << o->attempts
       << " deadline_exceeded=" << (o->deadline_exceeded ? 1 : 0)
       << " error=" << CsvEscape(o->error) << '\n';
  }
  // Metrics trailer: one comment line per instrumented point. Emitted only
  // when SweepOptions::collect_metrics populated snapshots, so legacy
  // sweeps produce byte-identical files with or without this build.
  if (AnyMetrics(outcomes)) {
    std::size_t instrumented = 0;
    for (const SweepOutcome& o : outcomes) {
      if (!o.metrics.empty()) ++instrumented;
    }
    os << "# metrics: " << instrumented << " instrumented point"
       << (instrumented == 1 ? "" : "s") << '\n';
    for (const SweepOutcome& o : outcomes) {
      if (o.metrics.empty()) continue;
      os << "# metrics index=" << o.index;
      for (const telemetry::MetricValue& m : o.metrics.metrics) {
        os << ' ';
        WriteCsvMetric(os, m);
      }
      os << '\n';
    }
  }
}

void WriteJson(std::ostream& os, const std::vector<SweepOutcome>& outcomes) {
  os << "{\"points\": [\n";
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const SweepOutcome& o = outcomes[i];
    const core::CoreConfig& c = o.config;
    const core::RunStats& s = o.result.stats;
    os << "  {\"index\": " << o.index << ", \"workload\": \""
       << JsonEscape(o.workload) << "\", \"processor\": \""
       << core::ProcessorKindName(o.kind) << "\",\n"
       << "   \"config\": {\"window_size\": " << c.window_size
       << ", \"num_regs\": " << c.num_regs
       << ", \"cluster_size\": " << c.cluster_size
       << ", \"fetch_width\": " << c.fetch_width << ", \"fetch_mode\": \""
       << FetchModeName(c.fetch_mode) << "\", \"predictor\": \""
       << PredictorName(c.predictor) << "\", \"mem_mode\": \""
       << MemModeName(c.mem.mode) << "\", \"num_alus\": " << c.num_alus
       << ", \"store_forwarding\": " << (c.store_forwarding ? "true" : "false")
       << ", \"pipeline_levels_per_stage\": " << c.pipeline_levels_per_stage
       << ", \"hierarchy\": \"" << HierarchyDesc(c.mem.hierarchy)
       << "\", \"max_cycles\": " << c.max_cycles << "},\n"
       << "   \"ok\": " << (o.ok ? "true" : "false") << ", \"error\": \""
       << JsonEscape(o.error) << "\", \"attempts\": " << o.attempts
       << ", \"deadline_exceeded\": "
       << (o.deadline_exceeded ? "true" : "false") << ",\n"
       << "   \"result\": {\"halted\": " << (o.result.halted ? "true" : "false")
       << ", \"cycles\": " << o.result.cycles
       << ", \"committed\": " << o.result.committed << ", \"ipc\": "
       << FormatIpc(o.result)
       << ",\n    \"stats\": {\"mispredictions\": " << s.mispredictions
       << ", \"squashed_instructions\": " << s.squashed_instructions
       << ", \"forwarded_loads\": " << s.forwarded_loads
       << ", \"load_count\": " << s.load_count
       << ", \"store_count\": " << s.store_count
       << ", \"fetch_stall_cycles\": " << s.fetch_stall_cycles
       << ", \"window_full_cycles\": " << s.window_full_cycles
       << ", \"faults_injected\": " << s.fault.injected
       << ", \"divergences_detected\": " << s.fault.divergences
       << ", \"checker_resyncs\": " << s.fault.resyncs
       << ", \"squashes_under_fault\": " << s.fault.squashes
       << ",\n     \"l1d_hits\": " << s.mem_hierarchy.l1d_hits
       << ", \"l1d_misses\": " << s.mem_hierarchy.l1d_misses
       << ", \"l1d_writebacks\": " << s.mem_hierarchy.l1d_writebacks
       << ", \"l2_hits\": " << s.mem_hierarchy.l2_hits
       << ", \"l2_misses\": " << s.mem_hierarchy.l2_misses
       << ", \"l2_writebacks\": " << s.mem_hierarchy.l2_writebacks
       << ",\n     \"icache_hits\": " << s.mem_hierarchy.icache_hits
       << ", \"icache_misses\": " << s.mem_hierarchy.icache_misses
       << ", \"icache_stall_cycles\": " << s.mem_hierarchy.icache_stall_cycles
       << ", \"prefetch_issued\": " << s.mem_hierarchy.prefetch_issued
       << ", \"prefetch_fills\": " << s.mem_hierarchy.prefetch_fills
       << ", \"prefetch_useful\": " << s.mem_hierarchy.prefetch_useful
       << "}}";
    // Per-point metrics, present only when collect_metrics filled them, so
    // uninstrumented sweeps keep the historical byte-exact shape.
    if (!o.metrics.empty()) {
      os << ",\n   \"metrics\": [";
      const auto& ms = o.metrics.metrics;
      for (std::size_t m = 0; m < ms.size(); ++m) {
        os << (m == 0 ? "\n    " : ",\n    ");
        WriteJsonMetric(os, ms[m]);
      }
      os << "\n   ]";
    }
    os << '}' << (i + 1 < outcomes.size() ? "," : "") << "\n";
  }
  os << "],\n \"quarantine\": [";
  const auto bad = Quarantine(outcomes);
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const SweepOutcome& o = *bad[i];
    os << (i == 0 ? "\n" : ",\n")
       << "  {\"index\": " << o.index << ", \"processor\": \""
       << core::ProcessorKindName(o.kind) << "\", \"workload\": \""
       << JsonEscape(o.workload) << "\", \"attempts\": " << o.attempts
       << ", \"deadline_exceeded\": "
       << (o.deadline_exceeded ? "true" : "false");
    if (o.config.fault_plan != nullptr &&
        o.config.fault_plan->provenance().randomized) {
      os << ", \"fault_seed\": " << o.config.fault_plan->provenance().seed;
    }
    // Full retry history, not just the terminal error — but only when
    // there *was* a retry, so single-attempt sweeps keep the historical
    // byte-exact shape.
    if (o.attempt_errors.size() > 1) {
      os << ", \"attempt_errors\": [";
      for (std::size_t a = 0; a < o.attempt_errors.size(); ++a) {
        os << (a == 0 ? "" : ", ") << '"' << JsonEscape(o.attempt_errors[a])
           << '"';
      }
      os << ']';
    }
    os << ", \"error\": \"" << JsonEscape(o.error) << "\"}";
  }
  os << (bad.empty() ? "" : "\n ") << "]}\n";
}

SweepCli ParseSweepCli(int& argc, char** argv) {
  SweepCli cli;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      cli.threads = std::atoi(arg + 10);
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      cli.csv_path = arg + 6;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      cli.json_path = arg + 7;
    } else if (std::strncmp(arg, "--journal=", 10) == 0) {
      cli.journal_path = arg + 10;
    } else if (std::strcmp(arg, "--resume") == 0) {
      cli.resume = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return cli;
}

SweepReport RunSweepCli(const SweepRunner& runner, const SweepCli& cli,
                        const std::vector<SweepPoint>& points) {
  if (cli.journal_path.empty()) return runner.RunWithReport(points);
  if (cli.resume) return runner.Resume(points, cli.journal_path);
  return runner.RunJournaled(points, cli.journal_path);
}

bool ExportOutcomes(const SweepCli& cli,
                    const std::vector<SweepOutcome>& outcomes) {
  bool ok = true;
  const auto write = [&](const std::string& path, auto writer) {
    if (path.empty()) return;
    // Render fully in memory, then commit atomically: a crash mid-export
    // leaves either the previous artifact or the new one, never a torn
    // file.
    std::ostringstream os;
    writer(os, outcomes);
    try {
      persist::AtomicWriteFile(path, std::string_view(os.view()));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(), e.what());
      ok = false;
    }
  };
  write(cli.csv_path, WriteCsv);
  write(cli.json_path, WriteJson);
  return ok;
}

}  // namespace ultra::runtime
