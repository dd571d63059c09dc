#include "analysis/timing_diagram.hpp"

#include <algorithm>
#include <sstream>

#include "isa/instruction.hpp"

namespace ultra::analysis {

std::vector<InstrTiming> TimelineFromTrace(
    std::span<const telemetry::TraceEvent> events,
    const isa::Program& program) {
  // Retired spans come back in terminating-event (= commit) order.
  std::vector<InstrTiming> timeline;
  for (const telemetry::InstrSpan& sp : telemetry::CollectInstrSpans(events)) {
    if (!sp.retired) continue;
    timeline.push_back({sp.seq, sp.station, sp.pc, program.at(sp.pc),
                        sp.fetch_cycle, sp.issue_cycle, sp.complete_cycle,
                        sp.end_cycle});
  }
  return timeline;
}

std::string RenderTimingDiagram(std::span<const InstrTiming> timeline,
                                int max_rows) {
  if (timeline.empty()) return "(empty timeline)\n";
  std::uint64_t t0 = timeline.front().issue_cycle;
  std::uint64_t t_end = 0;
  for (const auto& t : timeline) {
    t0 = std::min(t0, t.issue_cycle);
    t_end = std::max(t_end, t.complete_cycle);
  }
  const auto span = static_cast<int>(t_end - t0 + 1);

  std::size_t label_width = 0;
  for (const auto& t : timeline) {
    label_width = std::max(label_width, isa::ToString(t.inst).size());
  }

  std::ostringstream os;
  int rows = 0;
  for (const auto& t : timeline) {
    if (rows++ >= max_rows) {
      os << "  ... (" << timeline.size() - static_cast<std::size_t>(max_rows)
         << " more)\n";
      break;
    }
    const std::string label = isa::ToString(t.inst);
    os << "  " << label << std::string(label_width - label.size(), ' ')
       << " |";
    const auto start = static_cast<int>(t.issue_cycle - t0);
    const auto stop = static_cast<int>(t.complete_cycle - t0);
    for (int c = 0; c < span; ++c) {
      os << (c >= start && c <= stop ? '#' : ' ');
    }
    os << "|\n";
  }
  os << "  " << std::string(label_width, ' ') << "  0";
  if (span > 4) {
    os << std::string(static_cast<std::size_t>(span) - 2, ' ')
       << span - 1;
  }
  os << " (cycles)\n";
  return os.str();
}

double LocalCommunicationFraction(std::span<const InstrTiming> timeline,
                                  std::uint64_t distance) {
  // For each instruction that reads a register, find the nearest preceding
  // writer of that register in commit order and record the gap.
  std::uint64_t pairs = 0;
  std::uint64_t local = 0;
  std::vector<std::size_t> last_writer(isa::kMaxLogicalRegisters,
                                       SIZE_MAX);
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const isa::Instruction& inst = timeline[i].inst;
    const auto account = [&](isa::RegId r) {
      const std::size_t w = last_writer[r];
      if (w == SIZE_MAX) return;
      ++pairs;
      if (i - w <= distance) ++local;
    };
    if (isa::ReadsRs1(inst.op)) account(inst.rs1);
    if (isa::ReadsRs2(inst.op)) account(inst.rs2);
    if (isa::WritesRd(inst.op)) last_writer[inst.rd] = i;
  }
  return pairs == 0 ? 0.0
                    : static_cast<double>(local) / static_cast<double>(pairs);
}

}  // namespace ultra::analysis
