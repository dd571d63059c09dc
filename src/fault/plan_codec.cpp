#include "fault/plan_codec.hpp"

namespace ultra::fault {

void EncodeFaultPlan(persist::Encoder& e, const FaultPlan& plan) {
  const FaultPlanProvenance& p = plan.provenance();
  e.Bool(p.randomized);
  e.U64(p.seed);
  e.F64(p.rate_per_cycle);
  e.U64(p.horizon_cycles);
  e.U32(static_cast<std::uint32_t>(plan.size()));
  for (const FaultEvent& ev : plan.events()) {
    e.U64(ev.cycle);
    e.U8(static_cast<std::uint8_t>(ev.kind));
    e.I32(ev.station);
    e.I32(ev.reg);
    e.U64(ev.payload);
  }
}

FaultPlan DecodeFaultPlan(persist::Decoder& d) {
  FaultPlanProvenance p;
  p.randomized = d.Bool();
  p.seed = d.U64();
  p.rate_per_cycle = d.F64();
  p.horizon_cycles = d.U64();
  const std::uint32_t n = d.U32();
  std::vector<FaultEvent> events;
  events.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    FaultEvent ev;
    ev.cycle = d.U64();
    const std::uint8_t kind = d.U8();
    if (kind > static_cast<std::uint8_t>(FaultKind::kForceMispredict)) {
      throw persist::FormatError("unknown fault kind");
    }
    ev.kind = static_cast<FaultKind>(kind);
    ev.station = d.I32();
    ev.reg = d.I32();
    if (ev.station < 0 || ev.reg < 0) {
      // The cores index stations with station % n.
      throw persist::FormatError("negative fault site");
    }
    ev.payload = d.U64();
    events.push_back(ev);
  }
  FaultPlan plan(std::move(events));
  plan.SetProvenance(p);
  return plan;
}

}  // namespace ultra::fault
