#include "fault/injector.hpp"

namespace ultra::fault {

void FaultInjector::BeginCycle(std::uint64_t cycle) {
  if (!active()) return;
  begin_ = end_;
  while (begin_ < events_.size() && events_[begin_].cycle < cycle) ++begin_;
  end_ = begin_;
  while (end_ < events_.size() && events_[end_].cycle == cycle) ++end_;
  stats_.injected += end_ - begin_;
}

bool FaultInjector::HasHazardousPending() const {
  for (const FaultEvent& e : pending()) {
    if (IsHazardous(e.kind)) return true;
  }
  return false;
}

void FaultInjector::ApplyToBinding(const FaultEvent& e,
                                   datapath::RegBinding& cell) {
  switch (e.kind) {
    case FaultKind::kCorruptValue:
      cell.value ^= static_cast<isa::Word>(e.payload | 1);  // Never a no-op.
      break;
    case FaultKind::kFlipReady:
      cell.ready = !cell.ready;
      break;
    case FaultKind::kDropDelivery:
      cell.ready = false;  // Already not ready: the event is masked.
      break;
    default:
      break;  // Control kinds are applied by the core.
  }
}

void FaultInjector::ApplyDatapathFaults(
    std::span<datapath::ResolvedArgs> args) {
  if (args.empty()) return;
  for (const FaultEvent& e : pending()) {
    if (!TargetsDatapath(e.kind)) continue;
    datapath::ResolvedArgs& hit =
        args[static_cast<std::size_t>(e.station) % args.size()];
    ApplyToBinding(e, e.reg % 2 == 0 ? hit.arg1 : hit.arg2);
  }
}

}  // namespace ultra::fault
