// FaultInjector: replays a FaultPlan against a running core.
//
// The injector is a cursor over the plan's cycle-sorted events plus the
// helper that writes the datapath-targeting kinds into the stations'
// resolved arguments. The control kinds (kStallStation, kForceMispredict)
// are applied by the cores themselves -- they need the window geometry and
// the fetch engine.
//
// The datapath kinds mutate the *delivered* side of a datapath (the
// arguments a station reads), never the inputs, so a fault models a
// garbled or lost message on the wires, not a mis-programmed station. The
// packed cores cache each station's resolved arguments and re-resolve a
// station only when its argument source changes, so a corruption persists
// until that station is next re-resolved or a checker resync overwrites it
// -- exactly the window in which a real latched soft error would be live.
#pragma once

#include <cstdint>
#include <span>

#include "datapath/reg_binding.hpp"
#include "fault/fault_plan.hpp"
#include "persist/serial.hpp"

namespace ultra::fault {

struct FaultStats {
  std::uint64_t injected = 0;  // Events staged into an executed cycle.
};

class FaultInjector {
 public:
  /// @p plan may be null (inactive injector; every method is a no-op).
  /// The plan must outlive the injector.
  explicit FaultInjector(const FaultPlan* plan = nullptr)
      : plan_(plan), events_(plan ? plan->events() : std::span<const FaultEvent>{}) {}

  [[nodiscard]] bool active() const { return !events_.empty(); }

  /// Stages the events due at @p cycle; earlier never-staged events are
  /// skipped. Cycles must be non-decreasing across calls (one injector per
  /// core Run).
  void BeginCycle(std::uint64_t cycle);

  /// The events staged by the last BeginCycle.
  [[nodiscard]] std::span<const FaultEvent> pending() const {
    return events_.subspan(begin_, end_ - begin_);
  }

  /// True when any staged event is hazardous (can silently corrupt a
  /// value); checked mode cross-validates eagerly on such cycles.
  [[nodiscard]] bool HasHazardousPending() const;

  /// Applies the staged datapath-targeting events to the stations' cached
  /// resolved arguments: an event hits args[station % n], operand reg % 2
  /// (arg1 when even). Call once the cycle's arguments are final.
  void ApplyDatapathFaults(std::span<datapath::ResolvedArgs> args);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

  /// Checkpoint support: the cursor over the plan plus the accumulated
  /// stats. Restore requires an injector constructed over the same plan.
  void SaveState(persist::Encoder& e) const {
    e.U64(begin_);
    e.U64(end_);
    e.U64(stats_.injected);
  }
  void RestoreState(persist::Decoder& d) {
    begin_ = static_cast<std::size_t>(d.U64());
    end_ = static_cast<std::size_t>(d.U64());
    if (end_ > events_.size() || begin_ > end_) {
      throw persist::FormatError("fault cursor out of range");
    }
    stats_.injected = d.U64();
  }

 private:
  void ApplyToBinding(const FaultEvent& e, datapath::RegBinding& cell);

  const FaultPlan* plan_ = nullptr;
  std::span<const FaultEvent> events_;
  std::size_t begin_ = 0;  // Staged range [begin_, end_) of events_.
  std::size_t end_ = 0;
  FaultStats stats_;
};

}  // namespace ultra::fault
