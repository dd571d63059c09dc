// Per-station execution step, shared by all cycle-level processor models.
//
// The models differ in how argument values reach a station (that is the
// whole point of the paper); once the arguments and the Figure 5 ordering
// flags are in hand, what a station does in a cycle is identical everywhere.
//
// Two optional features from the paper's Section 7 are wired through here:
//  * shared ALUs ("ALUs can be effectively shared ... efficient scheduling
//    logic" [6]) -- a station may begin an ALU operation only when the
//    AluScheduler granted it one of the k shared ALUs;
//  * memory renaming / store-to-load forwarding ("The memory bandwidth
//    pressure can also be reduced by using memory-renaming hardware, which
//    can be implemented by CSPP circuits") -- a load whose preceding stores
//    all have known addresses can either forward the matching store's data
//    without touching memory, or proceed to memory past disambiguated
//    stores.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "core/station.hpp"
#include "memory/memory_system.hpp"

namespace ultra::core {

/// Identifies the station an in-flight memory request belongs to;
/// generation filters out responses to squashed instructions.
struct MemTag {
  std::uint64_t tag = 0;  // Core-specific: station slot or sequence number.
  std::uint64_t generation = 0;
};

using InflightMap = std::unordered_map<std::uint64_t, MemTag>;

/// Everything a station needs from the rest of the machine this cycle.
struct StepContext {
  bool prev_stores_done = false;  // Figure 5 circuits.
  bool prev_loads_done = false;
  bool committed_ok = false;
  bool alu_granted = true;        // From the AluScheduler (or unlimited).
  // Store-to-load forwarding (loads only, when the feature is on).
  bool forwarding_enabled = false;
  bool load_can_proceed = false;  // All preceding store addresses known.
  bool load_forward = false;      // Nearest same-address store supplies data.
  isa::Word forward_value = 0;
};

/// True when @p op occupies one of the (possibly shared) ALUs while
/// executing. Loads/stores use the memory datapath's address adders and
/// nop/halt use none.
bool NeedsAlu(isa::Opcode op);

/// True when the station is ready to begin an ALU operation this cycle
/// (used to build the AluScheduler's request vector).
bool WantsAlu(const Station& st, const datapath::ResolvedArgs& args);

/// Advances one station by one cycle. Returns true when a control transfer
/// resolved this cycle and its actual next pc differs from the predicted
/// one (the caller squashes younger stations and redirects fetch).
bool StepStation(Station& st, const datapath::ResolvedArgs& args,
                 const StepContext& ctx, const isa::LatencyModel& latencies,
                 memory::MemorySystem& mem, std::uint64_t cycle, int leaf,
                 std::uint64_t tag, InflightMap& inflight, RunStats& stats);

/// Applies a completed memory response to its station.
void ApplyMemResponse(Station& st, const memory::MemResponse& resp,
                      std::uint64_t cycle);

// --- Store-to-load forwarding --------------------------------------------

/// One window slot's view for memory disambiguation, in program order.
struct MemWindowEntry {
  bool is_store = false;
  bool is_load = false;
  bool addr_known = false;
  isa::Word addr = 0;
  bool data_ready = false;  // Stores: the value to be stored is known.
  isa::Word data = 0;
};

struct LoadForwardDecision {
  bool can_proceed = false;  // All preceding store addresses are known.
  bool forward = false;      // A same-address store supplies the value.
  isa::Word value = 0;
};

/// Decides, for the load at @p pos (whose address must be known), whether
/// it can issue and whether it forwards. Walks back to the nearest
/// same-address store; an unknown store address blocks (conservative
/// disambiguation, as CSPP-based memory renaming would).
LoadForwardDecision ResolveLoadForwarding(
    std::span<const MemWindowEntry> window, std::size_t pos);

/// Fills a MemWindowEntry from a station and its current arguments.
MemWindowEntry MakeMemWindowEntry(const Station& st,
                                  const datapath::ResolvedArgs& args);

/// ResolveLoadForwarding over a window whose entries need not be contiguous
/// in age order (the packed loops keep them indexed by ring position or
/// station slot): @p entry_at(k) returns the entry for age index k. The
/// cycle engine decides every load through this form; the span form above
/// is this walk over a contiguous window.
template <typename EntryAt>
LoadForwardDecision ResolveLoadForwardingMapped(EntryAt&& entry_at,
                                                std::size_t pos) {
  const MemWindowEntry& self = entry_at(pos);
  assert(self.is_load && self.addr_known);
  const isa::Word addr = self.addr;
  for (std::size_t j = pos; j-- > 0;) {
    const MemWindowEntry& e = entry_at(j);
    if (!e.is_store) continue;
    if (!e.addr_known) return {};  // Ambiguous: wait.
    if (e.addr != addr) continue;
    if (!e.data_ready) return {};  // Right store, data not yet known.
    return {true, true, e.data};
  }
  return {true, false, 0};  // Disambiguated against every preceding store.
}

}  // namespace ultra::core
