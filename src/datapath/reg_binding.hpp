// Register bindings: the (value, ready-bit) pairs carried by every
// Ultrascalar register datapath.
#pragma once

#include <cstdint>

#include "isa/opcode.hpp"
#include "persist/serial.hpp"

namespace ultra::datapath {

/// One logical register's in-flight state: its latest value and whether the
/// instruction producing it has computed yet (the paper's "ready bit").
struct RegBinding {
  isa::Word value = 0;
  bool ready = false;

  friend bool operator==(const RegBinding&, const RegBinding&) = default;
};

/// What one execution station presents to a register datapath each cycle.
/// Mirrors the paper's constraint that an instruction reads at most two
/// registers and writes at most one.
struct StationRequest {
  bool reads1 = false;
  isa::RegId arg1 = 0;
  bool reads2 = false;
  isa::RegId arg2 = 0;
  bool writes = false;
  isa::RegId dest = 0;
  RegBinding result;  // Valid when writes; ready once the ALU has finished.

  friend bool operator==(const StationRequest&, const StationRequest&) =
      default;
};

/// What a register datapath hands back to one station: its two resolved
/// argument bindings.
struct ResolvedArgs {
  RegBinding arg1;
  RegBinding arg2;

  friend bool operator==(const ResolvedArgs&, const ResolvedArgs&) = default;
};

/// Checkpoint codecs for the cores' register bindings and cached arguments.
inline void Save(persist::Encoder& e, const RegBinding& b) {
  e.U32(b.value);
  e.Bool(b.ready);
}
inline void Restore(persist::Decoder& d, RegBinding& b) {
  b.value = d.U32();
  b.ready = d.Bool();
}
inline void Save(persist::Encoder& e, const ResolvedArgs& a) {
  Save(e, a.arg1);
  Save(e, a.arg2);
}
inline void Restore(persist::Decoder& d, ResolvedArgs& a) {
  Restore(d, a.arg1);
  Restore(d, a.arg2);
}

}  // namespace ultra::datapath
