// Versioned full-state simulation checkpoints.
//
// A checkpoint captures everything a core's Run() loop holds at the top of a
// cycle boundary — architectural state (registers, memory image, fetch PC)
// and microarchitectural state (station/window contents, datapath delivery
// buffers, predictor state, in-flight memory traffic, fault-plan cursors,
// accumulated RunStats) — so a run restored at cycle k continues
// cycle-for-cycle identical to the uninterrupted run, including under live
// fault corruption. The state blob's layout is owned by the core that wrote
// it (persist only frames it); the header identifies which core, cycle, and
// (config, program) pair the blob belongs to.
//
// File frame (little-endian):
//   u32 magic "UCKP" | u32 version | header fields | u32 state length |
//   state bytes | u32 CRC-32 of everything before the CRC
// Decode rejects bad magic, unknown versions, truncation, and CRC mismatch
// with FormatError. WriteCheckpointFile commits via temp-file + rename, so a
// crash mid-save never leaves a torn checkpoint behind.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "persist/serial.hpp"

namespace ultra::persist {

inline constexpr std::uint32_t kCheckpointMagic = 0x504B4355;  // "UCKP" LE.
// Version 2: a packed-path fallback counter joined the serialized partial
// result (core/checkpoint_util.hpp).
// Version 3: MemorySystem and FetchEngine state grew the L1D/L2/icache
// hierarchy models, in-flight hierarchy misses, and queued prefetch fills
// (memory/hierarchy.hpp).
// Version 4: the fallback counter left the partial result again; the
// incremental datapath state left the core blobs (it is rebuilt from the
// stations on restore) and packed runs serialize their cached station
// arguments and stale set instead, so live fault corruptions survive.
// Version 5: every cache in MemorySystem is one CacheLevelModel: the banked
// cache (absent in kMagic) gained dirty/prefetched bits and the per-level
// stats, the cluster caches moved from word lists to model instances, and
// the L1D/L2 pair became a role-tagged chain of levels.
// Version 6: the per-instruction timeline left the partial result and each
// station keeps only its issue and complete cycles, so a checkpoint's size
// depends on the window and the touched memory, not on the run's length.
// Version 7: the fault injector saves only its cursor and the injected
// count; the six per-kind counters that nothing read are gone.
inline constexpr std::uint32_t kCheckpointVersion = 7;

struct CheckpointHeader {
  /// core::ProcessorKind of the core that wrote the blob (stored as the raw
  /// enum value so persist does not depend on core).
  std::uint8_t core_kind = 0;
  /// Cycle boundary the state was captured at: the run restores with this
  /// cycle about to execute.
  std::uint64_t cycle = 0;
  /// Fingerprints of the CoreConfig / Program the blob belongs to; restore
  /// entry points refuse mismatches.
  std::uint64_t config_fingerprint = 0;
  std::uint64_t program_fingerprint = 0;

  friend bool operator==(const CheckpointHeader&,
                         const CheckpointHeader&) = default;
};

struct Checkpoint {
  CheckpointHeader header;
  std::vector<std::uint8_t> state;  // Core-owned layout.
};

[[nodiscard]] std::vector<std::uint8_t> EncodeCheckpoint(
    const Checkpoint& checkpoint);
/// Throws FormatError on bad magic/version/CRC or truncation.
[[nodiscard]] Checkpoint DecodeCheckpoint(std::span<const std::uint8_t> data);

/// Atomic temp-file + rename + fsync commit.
void WriteCheckpointFile(const std::string& path, const Checkpoint& checkpoint);
[[nodiscard]] Checkpoint ReadCheckpointFile(const std::string& path);

/// The capture/restore contract between a caller and a core's Run() loop,
/// attached via CoreConfig::checkpoint. The core consults ShouldSave() at
/// the top of every cycle (before any phase of that cycle executes) and
/// hands captured state to sink; when resume is set, the core loads the
/// blob instead of starting from cycle 0. Single-threaded like the cores.
struct CheckpointControl {
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};

  /// Periodic capture every save_every cycles (0 = off). Cycle 0 is never
  /// captured — it is the initial state, reproducible from the inputs.
  std::uint64_t save_every = 0;
  /// One-shot capture at this exact cycle (kNever = off).
  std::uint64_t save_at = kNever;
  /// Abandon the run right after a capture (RunResult is partial, like a
  /// cancelled run). SaveCheckpoint uses this to stop at the target cycle.
  bool stop_after_save = false;
  /// Receives every captured checkpoint. Must be set when any save trigger
  /// is armed.
  std::function<void(Checkpoint&&)> sink;
  /// When non-null, Run() restores this state and continues from its cycle.
  /// The pointee must outlive Run(). Callers are responsible for matching
  /// kind/config/program (Processor::RestoreCheckpoint validates).
  const Checkpoint* resume = nullptr;

  /// True when the core should capture at @p cycle. Cycles at or before a
  /// resume point never re-save (the resumed loop re-enters at the saved
  /// cycle; saving it again would duplicate or, with stop_after_save,
  /// immediately abandon the run).
  [[nodiscard]] bool ShouldSave(std::uint64_t cycle) const {
    if (cycle == 0) return false;
    if (resume != nullptr && cycle <= resume->header.cycle) return false;
    if (save_at != kNever && cycle == save_at) return true;
    return save_every != 0 && cycle % save_every == 0;
  }
};

}  // namespace ultra::persist
