// Sweep-level journaling: the record schema SweepRunner writes through
// persist::JournalWriter so an interrupted sweep resumes without redoing
// finished points.
//
// A journal holds one header record followed by one outcome record per
// completed point, in completion order (nondeterministic across runs; the
// runner re-sorts by submission index). The header pins the sweep identity
// — a fingerprint over every point's (kind, workload, config, program) plus
// the outcome-affecting options — and Resume refuses a journal whose
// fingerprint does not match the points it was handed, so a stale journal
// can never silently corrupt a different sweep's results.
//
// Outcome records deliberately omit wall_seconds (excluded from exports)
// and the final memory image (bulky and not exporter-visible); everything
// WriteCsv/WriteJson reads is present, which
// is what makes a resumed sweep's artifact byte-identical. See
// docs/runtime.md for the field-by-field schema.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "persist/serial.hpp"
#include "runtime/sweep_runner.hpp"

namespace ultra::runtime {

// Version 2: outcome records carry RunStats::mem_hierarchy (L1D/L2/icache
// hit/miss/write-back and prefetch counters).
inline constexpr std::uint32_t kSweepJournalVersion = 2;

/// Record types within the persist::JournalWriter framing.
inline constexpr std::uint32_t kJournalRecHeader = 1;
inline constexpr std::uint32_t kJournalRecOutcome = 2;

/// Identity of a sweep: FNV-1a over the point list (kind, workload, config
/// fingerprint, program fingerprint) and the options that shape outcomes
/// (check_architectural_state, max_attempts, collect_metrics). Thread
/// count, deadlines, and backoff are excluded: they affect timing, not the
/// deterministic exported fields.
[[nodiscard]] std::uint64_t FingerprintSweep(
    const std::vector<SweepPoint>& points, const SweepOptions& options);

/// Serializes every exporter-visible field of @p o (config is NOT stored;
/// Resume re-attaches it from the matching SweepPoint, which the sweep
/// fingerprint guarantees is identical).
void EncodeOutcome(persist::Encoder& e, const SweepOutcome& o);
/// Throws persist::FormatError on malformed input.
[[nodiscard]] SweepOutcome DecodeOutcome(persist::Decoder& d);

/// Everything recovered from a journal file.
struct SweepJournalContents {
  bool has_header = false;
  std::uint32_t version = 0;
  std::uint64_t sweep_fingerprint = 0;
  std::uint64_t point_count = 0;
  std::vector<SweepOutcome> outcomes;  // Completion order, as recorded.
};

[[nodiscard]] std::vector<std::uint8_t> EncodeJournalHeader(
    std::uint64_t sweep_fingerprint, std::uint64_t point_count);

/// Reads @p path (missing file: empty contents, has_header == false).
/// Records after the first torn/corrupt frame are discarded by the framing
/// layer; records of unknown type are skipped for forward compatibility.
[[nodiscard]] SweepJournalContents ReadSweepJournal(const std::string& path);

}  // namespace ultra::runtime
