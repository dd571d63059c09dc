// Shared checkpoint plumbing for the four cycle-level cores.
//
// Each core keeps its microarchitectural state in locals inside Run(); the
// checkpoint hook is therefore a pair of lambdas defined next to those
// locals (one serializing, one restoring) plus a CheckpointSession that
// decides *when* to capture and stamps/validates the header. The capture
// point is the top of the cycle loop, before phase 1: a checkpoint at
// cycle k holds the machine exactly as the uninterrupted run saw it when
// it began cycle k, so a restored run re-executes cycle k onward
// cycle-for-cycle identically — including live fault corruptions, which
// ride along inside the packed path's serialized station arguments.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/processor.hpp"
#include "core/station.hpp"
#include "core/config_codec.hpp"
#include "core/exec.hpp"
#include "isa/program_codec.hpp"
#include "persist/checkpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace ultra::core {

inline void SaveFetchedInstr(persist::Encoder& e, const FetchedInstr& f) {
  e.U64(f.pc);
  e.U64(isa::Encode(f.inst));
  e.Bool(f.is_control);
  e.Bool(f.predicted_taken);
  e.U64(f.predicted_next_pc);
}

inline void RestoreFetchedInstr(persist::Decoder& d, FetchedInstr& f) {
  f.pc = static_cast<std::size_t>(d.U64());
  const auto inst = isa::Decode(d.U64());
  if (!inst) throw persist::FormatError("undecodable instruction");
  f.inst = *inst;
  f.is_control = d.Bool();
  f.predicted_taken = d.Bool();
  f.predicted_next_pc = static_cast<std::size_t>(d.U64());
}

inline void SaveStation(persist::Encoder& e, const Station& st) {
  e.Bool(st.valid);
  e.U64(st.seq);
  SaveFetchedInstr(e, st.fetched);
  e.Bool(st.issued);
  e.Bool(st.finished);
  e.I32(st.busy_remaining);
  e.U32(st.arg_a);
  e.U32(st.arg_b);
  datapath::Save(e, st.result);
  e.Bool(st.resolved);
  e.Bool(st.actual_taken);
  e.U64(st.actual_next_pc);
  e.Bool(st.mem_submitted);
  e.Bool(st.mem_done);
  e.U64(st.mem_id);
  e.U64(st.generation);
  e.U64(st.issue_cycle);
  e.U64(st.complete_cycle);
}

inline void RestoreStation(persist::Decoder& d, Station& st) {
  st.valid = d.Bool();
  st.seq = d.U64();
  RestoreFetchedInstr(d, st.fetched);
  st.issued = d.Bool();
  st.finished = d.Bool();
  st.busy_remaining = d.I32();
  st.arg_a = d.U32();
  st.arg_b = d.U32();
  datapath::Restore(d, st.result);
  st.resolved = d.Bool();
  st.actual_taken = d.Bool();
  st.actual_next_pc = static_cast<std::size_t>(d.U64());
  st.mem_submitted = d.Bool();
  st.mem_done = d.Bool();
  st.mem_id = d.U64();
  st.generation = d.U64();
  st.issue_cycle = d.U64();
  st.complete_cycle = d.U64();
}

/// In-flight memory tags, emitted sorted by request id so the bytes are
/// deterministic regardless of hash-map iteration order.
inline void SaveInflight(persist::Encoder& e, const InflightMap& inflight) {
  std::vector<std::uint64_t> ids;
  ids.reserve(inflight.size());
  for (const auto& [id, tag] : inflight) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  e.U32(static_cast<std::uint32_t>(ids.size()));
  for (const std::uint64_t id : ids) {
    const MemTag& tag = inflight.at(id);
    e.U64(id);
    e.U64(tag.tag);
    e.U64(tag.generation);
  }
}

inline void RestoreInflight(persist::Decoder& d, InflightMap& inflight) {
  inflight.clear();
  const std::uint32_t n = d.U32();
  inflight.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t id = d.U64();
    MemTag tag;
    tag.tag = d.U64();
    tag.generation = d.U64();
    inflight.emplace(id, tag);
  }
}

/// The in-progress RunResult, minus regs/memory (both derived from
/// committed state when Run() returns) and Ipc() (computed).
inline void SavePartialResult(persist::Encoder& e, const RunResult& r) {
  e.Bool(r.halted);
  e.U64(r.cycles);
  e.U64(r.committed);
  e.U64(r.stats.mispredictions);
  e.U64(r.stats.forwarded_loads);
  e.U64(r.stats.squashed_instructions);
  e.U64(r.stats.load_count);
  e.U64(r.stats.store_count);
  e.U64(r.stats.fetch_stall_cycles);
  e.U64(r.stats.window_full_cycles);
  e.U64(r.stats.fault.injected);
  e.U64(r.stats.fault.checks);
  e.U64(r.stats.fault.divergences);
  e.U64(r.stats.fault.resyncs);
  e.U64(r.stats.fault.squashes);
}

inline void RestorePartialResult(persist::Decoder& d, RunResult& r) {
  r.halted = d.Bool();
  r.cycles = d.U64();
  r.committed = d.U64();
  r.stats.mispredictions = d.U64();
  r.stats.forwarded_loads = d.U64();
  r.stats.squashed_instructions = d.U64();
  r.stats.load_count = d.U64();
  r.stats.store_count = d.U64();
  r.stats.fetch_stall_cycles = d.U64();
  r.stats.window_full_cycles = d.U64();
  r.stats.fault.injected = d.U64();
  r.stats.fault.checks = d.U64();
  r.stats.fault.divergences = d.U64();
  r.stats.fault.resyncs = d.U64();
  r.stats.fault.squashes = d.U64();
}

/// Telemetry counter slots (when a bound sink is attached), so metrics
/// resume mid-run exactly where the checkpoint left them. The pipeline
/// tracer's event ring is deliberately NOT checkpointed: trace events are
/// observability output, not machine state, and do not affect timing.
inline void SaveTelemetrySlots(persist::Encoder& e, const CoreConfig& config) {
  const bool on =
      config.telemetry != nullptr && config.telemetry->sheet.enabled();
  e.Bool(on);
  if (!on) return;
  const auto slots = config.telemetry->sheet.slots();
  e.U32(static_cast<std::uint32_t>(slots.size()));
  for (const std::uint64_t v : slots) e.U64(v);
}

inline void RestoreTelemetrySlots(persist::Decoder& d,
                                  const CoreConfig& config) {
  if (!d.Bool()) return;
  const std::uint32_t n = d.U32();
  std::vector<std::uint64_t> values;
  values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) values.push_back(d.U64());
  if (config.telemetry != nullptr) {
    config.telemetry->sheet.RestoreSlots(values);
  }
}

/// Decides when to capture, stamps headers, and validates a resume
/// checkpoint against this core's kind / config / program before the run
/// starts (a mismatch throws persist::FormatError rather than diverging
/// silently).
class CheckpointSession {
 public:
  CheckpointSession(const CoreConfig& config, ProcessorKind kind,
                    const isa::Program& program)
      : ctl_(config.checkpoint), kind_(kind) {
    if (ctl_ == nullptr) return;
    config_fingerprint_ = FingerprintConfig(config);
    program_fingerprint_ = isa::FingerprintProgram(program);
    if (ctl_->resume != nullptr) {
      const persist::CheckpointHeader& h = ctl_->resume->header;
      if (h.core_kind != static_cast<std::uint8_t>(kind_)) {
        throw persist::FormatError("checkpoint is for a different core");
      }
      if (h.config_fingerprint != config_fingerprint_) {
        throw persist::FormatError(
            "checkpoint config fingerprint mismatch");
      }
      if (h.program_fingerprint != program_fingerprint_) {
        throw persist::FormatError(
            "checkpoint program fingerprint mismatch");
      }
    }
  }

  /// Null when no checkpointing is attached or this run is not a resume.
  [[nodiscard]] const persist::Checkpoint* resume() const {
    return ctl_ != nullptr ? ctl_->resume : nullptr;
  }

  /// Captures a checkpoint when the control says cycle @p cycle is due.
  /// Returns true when the run should stop right after the capture
  /// (CheckpointControl::stop_after_save).
  template <typename SaveFn>
  [[nodiscard]] bool MaybeSave(std::uint64_t cycle, SaveFn&& save) {
    if (ctl_ == nullptr || !ctl_->ShouldSave(cycle)) return false;
    persist::Encoder e;
    save(e);
    persist::Checkpoint checkpoint;
    checkpoint.header.core_kind = static_cast<std::uint8_t>(kind_);
    checkpoint.header.cycle = cycle;
    checkpoint.header.config_fingerprint = config_fingerprint_;
    checkpoint.header.program_fingerprint = program_fingerprint_;
    checkpoint.state = e.Take();
    if (ctl_->sink) ctl_->sink(std::move(checkpoint));
    return ctl_->stop_after_save;
  }

 private:
  persist::CheckpointControl* ctl_;
  ProcessorKind kind_;
  std::uint64_t config_fingerprint_ = 0;
  std::uint64_t program_fingerprint_ = 0;
};

}  // namespace ultra::core
