// Deterministic failpoint injection for the persist/service I/O stack.
//
// A *failpoint* is a named site inside an I/O routine (e.g.
// "journal.append.write") where a test, a chaos harness, or an operator can
// schedule a failure that the surrounding error-handling code must survive.
// The sites themselves live in failpoint::Io (io.hpp), the injectable seam
// every durability-critical syscall in src/persist and src/service goes
// through; this header is the registry that decides, per site and per hit,
// whether to inject and what.
//
// Design requirements, in order:
//
//  * Deterministic. Schedules are counted (fail on the Nth hit, fail every
//    Kth hit) or drawn from a seeded SplitMix64 stream — the same schedule
//    against the same workload injects at the same operations every run, so
//    a chaos failure is a repro, not an anecdote.
//  * Zero overhead when disabled. The seam's fast path is one relaxed
//    atomic load (failpoint::Enabled()); nothing in the simulator's cycle
//    loops consults the registry at all, and bench_failpoint_overhead gates
//    the compiled-in-but-disabled cost at <= 1% of sim throughput.
//  * Crash-capable. Beyond returning errors, a failpoint can *crash* the
//    process at an exact global I/O-operation index (crash-at-op), in three
//    flavors: _exit(137) for real kill-9-style chaos in scripts, a thrown
//    CrashInjected (deliberately not a std::exception, so no robustness
//    catch block can accidentally swallow a simulated crash) for
//    single-threaded unit tests, and a "silent" mode where the process
//    keeps running but every later seam operation becomes a no-op — the
//    disk image freezes exactly as a crash would leave it, which is what
//    lets tests/chaos_test.cpp enumerate every crash point of a daemon
//    without tearing down threads mid-flight.
//
// Schedules can be armed programmatically (Arm) or from the environment:
//
//   ULTRA_FAILPOINT="journal.append.write=enospc@3;protocol.recv=reset%5"
//   ULTRA_FAILPOINT_CRASH_AT_OP=17        # crash on the 17th seam op
//   ULTRA_FAILPOINT_CRASH_MODE=exit       # exit | throw | silent
//   ULTRA_FAILPOINT_COUNT=1               # enable the seam just to count ops
//   ULTRA_FAILPOINT_REPORT=/tmp/ops.txt   # write op/hit counts at exit
//
// Spec grammar, per site: <kind>@N (Nth hit, once), <kind>%K (every Kth
// hit), <kind>~P[:SEED] (probability P per hit, seeded). Kinds: eio,
// enospc, short (partial transfer, success), torn (partial transfer, then
// EIO — the torn-write case journal rollback exists for), reset
// (ECONNRESET), eof (recv sees EOF), crash. "fsync failure" is spelled
// `eio` on a `.fsync` site. See docs/robustness.md for the site catalog.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

namespace ultra::failpoint {

enum class ErrorKind : std::uint8_t {
  kNone = 0,
  kEio,        // -1 / EIO
  kEnospc,     // -1 / ENOSPC
  kShort,      // transfer half the bytes, return success (caller loops)
  kTornWrite,  // transfer half the bytes for real, then -1 / EIO
  kConnReset,  // -1 / ECONNRESET
  kEof,        // recv/read returns 0 (peer closed / truncated file)
  kCrash,      // crash per the registry's CrashMode
};

/// How an injected crash manifests. kExit is the honest one (the process
/// dies mid-syscall, like SIGKILL); kThrow and kSilent are in-process
/// simulations for tests that must keep running to inspect the wreckage.
enum class CrashMode : std::uint8_t {
  kThrow,   // throw CrashInjected at the crash op
  kSilent,  // keep running; all later seam ops are no-ops (disk is frozen)
  kExit,    // ::_exit(137) — for subprocess chaos scripts
};

/// Thrown by CrashMode::kThrow. Deliberately NOT derived from
/// std::exception: the robustness code under test catches std::exception
/// liberally, and a simulated crash that could be "handled" would defeat
/// the simulation. Only the chaos harness itself catches this.
struct CrashInjected {
  std::string site;
  std::uint64_t op = 0;
};

/// When to inject at one site. Exactly one of nth / every / probability is
/// normally set; if several are set, any matching trigger fires.
struct Schedule {
  ErrorKind kind = ErrorKind::kEio;
  std::uint64_t nth = 0;         // Fire on exactly the Nth hit (1-based).
  std::uint64_t every = 0;       // Fire when hit_count % every == 0.
  double probability = 0.0;      // Fire with this per-hit probability.
  std::uint64_t seed = 1;        // SplitMix64 seed for `probability`.
  std::uint64_t max_fires = ~0ull;  // Stop injecting after this many fires.
};

/// The registry's verdict for one seam operation.
struct Decision {
  ErrorKind kind = ErrorKind::kNone;  // kNone = perform the op for real.
  bool crash = false;                 // Crash (per mode) at this op.
  std::uint64_t op = 0;               // Global 1-based index of this op.
};

/// Process-global failpoint state. All methods are thread-safe; the
/// hot-path check is the free function Enabled() below.
class Registry {
 public:
  static Registry& Instance();

  /// Arms @p schedule at @p site (replacing any previous schedule) and
  /// enables the seam.
  void Arm(const std::string& site, Schedule schedule);

  /// Arms from a spec string ("site=kind@N;site2=kind%K..."). Returns
  /// false (and fills *error if given) on a malformed spec, leaving
  /// already-parsed entries armed.
  bool ArmSpec(const std::string& spec, std::string* error = nullptr);

  /// Arms a crash at the @p op-th seam operation (1-based, counted across
  /// every site) and enables the seam.
  void ArmCrashAtOp(std::uint64_t op, CrashMode mode);

  /// Sets how crashes manifest -- a crash-at-op and a site schedule's
  /// `crash` kind alike -- without arming anything.
  void SetCrashMode(CrashMode mode) {
    crash_mode_.store(mode, std::memory_order_release);
  }

  /// Enables the seam with no schedules: every operation is counted and
  /// performed for real. This is how a chaos harness measures N, the
  /// number of crash candidates, before enumerating crash-at-op = 1..N.
  void EnableCounting();

  void Disarm(const std::string& site);

  /// Disarms everything, clears all counters and the crashed flag, and
  /// disables the seam. Tests call this in their teardown guard.
  void Reset();

  /// Consulted by failpoint::FaultyIo for every seam operation: bumps the
  /// global op counter and the site hit counter, then applies (in order)
  /// crash-at-op, then the site schedule.
  Decision OnOp(const char* site);

  /// Latches the crashed flag. Called by the seam when a crash decision
  /// fires in kThrow or kSilent mode (kExit never returns to call it).
  void MarkCrashed() { crashed_.store(true, std::memory_order_release); }

  /// True once a crash fired in kThrow or kSilent mode. While crashed, the
  /// seam stops counting and every operation is a no-op: writes claim
  /// success without touching the file, reads and opens fail with EIO —
  /// the on-disk state is frozen at the crash point, exactly as a real
  /// crash would leave it for the next process to recover.
  [[nodiscard]] bool crashed() const {
    return crashed_.load(std::memory_order_acquire);
  }
  [[nodiscard]] CrashMode crash_mode() const {
    return crash_mode_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::uint64_t ops() const {
    return op_count_.load(std::memory_order_acquire);
  }
  /// Times @p site was reached (whether or not anything was injected).
  [[nodiscard]] std::uint64_t hits(const std::string& site) const;
  /// Times an error or crash was actually injected at @p site. Tests use
  /// this to *prove* an error branch executed rather than assume it.
  [[nodiscard]] std::uint64_t fires(const std::string& site) const;
  [[nodiscard]] std::uint64_t total_fires() const;

  /// "ops N" followed by one "site <name> hits <h> fires <f>" line per
  /// site reached, sorted by name. Written at exit to
  /// $ULTRA_FAILPOINT_REPORT by the env hook; chaos_smoke.sh reads it.
  void WriteReport(std::ostream& os) const;

 private:
  Registry();

  struct SiteState {
    Schedule schedule;
    bool armed = false;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
    std::uint64_t rng = 0;  // SplitMix64 state, seeded on Arm.
  };

  mutable std::mutex mu_;
  std::map<std::string, SiteState> sites_;
  std::atomic<std::uint64_t> op_count_{0};
  std::uint64_t total_fires_ = 0;
  std::uint64_t crash_at_op_ = 0;  // 0 = no crash-at-op armed.
  std::atomic<CrashMode> crash_mode_{CrashMode::kThrow};
  std::atomic<bool> crashed_{false};
};

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// The seam's fast path: one relaxed load. False until something arms the
/// registry (programmatically or via ULTRA_FAILPOINT* environment), after
/// which I/O routes through FaultyIo.
inline bool Enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

/// Parses one schedule spec ("enospc@3", "reset%5", "short~0.25:42",
/// "crash@1"). Returns false on malformed input.
bool ParseScheduleSpec(const std::string& spec, Schedule* out);

}  // namespace ultra::failpoint
