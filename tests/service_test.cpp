// Tests for the crash-restartable sweep service (src/service/): protocol
// round-trips, end-to-end submit/wait over a real unix-domain socket,
// bounded admission with overload rejection and recovery, request deadlines,
// client-disconnect cancellation, graceful drain, journal self-healing at
// startup, and the headline robustness property — a daemon killed mid-sweep
// restarts and produces an export byte-identical to an uninterrupted run.
//
// The crash-restart test freezes the daemon's disk with a silent failpoint
// crash at a fixed journal append (the on-disk state a power cut there
// would leave), then hard-stops it with SweepService::Stop(drain=false): a
// cooperative cancel that joins threads but, like a real SIGKILL, writes no
// done records and journals no cancelled points. The CI service smoke job
// (scripts/service_smoke.sh) covers the literal kill -9 against a live
// daemon process; these tests keep the same recovery machinery under gtest
// and ASan.
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "failpoint/failpoint.hpp"
#include "isa/assembler.hpp"
#include "persist/journal.hpp"
#include "persist/serial.hpp"
#include "runtime/sweep_io.hpp"
#include "runtime/sweep_runner.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/sweep_service.hpp"
#include "workloads/workloads.hpp"

namespace ultra {
namespace {

using core::ProcessorKind;

/// A scratch directory unique to the current test, cleaned up on teardown.
/// Also provides a socket path short enough for sun_path.
class TempDir {
 public:
  TempDir() {
    const auto* info = testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            (std::string("ultra_svc_") + info->name());
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string File(const std::string& name) const {
    return (path_ / name).string();
  }
  [[nodiscard]] std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

/// A small deterministic sweep: 2 kinds x 2 windows over one program.
std::vector<runtime::SweepPoint> SmallSweep(int fib = 10) {
  const auto program =
      std::make_shared<const isa::Program>(workloads::Fibonacci(fib));
  std::vector<runtime::SweepPoint> points;
  for (const ProcessorKind kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI}) {
    for (const int window : {8, 16}) {
      runtime::SweepPoint p;
      p.kind = kind;
      p.config.window_size = window;
      p.program = program;
      p.workload = "fib";
      points.push_back(std::move(p));
    }
  }
  return points;
}

/// A sweep whose points never halt on their own (max_cycles unbounded):
/// only cancellation — deadline, client cancel, drain — can end them.
std::vector<runtime::SweepPoint> SpinSweep(std::size_t n_points = 1) {
  const auto program = std::make_shared<const isa::Program>(
      isa::AssembleOrDie("loop: jmp loop\n"));
  std::vector<runtime::SweepPoint> points;
  for (std::size_t i = 0; i < n_points; ++i) {
    runtime::SweepPoint p;
    p.kind = ProcessorKind::kUltrascalarI;
    p.config.window_size = 8;
    p.config.max_cycles = ~0ull;
    p.program = program;
    p.workload = "spin";
    points.push_back(std::move(p));
  }
  return points;
}

service::ServiceOptions MakeOptions(const TempDir& tmp) {
  service::ServiceOptions options;
  options.socket_path = tmp.File("svc.sock");
  options.state_dir = tmp.File("state");
  options.max_queue = 4;
  options.drain_timeout_seconds = 10.0;
  options.sweep.num_threads = 2;
  return options;
}

/// The reference artifact: the same points run locally, no service involved.
std::string LocalCsv(const std::vector<runtime::SweepPoint>& points) {
  runtime::SweepOptions options;
  options.num_threads = 2;
  const runtime::SweepRunner runner(options);
  std::ostringstream os;
  runtime::WriteCsv(os, runner.Run(points));
  return os.str();
}

std::string ReadFileText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// --- Protocol round-trips -------------------------------------------------

TEST(ServiceProtocol, SubmitRequestRoundTrips) {
  service::SubmitRequest req;
  req.points = SmallSweep();
  req.deadline_seconds = 12.5;
  req.detach = true;
  req.tag = "nightly";
  req.csv_name = "out.csv";
  req.json_name = "out.json";

  persist::Encoder e;
  service::EncodeSubmitRequest(e, req);
  persist::Decoder d(e.bytes());
  const service::SubmitRequest back = service::DecodeSubmitRequest(d);
  EXPECT_TRUE(d.AtEnd());
  ASSERT_EQ(back.points.size(), req.points.size());
  EXPECT_EQ(back.deadline_seconds, req.deadline_seconds);
  EXPECT_EQ(back.detach, req.detach);
  EXPECT_EQ(back.tag, req.tag);
  EXPECT_EQ(back.csv_name, req.csv_name);
  EXPECT_EQ(back.json_name, req.json_name);
  for (std::size_t i = 0; i < back.points.size(); ++i) {
    EXPECT_EQ(back.points[i].kind, req.points[i].kind);
    EXPECT_EQ(back.points[i].workload, req.points[i].workload);
    EXPECT_EQ(back.points[i].config.window_size,
              req.points[i].config.window_size);
    ASSERT_NE(back.points[i].program, nullptr);
    EXPECT_EQ(back.points[i].program->size(), req.points[i].program->size());
  }
}

TEST(ServiceProtocol, RepliesRoundTrip) {
  {
    persist::Encoder e;
    service::EncodeSubmitReply(
        e, {service::AdmitStatus::kOverloaded, 7, 4, "queue full"});
    persist::Decoder d(e.bytes());
    const service::SubmitReply r = service::DecodeSubmitReply(d);
    EXPECT_EQ(r.status, service::AdmitStatus::kOverloaded);
    EXPECT_EQ(r.request_id, 7u);
    EXPECT_EQ(r.queue_depth, 4u);
    EXPECT_EQ(r.message, "queue full");
  }
  {
    persist::Encoder e;
    service::WaitReply reply;
    reply.state = service::RequestState::kDeadlineExceeded;
    reply.ok_points = 3;
    reply.failed_points = 1;
    reply.csv_text = "a,b\n";
    reply.message = "late";
    service::EncodeWaitReply(e, reply);
    persist::Decoder d(e.bytes());
    const service::WaitReply r = service::DecodeWaitReply(d);
    EXPECT_EQ(r.state, service::RequestState::kDeadlineExceeded);
    EXPECT_EQ(r.ok_points, 3u);
    EXPECT_EQ(r.failed_points, 1u);
    EXPECT_EQ(r.csv_text, "a,b\n");
    EXPECT_EQ(r.message, "late");
  }
  {
    // Corrupt enum values must be FormatError, not out-of-range enums.
    persist::Encoder e;
    e.U8(250);
    e.U64(0);
    e.U64(0);
    e.Str("");
    persist::Decoder d(e.bytes());
    EXPECT_THROW((void)service::DecodeSubmitReply(d), persist::FormatError);
  }
}

// --- End to end over a real socket ---------------------------------------

TEST(SweepService, SubmitWaitExportMatchesLocalRunByteForByte) {
  const TempDir tmp;
  service::SweepService svc(MakeOptions(tmp));
  svc.Start();

  service::SweepClient client(svc.options().socket_path);
  service::SubmitRequest req;
  req.points = SmallSweep();
  req.csv_name = "sweep.csv";
  req.json_name = "sweep.json";
  const service::SubmitReply admitted = client.Submit(req);
  ASSERT_EQ(admitted.status, service::AdmitStatus::kAccepted);
  ASSERT_NE(admitted.request_id, 0u);

  service::WaitRequest wait;
  wait.request_id = admitted.request_id;
  wait.want_csv = true;
  wait.want_json = true;
  const service::WaitReply done = client.Wait(wait);
  EXPECT_EQ(done.state, service::RequestState::kDone);
  EXPECT_EQ(done.ok_points, req.points.size());
  EXPECT_EQ(done.failed_points, 0u);

  // The reply's bytes, the on-disk export, and a serverless local run of
  // the same points must all be the same artifact.
  const std::string local = LocalCsv(req.points);
  EXPECT_EQ(done.csv_text, local);
  EXPECT_EQ(ReadFileText(tmp.File("state/sweep.csv")), local);
  EXPECT_FALSE(done.json_text.empty());
  EXPECT_EQ(ReadFileText(tmp.File("state/sweep.json")), done.json_text);

  const std::string metrics = client.Status();
  EXPECT_NE(metrics.find("service.accepted 1"), std::string::npos);
  EXPECT_NE(metrics.find("service.completed 1"), std::string::npos);
  EXPECT_NE(metrics.find("sweep.attempts"), std::string::npos);

  svc.Stop(/*drain=*/true);
  EXPECT_FALSE(svc.running());
}

TEST(SweepService, RejectsInvalidSubmissions) {
  const TempDir tmp;
  service::SweepService svc(MakeOptions(tmp));
  svc.Start();
  service::SweepClient client(svc.options().socket_path);

  service::SubmitRequest empty;
  EXPECT_EQ(client.Submit(empty).status, service::AdmitStatus::kInvalid);

  service::SubmitRequest escape;
  escape.points = SmallSweep();
  escape.csv_name = "../outside.csv";  // Must not escape the state dir.
  EXPECT_EQ(client.Submit(escape).status, service::AdmitStatus::kInvalid);

  service::SubmitRequest slash;
  slash.points = SmallSweep();
  slash.json_name = "sub/dir.json";
  EXPECT_EQ(client.Submit(slash).status, service::AdmitStatus::kInvalid);

  // Reserved names: an export atomically renamed over the daemon's own
  // state files would destroy the admission log or the flock'd lock file.
  for (const char* name :
       {"lock", "requests.journal", "req-1.journal", "other.journal"}) {
    service::SubmitRequest reserved;
    reserved.points = SmallSweep();
    reserved.csv_name = name;
    EXPECT_EQ(client.Submit(reserved).status, service::AdmitStatus::kInvalid)
        << name;
  }

  // Deadlines whose nanosecond conversion would be undefined behavior.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 1e300}) {
    service::SubmitRequest deadline;
    deadline.points = SmallSweep();
    deadline.deadline_seconds = bad;
    EXPECT_EQ(client.Submit(deadline).status, service::AdmitStatus::kInvalid)
        << bad;
  }

  EXPECT_EQ(svc.counters().rejected_invalid, 10u);
  svc.Stop(/*drain=*/false);
}

// Regression: client disconnect finalizes every queued request it owned,
// and with zero retention each finalization prunes the requests_ map
// mid-cancellation — this must not invalidate the iteration over the map
// (historically a use-after-erase crash).
TEST(SweepService, DisconnectCancelsQueuedUnderRetentionPressure) {
  const TempDir tmp;
  service::ServiceOptions options = MakeOptions(tmp);
  options.max_retained_results = 0;  // Prune terminal requests immediately.
  service::SweepService svc(std::move(options));
  svc.Start();

  {
    service::SweepClient client(svc.options().socket_path);
    // Occupy the executor so the follow-up submissions stay queued.
    service::SubmitRequest spin;
    spin.points = SpinSweep();
    ASSERT_EQ(client.Submit(spin).status, service::AdmitStatus::kAccepted);
    for (int i = 0; i < 200 && svc.queue_depth() != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(svc.queue_depth(), 0u);

    for (int i = 0; i < 3; ++i) {
      service::SubmitRequest req;
      req.points = SmallSweep();
      ASSERT_EQ(client.Submit(req).status, service::AdmitStatus::kAccepted);
    }
  }  // Disconnect: all four attached requests are orphaned at once.

  for (int i = 0; i < 500 && svc.counters().disconnect_cancels < 4; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(svc.counters().disconnect_cancels, 4u);
  EXPECT_EQ(svc.queue_depth(), 0u);
  svc.Stop(/*drain=*/false);
}

TEST(SweepService, OverloadRejectsExplicitlyThenRecovers) {
  const TempDir tmp;
  service::ServiceOptions options = MakeOptions(tmp);
  options.max_queue = 1;  // One waiting slot behind the running request.
  service::SweepService svc(std::move(options));
  svc.Start();
  service::SweepClient client(svc.options().socket_path);

  // Occupy the executor with a request only cancellation can end, then
  // fill the single queue slot.
  service::SubmitRequest spin;
  spin.points = SpinSweep();
  spin.detach = true;
  const service::SubmitReply running = client.Submit(spin);
  ASSERT_EQ(running.status, service::AdmitStatus::kAccepted);
  // Wait until the executor actually picked it up so the queue is empty.
  for (int i = 0; i < 200 && svc.queue_depth() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(svc.queue_depth(), 0u);

  service::SubmitRequest queued;
  queued.points = SmallSweep();
  queued.detach = true;
  queued.csv_name = "queued.csv";
  const service::SubmitReply waiting = client.Submit(queued);
  ASSERT_EQ(waiting.status, service::AdmitStatus::kAccepted);

  // The queue is now full: further offered load is rejected, not buffered.
  service::SubmitRequest excess;
  excess.points = SmallSweep();
  const service::SubmitReply rejected = client.Submit(excess);
  EXPECT_EQ(rejected.status, service::AdmitStatus::kOverloaded);
  EXPECT_EQ(svc.counters().rejected_overload, 1u);

  // Shed the stuck request: the service must recover and accept again.
  const service::CancelReply cancelled = client.Cancel(running.request_id);
  EXPECT_TRUE(cancelled.cancelled);
  service::WaitRequest drain_wait;
  drain_wait.request_id = waiting.request_id;
  const service::WaitReply queued_done = client.Wait(drain_wait);
  EXPECT_EQ(queued_done.state, service::RequestState::kDone);

  service::SubmitRequest after;
  after.points = SmallSweep();
  after.detach = true;
  const service::SubmitReply accepted_again = client.Submit(after);
  EXPECT_EQ(accepted_again.status, service::AdmitStatus::kAccepted);

  // The cancelled spin must be reported as such.
  service::WaitRequest spin_wait;
  spin_wait.request_id = running.request_id;
  EXPECT_EQ(client.Wait(spin_wait).state, service::RequestState::kCancelled);

  svc.Stop(/*drain=*/false);
}

TEST(SweepService, DeadlineCancelsCooperatively) {
  const TempDir tmp;
  service::SweepService svc(MakeOptions(tmp));
  svc.Start();
  service::SweepClient client(svc.options().socket_path);

  service::SubmitRequest req;
  req.points = SpinSweep();
  req.deadline_seconds = 0.2;
  req.detach = true;
  const service::SubmitReply admitted = client.Submit(req);
  ASSERT_EQ(admitted.status, service::AdmitStatus::kAccepted);

  service::WaitRequest wait;
  wait.request_id = admitted.request_id;
  const service::WaitReply done = client.Wait(wait);
  EXPECT_EQ(done.state, service::RequestState::kDeadlineExceeded);
  EXPECT_EQ(svc.counters().deadline_exceeded, 1u);

  svc.Stop(/*drain=*/false);
}

TEST(SweepService, ClientDisconnectCancelsAttachedRequest) {
  const TempDir tmp;
  service::SweepService svc(MakeOptions(tmp));
  svc.Start();

  std::uint64_t id = 0;
  {
    // Attached (detach = false): the request's lifetime is tied to this
    // connection, which closes at scope exit with the sweep still spinning.
    service::SweepClient doomed(svc.options().socket_path);
    service::SubmitRequest req;
    req.points = SpinSweep();
    const service::SubmitReply admitted = doomed.Submit(req);
    ASSERT_EQ(admitted.status, service::AdmitStatus::kAccepted);
    id = admitted.request_id;
  }

  service::SweepClient observer(svc.options().socket_path);
  service::WaitRequest wait;
  wait.request_id = id;
  const service::WaitReply done = observer.Wait(wait);
  EXPECT_EQ(done.state, service::RequestState::kCancelled);
  EXPECT_GE(svc.counters().disconnect_cancels, 1u);

  svc.Stop(/*drain=*/false);
}

TEST(SweepService, SecondDaemonOnSameStateDirIsRefused) {
  const TempDir tmp;
  service::SweepService first(MakeOptions(tmp));
  first.Start();

  service::ServiceOptions second_options = MakeOptions(tmp);
  second_options.socket_path = tmp.File("other.sock");
  service::SweepService second(std::move(second_options));
  EXPECT_THROW(second.Start(), std::runtime_error);

  first.Stop(/*drain=*/false);
}

// --- Crash restart --------------------------------------------------------

TEST(SweepService, CrashRestartResumesToByteIdenticalExport) {
  namespace fp = failpoint;
  const TempDir tmp;
  // 16 points of a real kernel across all four cores.
  const auto program =
      std::make_shared<const isa::Program>(workloads::BubbleSort(60));
  std::vector<runtime::SweepPoint> points;
  for (const ProcessorKind kind :
       {ProcessorKind::kIdeal, ProcessorKind::kUltrascalarI,
        ProcessorKind::kUltrascalarII, ProcessorKind::kHybrid}) {
    for (const int window : {8, 16, 32, 64}) {
      runtime::SweepPoint p;
      p.kind = kind;
      p.config.window_size = window;
      p.program = program;
      p.workload = "sort";
      points.push_back(std::move(p));
    }
  }
  const auto submit = [&](const service::SweepService& svc) {
    service::SweepClient client(svc.options().socket_path);
    service::SubmitRequest req;
    req.points = points;
    req.detach = true;
    req.csv_name = "crash.csv";
    const service::SubmitReply admitted = client.Submit(req);
    EXPECT_EQ(admitted.status, service::AdmitStatus::kAccepted);
    return admitted.request_id;
  };

  // Counting pass: the journal appends of an uninterrupted submit -> done
  // cycle (the admission record, the sweep journal, the done record).
  fp::Registry& reg = fp::Registry::Instance();
  reg.Reset();
  reg.EnableCounting();
  {
    service::ServiceOptions options = MakeOptions(tmp);
    options.socket_path = tmp.File("count.sock");
    options.state_dir = tmp.File("count-state");
    service::SweepService svc(options);
    svc.Start();
    const std::uint64_t count_id = submit(svc);
    service::SweepClient client(options.socket_path);
    ASSERT_EQ(client.Wait(service::WaitRequest{count_id, false, false}).state,
              service::RequestState::kDone);
    svc.Stop(/*drain=*/true);
  }
  const std::uint64_t appends = reg.hits("journal.append.write");
  reg.Reset();
  ASSERT_GT(appends, points.size());

  // Crash: the disk freezes at the append halfway through the sweep --
  // after the admission record is durable, before the done record -- as a
  // power cut there would leave it. The daemon keeps running on the dead
  // disk until the hard stop, which writes nothing more.
  std::uint64_t id = 0;
  {
    reg.SetCrashMode(fp::CrashMode::kSilent);
    fp::Schedule crash;
    crash.kind = fp::ErrorKind::kCrash;
    crash.nth = appends / 2;
    crash.max_fires = 1;
    reg.Arm("journal.append.write", crash);
    service::SweepService svc(MakeOptions(tmp));
    svc.Start();
    id = submit(svc);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    while (!reg.crashed() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_TRUE(reg.crashed()) << "append " << crash.nth << " of " << appends
                               << " never happened";
    svc.Stop(/*drain=*/false);
  }
  reg.Reset();

  {
    service::SweepService svc(MakeOptions(tmp));
    svc.Start();
    EXPECT_EQ(svc.counters().recovered, 1u);
    service::SweepClient client(svc.options().socket_path);
    service::WaitRequest wait;
    wait.request_id = id;
    wait.want_csv = true;
    const service::WaitReply done = client.Wait(wait);
    EXPECT_EQ(done.state, service::RequestState::kDone);
    EXPECT_EQ(done.ok_points + done.failed_points, points.size());

    // The headline property: the recovered export is byte-identical to a
    // serverless run of the same points.
    const std::string local = LocalCsv(points);
    EXPECT_EQ(done.csv_text, local);
    EXPECT_EQ(ReadFileText(tmp.File("state/crash.csv")), local);
    svc.Stop(/*drain=*/true);
  }
}

TEST(SweepService, DrainStopFinishesInFlightAndRequeuesOnRestart) {
  const TempDir tmp;
  std::uint64_t spin_id = 0;
  {
    service::ServiceOptions options = MakeOptions(tmp);
    options.drain_timeout_seconds = 0.3;  // Escalate quickly: spin never ends.
    service::SweepService svc(std::move(options));
    svc.Start();
    service::SweepClient client(svc.options().socket_path);
    service::SubmitRequest req;
    req.points = SpinSweep();
    req.detach = true;
    const service::SubmitReply admitted = client.Submit(req);
    ASSERT_EQ(admitted.status, service::AdmitStatus::kAccepted);
    spin_id = admitted.request_id;
    // Wait until the executor picked the spin up, so the drain finds it in
    // flight rather than queued.
    for (int i = 0; i < 200 && svc.queue_depth() != 0; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_EQ(svc.queue_depth(), 0u);
    // Drain: admissions stop, the spin gets its 0.3 s budget, then the
    // escalation cancels it — without a done record, so it survives.
    svc.Stop(/*drain=*/true);
  }
  {
    service::SweepService svc(MakeOptions(tmp));
    svc.Start();
    // The drained request is re-queued, not forgotten and not marked done.
    EXPECT_EQ(svc.counters().recovered, 1u);
    service::SweepClient client(svc.options().socket_path);
    const service::CancelReply cancelled = client.Cancel(spin_id);
    EXPECT_TRUE(cancelled.cancelled);
    service::WaitRequest wait;
    wait.request_id = spin_id;
    EXPECT_EQ(client.Wait(wait).state, service::RequestState::kCancelled);
    svc.Stop(/*drain=*/false);
  }
}

TEST(SweepService, StartupHealsCorruptRequestJournal) {
  const TempDir tmp;
  {
    service::SweepService svc(MakeOptions(tmp));
    svc.Start();
    service::SweepClient client(svc.options().socket_path);
    service::SubmitRequest req;
    req.points = SmallSweep();
    req.detach = true;
    const service::SubmitReply admitted = client.Submit(req);
    ASSERT_EQ(admitted.status, service::AdmitStatus::kAccepted);
    service::WaitRequest wait;
    wait.request_id = admitted.request_id;
    (void)client.Wait(wait);
    svc.Stop(/*drain=*/true);
  }

  // A crash mid-append leaves a torn frame at the journal tail.
  const std::string journal = tmp.File("state/requests.journal");
  {
    auto bytes = persist::ReadFileBytes(journal);
    const std::vector<std::uint8_t> garbage = {'U', 'J', 'N', 'L', 1, 2, 3};
    bytes.insert(bytes.end(), garbage.begin(), garbage.end());
    persist::AtomicWriteFile(journal, bytes);
  }

  {
    service::SweepService svc(MakeOptions(tmp));
    svc.Start();  // Must self-heal, not refuse to start or orphan appends.
    EXPECT_EQ(svc.counters().journal_repaired_bytes, 7u);
    // And the healed journal accepts (and persists) new submissions.
    service::SweepClient client(svc.options().socket_path);
    service::SubmitRequest req;
    req.points = SmallSweep();
    req.detach = true;
    const service::SubmitReply admitted = client.Submit(req);
    EXPECT_EQ(admitted.status, service::AdmitStatus::kAccepted);
    service::WaitRequest wait;
    wait.request_id = admitted.request_id;
    EXPECT_EQ(client.Wait(wait).state, service::RequestState::kDone);
    svc.Stop(/*drain=*/true);
  }
}

}  // namespace
}  // namespace ultra
