// faultsweep: enumerate every syscall fault-injection site reachable from the
// library's canonical workloads — a pipe spawn, a fork-server round-trip, a
// supervisor restart loop, a reactor byte-shuffle, a sharded zygote pool
// surviving a mid-pipeline shard crash, and a policy-routed SpawnService
// chain degrading from zygote to local — then re-run each workload with
// a fault injected at every (site, mode, nth-hit) combination and check the
// process-hygiene invariants the paper says fork-based systems get wrong:
//
//   * no descriptor leaked (diff of /proc/self/fd across the run),
//   * no child left behind (running or zombie),
//   * no hang (SIGALRM watchdog),
//   * recoverable faults (EINTR/EAGAIN/short) are absorbed — the workload
//     still succeeds; hard faults (ENOMEM/EMFILE/EIO) produce a well-formed
//     Status, never a crash.
//
// The schedule is deterministic: the trace pass discovers sites in a fixed
// order and the per-run plan is (site, mode, nth, seed) — same seed, same
// schedule. Exit status is the number of failing runs.
//
// Usage:
//   faultsweep [--scenarios=spawn,forkserver,supervisor] [--modes=eintr,...]
//              [--site=<glob>] [--nth-cap=N] [--seed=N] [--list] [--verbose]

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <set>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/common/reactor.h"
#include "src/common/result.h"
#include "src/common/string_util.h"
#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/client.h"
#include "src/forkserver/server.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"
#include "src/spawn/supervisor.h"

namespace forklift {
namespace {

// ---------------------------------------------------------------------------
// Watchdog. A hang IS a finding; the handler names the run that hung and
// exits with a recognizable status. Only async-signal-safe calls here.
// ---------------------------------------------------------------------------

char g_run_label[256];

void OnAlarm(int) {
  const char prefix[] = "\nfaultsweep: HANG in run ";
  (void)!::write(2, prefix, sizeof(prefix) - 1);
  (void)!::write(2, g_run_label, ::strnlen(g_run_label, sizeof(g_run_label)));
  (void)!::write(2, "\n", 1);
  ::_exit(124);
}

void SetRunLabel(const std::string& label) {
  ::snprintf(g_run_label, sizeof(g_run_label), "%s", label.c_str());
}

// ---------------------------------------------------------------------------
// Invariant probes.
// ---------------------------------------------------------------------------

std::set<int> SnapshotFds() {
  std::set<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return fds;
  int dirfd_num = ::dirfd(dir);
  struct dirent* ent;
  while ((ent = ::readdir(dir)) != nullptr) {
    if (ent->d_name[0] == '.') continue;
    int fd = ::atoi(ent->d_name);
    if (fd != dirfd_num) fds.insert(fd);
  }
  ::closedir(dir);
  return fds;
}

std::string DescribeFd(int fd) {
  char link[64], target[256];
  ::snprintf(link, sizeof(link), "/proc/self/fd/%d", fd);
  ssize_t n = ::readlink(link, target, sizeof(target) - 1);
  if (n < 0) return std::to_string(fd);
  target[n] = '\0';
  return std::to_string(fd) + " -> " + target;
}

// After a run, no child of this process may remain — running or zombie. A
// child the scenario killed may still be mid-exit, so poll up to a deadline
// before calling it a leak; anything found is reaped so it cannot poison the
// next run.
bool NoChildrenLeft(std::string* detail) {
  uint64_t deadline = MonotonicNanos() + 2'000'000'000ull;
  for (;;) {
    siginfo_t si;
    si.si_pid = 0;
    int rc = ::waitid(P_ALL, 0, &si, WEXITED | WNOHANG | WNOWAIT);
    if (rc < 0 && errno == ECHILD) return true;  // clean: no children at all
    if (rc == 0 && si.si_pid != 0) {
      *detail = "zombie child pid " + std::to_string(si.si_pid) + " left unreaped";
      (void)::waitpid(si.si_pid, nullptr, 0);
      return false;
    }
    // rc == 0 && si_pid == 0: a live, unexited child still exists.
    if (MonotonicNanos() > deadline) {
      *detail = "a live child process was left running";
      return false;
    }
    struct timespec ts = {0, 1'000'000};  // 1ms
    ::nanosleep(&ts, nullptr);
  }
}

// ---------------------------------------------------------------------------
// Scenario helpers.
// ---------------------------------------------------------------------------

// Reclaims a spawned process on every exit path: the zombie invariant holds
// even when an injected fault aborts the scenario halfway (KillAndWait is a
// no-op once the status is cached, so guarding the success path is harmless).
class HandleGuard {
 public:
  explicit HandleGuard(ProcessHandle* handle) : handle_(handle) {}
  ~HandleGuard() {
    if (handle_ != nullptr && handle_->valid()) (void)handle_->KillAndWait();
  }

 private:
  ProcessHandle* handle_;
};

// Reclaims the fork-server process: polite wait first (a clean Shutdown or
// client-socket EOF makes it exit on its own), SIGKILL if it lingers.
class ServerGuard {
 public:
  explicit ServerGuard(pid_t pid) : pid_(pid) {}

  // Blocking reap through the WaitPid wrapper, for the success path where the
  // server has acknowledged shutdown and is guaranteed to exit. Keeps the
  // syscall.waitpid site deterministically in this scenario's trace (the
  // zygote reaps its children with a raw waitpid when their pidfds fire).
  Status Reap() {
    pid_t pid = pid_;
    pid_ = -1;
    auto raw = WaitPid(pid);
    if (!raw.ok()) return Err(raw.error());
    return Status::Ok();
  }

  ~ServerGuard() {
    if (pid_ <= 0) return;
    uint64_t deadline = MonotonicNanos() + 2'000'000'000ull;
    for (;;) {
      pid_t r = ::waitpid(pid_, nullptr, WNOHANG);
      if (r == pid_ || (r < 0 && errno == ECHILD)) return;
      if (MonotonicNanos() > deadline) break;
      struct timespec ts = {0, 1'000'000};
      ::nanosleep(&ts, nullptr);
    }
    (void)::kill(pid_, SIGKILL);
    (void)::waitpid(pid_, nullptr, 0);
  }

 private:
  pid_t pid_;
};

// ---------------------------------------------------------------------------
// Scenarios. Each returns Ok on end-to-end success and a Status describing
// the first failure otherwise; either way every process and descriptor it
// created must be gone when it returns.
// ---------------------------------------------------------------------------

// Pipe spawn: WriteFull/ReadAll plumbing, then Communicate (reactor-driven
// non-blocking multiplexing, ChildWatch, SetNonBlocking).
Status ScenarioSpawn() {
  {
    auto child = Spawner("/bin/cat")
                     .SetStdin(Stdio::Pipe())
                     .SetStdout(Stdio::Pipe())
                     .Spawn();
    if (!child.ok()) return Err(child.error());
    HandleGuard guard(&*child);
    static const char kPayload[] = "forklift fault sweep payload\n";
    FORKLIFT_RETURN_IF_ERROR(
        WriteFull(child->stdin_fd().get(), kPayload, sizeof(kPayload) - 1));
    child->stdin_fd().Reset();  // EOF so cat terminates
    auto out = ReadAll(child->stdout_fd().get());
    if (!out.ok()) return Err(out.error());
    if (*out != kPayload) return LogicalError("spawn: cat output mismatch");
    auto status = child->Wait();
    if (!status.ok()) return Err(status.error());
    if (!status->Success()) {
      return LogicalError("spawn: cat failed: " + status->ToString());
    }
  }
  {
    auto child = Spawner("/bin/echo")
                     .Arg("reactor-path")
                     .SetStdout(Stdio::Pipe())
                     .Spawn();
    if (!child.ok()) return Err(child.error());
    HandleGuard guard(&*child);
    auto outcome = child->Communicate();
    if (!outcome.ok()) return Err(outcome.error());
    if (outcome->stdout_data != "reactor-path\n") {
      return LogicalError("spawn: echo output mismatch");
    }
    if (!outcome->status.Success()) {
      return LogicalError("spawn: echo failed: " + outcome->status.ToString());
    }
  }
  return Status::Ok();
}

// Fork-server round-trip: zygote launch, ping, a second channel, a spawn with
// an SCM_RIGHTS-transferred descriptor, remote wait, shutdown.
Status ScenarioForkServer() {
  auto handle = StartForkServerProcess();
  if (!handle.ok()) return Err(handle.error());
  ServerGuard guard(handle->server_pid);
  {
    ForkServerClient client(std::move(handle->client_sock));
    FORKLIFT_RETURN_IF_ERROR(client.Ping());

    auto channel = client.NewChannel();
    if (!channel.ok()) return Err(channel.error());
    FORKLIFT_RETURN_IF_ERROR((*channel)->Ping());

    auto pipe = MakePipe(/*cloexec=*/true);
    if (!pipe.ok()) return Err(pipe.error());
    Spawner spawner("/bin/echo");
    spawner.Arg("zygote-ok").SetStdout(Stdio::Fd(pipe->write_end.get()));
    auto echo_req = spawner.BuildRequest();
    if (!echo_req.ok()) return Err(echo_req.error());
    auto remote = client.LaunchRequest(*echo_req);
    if (!remote.ok()) return Err(remote.error());
    pipe->write_end.Reset();  // ours; the transferred copy is the server's
    auto out = ReadAll(pipe->read_end.get());
    if (!out.ok()) return Err(out.error());
    if (*out != "zygote-ok\n") return LogicalError("forkserver: echo output mismatch");
    auto status = client.WaitRemote(*remote);
    if (!status.ok()) return Err(status.error());
    if (!status->Success()) {
      return LogicalError("forkserver: remote child failed: " + status->ToString());
    }
    // A window of pipelined spawns submitted before the first await, so the
    // wire path — each client frame's write (syscall.writev_full), server
    // drain (wire.recvmsg_drain), coalesced replies — is in this scenario's
    // trace. The fd spawn above already traces wire.sendmsg_fds.
    auto true_req = Spawner("/bin/true").BuildRequest();
    if (!true_req.ok()) return Err(true_req.error());
    std::vector<ForkServerClient::PendingReply> window;
    for (int i = 0; i < 4; ++i) {
      auto pending = client.LaunchAsync(*true_req);
      if (!pending.ok()) return Err(pending.error());
      window.push_back(std::move(*pending));
    }
    for (auto& pending : window) {
      auto pid = pending.AwaitPid();
      if (!pid.ok()) return Err(pid.error());
      auto st = client.WaitRemote(*pid);
      if (!st.ok()) return Err(st.error());
      if (!st->Success()) {
        return LogicalError("forkserver: window child failed: " + st->ToString());
      }
    }
    // Stats round-trip: exercises the kStats frames and the server-side
    // export path (the obs.export_write gate) under the sweep.
    auto stats = client.Stats(obs::StatsFormat::kPrometheus);
    if (!stats.ok()) return Err(stats.error());
    if (stats->find("forklift_forkserver_spawns_total") == std::string::npos) {
      return LogicalError("forkserver: stats scrape missing spawn counter");
    }
    FORKLIFT_RETURN_IF_ERROR(client.Shutdown());
  }
  // Shutdown acked: the server is exiting, reap it through the wrapper (on
  // early-error paths ~ServerGuard still reclaims it with its poll+SIGKILL).
  FORKLIFT_RETURN_IF_ERROR(guard.Reap());
  return Status::Ok();
}

// Supervisor restart loop: /bin/true under RestartPolicy::kAlways must rack
// up three starts (exit watch → backoff timer → relaunch, twice) and shut
// down clean. Stdio::Null routes through OpenFd on every (re)start.
Status ScenarioSupervisor() {
  Supervisor::Options options;
  options.restart_backoff_base_seconds = 0.005;
  options.restart_backoff_cap_seconds = 0.05;
  Supervisor supervisor(options);
  Spawner tpl("/bin/true");
  tpl.SetStdout(Stdio::Null()).SetStderr(Stdio::Null());
  auto id = supervisor.Launch(tpl, "flapper", RestartPolicy::kAlways);
  if (!id.ok()) return Err(id.error());
  uint64_t deadline = MonotonicNanos() + 8'000'000'000ull;
  for (;;) {
    auto starts = supervisor.StartCount(*id);
    if (!starts.ok()) return Err(starts.error());
    if (*starts >= 3) break;
    if (MonotonicNanos() > deadline) {
      return LogicalError("supervisor: no restart progress (starts=" +
                          std::to_string(*starts) + ")");
    }
    auto events = supervisor.WaitEvents(0.5);
    if (!events.ok()) return Err(events.error());
  }
  return supervisor.ShutdownAll();
}

// Direct wrapper + reactor surface: the sites (Dup2, SetCloexec, ModifyFd)
// that the spawn/forkserver/supervisor paths do not currently traverse, plus
// deterministic byte-transfer loops over a socketpair.
Status ScenarioReactor() {
  auto sp = MakeSocketPair(/*cloexec=*/true);
  if (!sp.ok()) return Err(sp.error());
  FORKLIFT_RETURN_IF_ERROR(SetNonBlocking(sp->first.get(), true));
  FORKLIFT_RETURN_IF_ERROR(SetCloexec(sp->first.get(), true));

  // Exercise Dup2 onto a descriptor number we know is free (probed here).
  int probe = ::fcntl(sp->first.get(), F_DUPFD_CLOEXEC, 0);
  if (probe < 0) return ErrnoError("fcntl F_DUPFD_CLOEXEC");
  UniqueFd spare(probe);
  FORKLIFT_RETURN_IF_ERROR(Dup2(sp->second.get(), spare.get()));

  static const char kPayload[] = "wrapper round-trip";
  FORKLIFT_RETURN_IF_ERROR(WriteFull(spare.get(), kPayload, sizeof(kPayload) - 1));
  char buf[sizeof(kPayload) - 1];
  auto n = ReadFull(sp->first.get(), buf, sizeof(buf));
  if (!n.ok()) return Err(n.error());
  if (*n != sizeof(buf) || ::memcmp(buf, kPayload, sizeof(buf)) != 0) {
    return LogicalError("reactor: socketpair round-trip mismatch");
  }

  auto devnull = OpenFd("/dev/null", O_RDONLY | O_CLOEXEC);
  if (!devnull.ok()) return Err(devnull.error());

  auto reactor = Reactor::Create();
  if (!reactor.ok()) return Err(reactor.error());
  int readable_events = 0;
  FORKLIFT_RETURN_IF_ERROR(reactor->AddFd(sp->first.get(), EPOLLIN,
                                          [&readable_events](uint32_t) { ++readable_events; }));
  FORKLIFT_RETURN_IF_ERROR(reactor->ModifyFd(sp->first.get(), EPOLLIN | EPOLLOUT));
  FORKLIFT_RETURN_IF_ERROR(
      WriteFull(spare.get(), kPayload, sizeof(kPayload) - 1));
  auto dispatched = reactor->PollOnce(1000);
  if (!dispatched.ok()) return Err(dispatched.error());
  if (*dispatched == 0 || readable_events == 0) {
    return LogicalError("reactor: readable event not delivered");
  }
  // Quiesce the socket (drain the pending payload, stop watching EPOLLOUT) so
  // the timer loop below parks in epoll_wait instead of spinning on a socket
  // that is permanently ready.
  auto drained = ReadFull(sp->first.get(), buf, sizeof(buf));
  if (!drained.ok()) return Err(drained.error());
  FORKLIFT_RETURN_IF_ERROR(reactor->ModifyFd(sp->first.get(), EPOLLIN));
  bool timer_fired = false;
  reactor->AddTimerAfter(0.001, [&timer_fired] { timer_fired = true; });
  uint64_t deadline = MonotonicNanos() + 2'000'000'000ull;
  while (!timer_fired) {
    auto polled = reactor->PollOnce(100);
    if (!polled.ok()) return Err(polled.error());
    if (MonotonicNanos() > deadline) return LogicalError("reactor: timer never fired");
  }
  FORKLIFT_RETURN_IF_ERROR(reactor->RemoveFd(sp->first.get()));
  return Status::Ok();
}

// Sharded pool under fire: routed pipelined spawns across two shards, then
// every shard SIGKILLed with requests in flight. The contract is exactly-once
// completion: each in-flight op finishes precisely once (success or a clean
// error — never a retry that could double-fork, never a hang), the pool
// restarts a shard transparently, and shutdown leaves no fd or child behind.
Status ScenarioSharded() {
  ShardedForkServer::Options options;
  options.shards = 2;
  auto pool = ShardedForkServer::Start(options);
  if (!pool.ok()) return Err(pool.error());

  auto req = Spawner("/bin/true").BuildRequest();
  if (!req.ok()) return Err(req.error());

  // Healthy pipeline: a window of spawns routed across both shards.
  {
    std::vector<ShardedForkServer::PendingSpawn> window;
    for (int i = 0; i < 4; ++i) {
      auto p = (*pool)->LaunchAsync(*req);
      if (!p.ok()) return Err(p.error());
      window.push_back(std::move(*p));
    }
    for (auto& p : window) {
      auto pid = p.AwaitPid();
      if (!pid.ok()) return Err(pid.error());
      auto st = (*pool)->WaitRemote(*pid);
      if (!st.ok()) return Err(st.error());
      if (!st->Success()) return LogicalError("sharded: child failed: " + st->ToString());
    }
  }

  // Crash mid-pipeline: a live (held) child plus unawaited spawns in flight,
  // then SIGKILL every shard. The awaits below must all COMPLETE — a success
  // that raced ahead of the kill or a clean transport error are both fine;
  // what the invariants (watchdog, fd diff, zombie probe) rule out is a hang,
  // a loss, or a double-completion.
  auto hold = MakePipe(/*cloexec=*/true);
  if (!hold.ok()) return Err(hold.error());
  Spawner held("/bin/cat");
  held.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto held_req = held.BuildRequest();
  if (!held_req.ok()) return Err(held_req.error());
  auto held_pid = (*pool)->LaunchRequest(*held_req);
  if (!held_pid.ok()) return Err(held_pid.error());
  hold->read_end.Reset();

  std::vector<ShardedForkServer::PendingSpawn> inflight;
  for (int i = 0; i < 3; ++i) {
    auto p = (*pool)->LaunchAsync(*req);
    if (!p.ok()) return Err(p.error());
    inflight.push_back(std::move(*p));
  }
  for (pid_t shard : (*pool)->shard_pids()) {
    if (shard > 0) (void)::kill(shard, SIGKILL);
  }
  for (auto& p : inflight) {
    auto pid = p.AwaitPid();
    if (pid.ok()) {
      (void)(*pool)->WaitRemote(*pid);  // completes: status or clean error
    }
  }
  (void)(*pool)->WaitRemote(*held_pid);  // parked on a dead shard: clean error
  hold->write_end.Reset();               // release the orphaned cat to init

  // Transparent restart: a spawn submitted before the router observed the
  // dead channels completes exactly once as an error and is not retried, so
  // allow a bounded number of attempts for the restart to take.
  bool recovered = false;
  for (int attempt = 0; attempt < 10 && !recovered; ++attempt) {
    auto pid = (*pool)->LaunchRequest(*req);
    if (!pid.ok()) continue;
    auto st = (*pool)->WaitRemote(*pid);
    recovered = st.ok() && st->Success();
  }
  if (!recovered) return LogicalError("sharded: pool never recovered after shard kill");
  return (*pool)->Shutdown();
}

// Policy-routed spawns through the full SpawnService chain: a lazily-forked
// zygote channel with a local posix_spawn fallback. A fault anywhere along
// connect/start, the wire protocol, or the local engine must leave every
// request exactly-once — either a child that launches, exits, and is reaped,
// or one clean Status — and on the recoverable modes the chain must still
// deliver (the wrapper absorbs the fault, or the router falls back).
Status ScenarioRouting() {
  SpawnService::Options options;
  options.attempts_per_route = 2;
  options.retry_backoff_base_seconds = 0;
  options.quarantine_seconds = 0;  // per-request decisions keep runs independent
  SpawnService service(options);
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  // A wire-capable request routed by policy (lands on the zygote when it is
  // healthy, on local when the transport faults out underneath).
  {
    auto child = service.Spawn(Spawner("/bin/true"));
    if (!child.ok()) return Err(child.error());
    HandleGuard guard(&*child);
    auto status = child->Wait();
    if (!status.ok()) return Err(status.error());
    if (!status->Success()) {
      return LogicalError("routing: child failed: " + status->ToString());
    }
  }
  // A pipe-stdio request: the capability check must steer it off the wire
  // route and Communicate must work on the routed handle.
  {
    auto child = service.Spawn(
        Spawner("/bin/echo").Arg("routed-local").SetStdout(Stdio::Pipe()));
    if (!child.ok()) return Err(child.error());
    HandleGuard guard(&*child);
    auto outcome = child->Communicate();
    if (!outcome.ok()) return Err(outcome.error());
    if (outcome->stdout_data != "routed-local\n") {
      return LogicalError("routing: echo output mismatch");
    }
  }
  // Two pinned local spawns reaped with plain blocking Wait: they put the
  // syscall.waitpid site into this scenario's trace deterministically. The
  // reaps above race their pidfd exit caches (cf. ServerGuard::Reap), and a
  // schedule that depends on that race breaks same-seed reproducibility.
  for (int i = 0; i < 2; ++i) {
    auto child = service.Spawn(Spawner("/bin/true"), "local:posix_spawn");
    if (!child.ok()) return Err(child.error());
    HandleGuard guard(&*child);
    auto status = child->Wait();
    if (!status.ok()) return Err(status.error());
    if (!status->Success()) {
      return LogicalError("routing: pinned local child failed: " + status->ToString());
    }
  }
  return Status::Ok();
  // ~SpawnService → ~ForkServerTransport shuts down and reaps the zygote.
}

// ---------------------------------------------------------------------------
// The sweep.
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  Status (*run)();
};

constexpr Scenario kScenarios[] = {
    {"spawn", ScenarioSpawn},
    {"forkserver", ScenarioForkServer},
    {"supervisor", ScenarioSupervisor},
    {"reactor", ScenarioReactor},
    {"sharded", ScenarioSharded},
    {"routing", ScenarioRouting},
};

struct SweepOptions {
  std::vector<std::string> scenarios;
  std::vector<fault::Mode> modes;  // empty = all applicable
  std::string site_glob = "*";
  uint64_t nth_cap = 2;
  uint64_t seed = 1;
  bool list_only = false;
  bool verbose = false;
};

bool ModeSelected(const SweepOptions& opt, fault::Mode mode) {
  if (opt.modes.empty()) return true;
  return std::find(opt.modes.begin(), opt.modes.end(), mode) != opt.modes.end();
}

struct RunResult {
  bool failed = false;
  std::string detail;
};

// One injected run: install the plan, execute under the watchdog, then check
// success-contract, fd, and child invariants.
RunResult RunOne(const Scenario& scenario, const std::string& site, fault::Mode mode,
                 uint64_t nth, const SweepOptions& opt) {
  std::string label = std::string(scenario.name) + " site=" + site +
                      " mode=" + fault::ModeName(mode) + " nth=" + std::to_string(nth);
  SetRunLabel(label);

  fault::PlanSpec spec;
  spec.seed = opt.seed;
  spec.site = site;
  spec.mode = mode;
  spec.nth = nth;
  spec.limit = 1;
  fault::InstallPlan(spec);

  std::set<int> fds_before = SnapshotFds();
  ::alarm(30);
  Status status = scenario.run();
  ::alarm(0);
  uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();

  RunResult result;
  std::string child_detail;
  if (!NoChildrenLeft(&child_detail)) {
    result.failed = true;
    result.detail = child_detail;
  }
  std::set<int> fds_after = SnapshotFds();
  if (fds_after != fds_before) {
    std::string diff;
    for (int fd : fds_after) {
      if (fds_before.count(fd) == 0) diff += " +" + DescribeFd(fd);
    }
    for (int fd : fds_before) {
      if (fds_after.count(fd) == 0) diff += " -" + std::to_string(fd);
    }
    result.failed = true;
    if (!result.detail.empty()) result.detail += "; ";
    result.detail += "fd leak:" + diff;
  }
  // Recoverable faults must be absorbed; a run whose injection never fired
  // (the schedule overshot this run's hit count) must succeed too.
  bool must_succeed = fault::ModeIsRecoverable(mode) || fired == 0;
  if (must_succeed && !status.ok()) {
    result.failed = true;
    if (!result.detail.empty()) result.detail += "; ";
    result.detail += "expected success, got: " + status.error().ToString();
  }
  if (opt.verbose || result.failed) {
    ::fprintf(stderr, "%s %s (injected=%llu)%s%s\n", result.failed ? "FAIL" : "ok  ",
              label.c_str(), static_cast<unsigned long long>(fired),
              status.ok() ? "" : " status=", status.ok() ? "" : status.error().ToString().c_str());
    if (result.failed) ::fprintf(stderr, "     %s\n", result.detail.c_str());
  }
  return result;
}

int Sweep(const SweepOptions& opt) {
  ::signal(SIGALRM, OnAlarm);
  int failures = 0;
  size_t runs = 0;
  std::set<std::string> sites_exercised;

  for (const Scenario& scenario : kScenarios) {
    if (std::find(opt.scenarios.begin(), opt.scenarios.end(), scenario.name) ==
        opt.scenarios.end()) {
      continue;
    }

    // Baseline: the scenario must pass with no faults — and this run also
    // warms any lazily-created descriptors so the per-run fd diff is clean.
    SetRunLabel(std::string(scenario.name) + " baseline");
    fault::ClearPlan();
    ::alarm(30);
    Status baseline = scenario.run();
    ::alarm(0);
    if (!baseline.ok()) {
      ::fprintf(stderr, "FAIL %s baseline (uninjected): %s\n", scenario.name,
                baseline.error().ToString().c_str());
      ++failures;
      continue;
    }

    // Trace pass: discover which sites this scenario reaches (including hits
    // inside the forked zygote — the registry is shared memory) and how often.
    fault::PlanSpec trace;
    trace.trace = true;
    fault::InstallPlan(trace);
    SetRunLabel(std::string(scenario.name) + " trace");
    ::alarm(30);
    Status traced = scenario.run();
    ::alarm(0);
    std::vector<fault::SiteReport> sites = fault::Snapshot();
    fault::ClearPlan();
    if (!traced.ok()) {
      ::fprintf(stderr, "FAIL %s trace pass: %s\n", scenario.name,
                traced.error().ToString().c_str());
      ++failures;
      continue;
    }

    if (opt.list_only) {
      ::printf("%s:\n", scenario.name);
      for (const auto& site : sites) {
        if (site.hits == 0) continue;
        ::printf("  %-28s op=%-10s hits=%llu\n", site.site.c_str(),
                 fault::OpName(site.op), static_cast<unsigned long long>(site.hits));
      }
      continue;
    }

    for (const auto& site : sites) {
      if (site.hits == 0) continue;
      if (!fault::SiteGlobMatch(opt.site_glob, site.site)) continue;
      // The schedule is a function of (site list, modes, nth_cap) only — NOT
      // of the observed hit count, which is timing-dependent for poll-loop
      // sites (waitpid, epoll_wait) and would make the sweep irreproducible.
      // An nth beyond the run's actual hits simply fires nothing; the
      // fired==0 arm of the must-succeed check covers it.
      uint64_t nth_max = opt.nth_cap;
      for (fault::Mode mode : fault::ApplicableModes(site.op)) {
        if (!ModeSelected(opt, mode)) continue;
        for (uint64_t nth = 1; nth <= nth_max; ++nth) {
          RunResult r = RunOne(scenario, site.site, mode, nth, opt);
          ++runs;
          sites_exercised.insert(site.site);
          if (r.failed) ++failures;
        }
      }
    }
  }

  if (!opt.list_only) {
    ::printf("faultsweep: %zu runs across %zu sites, %d failure%s\n", runs,
             sites_exercised.size(), failures, failures == 1 ? "" : "s");
  }
  return failures > 100 ? 100 : failures;
}

int Usage() {
  ::fprintf(stderr,
            "usage: faultsweep "
            "[--scenarios=spawn,forkserver,supervisor,reactor,sharded,routing|all]\n"
            "                  [--modes=eintr,eagain,enomem,emfile,eio,short]\n"
            "                  [--site=<glob>] [--nth-cap=N] [--seed=N]\n"
            "                  [--list] [--verbose]\n");
  return 2;
}

std::vector<std::string> SplitCommas(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string::npos) comma = text.size();
    if (comma > pos) out.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

int Main(int argc, char** argv) {
  SweepOptions opt;
  opt.scenarios = {"spawn", "forkserver", "supervisor", "reactor", "sharded", "routing"};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      size_t n = ::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* scen = value("--scenarios=")) {
      if (std::string(scen) != "all") {
        opt.scenarios = SplitCommas(scen);
        for (const auto& s : opt.scenarios) {
          bool known = false;
          for (const Scenario& sc : kScenarios) known = known || s == sc.name;
          if (!known) {
            ::fprintf(stderr, "faultsweep: unknown scenario '%s'\n", s.c_str());
            return Usage();
          }
        }
      }
    } else if (const char* modes = value("--modes=")) {
      for (const auto& name : SplitCommas(modes)) {
        fault::Mode mode;
        if (!fault::ModeFromName(name, &mode) || mode == fault::Mode::kNone) {
          ::fprintf(stderr, "faultsweep: unknown mode '%s'\n", name.c_str());
          return Usage();
        }
        opt.modes.push_back(mode);
      }
    } else if (const char* glob = value("--site=")) {
      opt.site_glob = glob;
    } else if (const char* cap = value("--nth-cap=")) {
      if (!ParseNumber(cap, &opt.nth_cap) || opt.nth_cap == 0) {
        ::fprintf(stderr, "faultsweep: --nth-cap wants a positive count, not '%s'\n", cap);
        return Usage();
      }
    } else if (const char* seed = value("--seed=")) {
      if (!ParseNumber(seed, &opt.seed)) {
        ::fprintf(stderr, "faultsweep: --seed wants a number, not '%s'\n", seed);
        return Usage();
      }
    } else if (arg == "--list") {
      opt.list_only = true;
    } else if (arg == "--verbose") {
      opt.verbose = true;
    } else {
      return Usage();
    }
  }
  return Sweep(opt);
}

}  // namespace
}  // namespace forklift

int main(int argc, char** argv) { return forklift::Main(argc, argv); }
