// forklift/spawn: Supervisor — keep a fleet of children alive.
//
// The layer every adopter writes on top of a spawn API (and the layer fork
// makes miserable to write correctly, between SIGCHLD races and wait-status
// stealing): launch named services from reusable Spawner templates, observe
// exits, restart per policy with exponential backoff, and shut the fleet down
// gracefully (SIGTERM, grace period, SIGKILL). No signal handlers are
// installed — exits are detected by per-service pidfd watches on an internal
// Reactor (non-blocking reaping of exactly the pids this supervisor owns), so
// it composes with any other child-management in the process (the
// composability bar fork-based designs fail, §4). WaitEvents parks in the
// reactor's epoll set and wakes the instant a service exits or a restart
// backoff deadline arrives; nothing in this layer sleep-polls.
#ifndef SRC_SPAWN_SUPERVISOR_H_
#define SRC_SPAWN_SUPERVISOR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/reactor.h"
#include "src/common/result.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/spawner.h"

namespace forklift {

class SpawnService;

enum class RestartPolicy {
  kNever,      // one-shot: report the exit, forget the service
  kOnFailure,  // restart unless it exited 0
  kAlways,     // restart regardless
};

class Supervisor {
 public:
  struct Options {
    // SIGTERM → grace → SIGKILL during ShutdownAll.
    double shutdown_grace_seconds = 2.0;
    // Backoff between restarts of the same service: base * 2^consecutive,
    // capped. (Simulated by a not-before timestamp; PollOnce never sleeps.)
    double restart_backoff_base_seconds = 0.05;
    double restart_backoff_cap_seconds = 2.0;
    // A service exceeding this many consecutive failed starts is abandoned.
    int max_consecutive_failures = 5;
    // Place each service in its own process group and signal the whole group:
    // TERM/KILL then reach grandchildren too (a shell's `sleep` survives the
    // shell's death otherwise). Off by default because it changes the
    // children's job-control relationship with any controlling terminal.
    bool kill_process_group = false;
  };

  using ServiceId = uint64_t;

  struct Event {
    ServiceId id = 0;
    std::string name;
    ExitStatus status;
    bool will_restart = false;
    bool abandoned = false;  // gave up after max_consecutive_failures
  };

  Supervisor();  // default Options, direct local spawning
  explicit Supervisor(Options options);
  // Routes every (re)start through `service` (not owned, must outlive the
  // supervisor). nullptr spawns directly via each service's template — the
  // same as the two-argument constructors. Exit watching is
  // location-transparent either way: a pidfd watches a zygote's child as
  // well as our own, and the watch drives the handle's own TryWait, which is
  // a protocol wait for remote children.
  explicit Supervisor(SpawnService* service) : Supervisor(Options{}, service) {}
  Supervisor(Options options, SpawnService* service);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  // Launches `spawner` now and remembers it as the service's template for
  // restarts. The spawner is copied; pipe stdio is rejected (a restarted
  // child would have nowhere to hand the new pipe ends). A child whose exit
  // watch cannot be armed is killed and reaped, and Launch returns the
  // watch's error; a restart that fails the same way is a failed start.
  Result<ServiceId> Launch(const Spawner& spawner, std::string name, RestartPolicy policy);

  // One supervision step: pump the reactor without blocking, reap exits,
  // apply restart policies whose backoff has elapsed. Returns the events
  // observed this step (possibly empty). Never blocks — a non-blocking shim
  // over the same reactor WaitEvents parks in.
  Result<std::vector<Event>> PollOnce();

  // Blocks in the reactor until `deadline_seconds` elapses or at least one
  // event is observed (whichever first). Wakes the instant a service exits
  // (pidfd) or a restart backoff deadline (timerfd) arrives; no sleep loop.
  Result<std::vector<Event>> WaitEvents(double deadline_seconds);

  // Stops one service (kNever semantics from here on) and reaps it.
  Status Stop(ServiceId id);

  // TERM everyone, grace period, KILL stragglers, reap all.
  Status ShutdownAll();

  size_t running_count() const;
  // Pid of a service's current incarnation, if running.
  std::optional<pid_t> PidOf(ServiceId id) const;
  // Total times the service has been (re)started.
  Result<uint64_t> StartCount(ServiceId id) const;

 private:
  struct Service {
    std::string name;
    Spawner spawner;
    RestartPolicy policy;
    ProcessHandle child{};
    bool running = false;
    bool abandoned = false;
    uint64_t starts = 0;
    int consecutive_failures = 0;
    uint64_t restart_not_before_ns = 0;  // MonotonicNanos gate
    bool pending_restart = false;
    ChildWatch watch{};                    // exit notification for `child`
    Reactor::TimerId restart_timer = 0;    // wakes the reactor at the gate
  };

  Status EnsureReactor();
  // (Re)starts a service's child — through service_ when set, else the
  // template's own backend — and arms its exit watch. A child whose watch
  // cannot be armed is killed and reaped, and the error returned.
  Status StartChild(Service& svc);
  // Gates the next restart at base * 2^(failures-1), capped, and arms a
  // reactor timer to wake at the gate.
  void ArmRestartBackoff(Service& svc);
  Result<std::vector<Event>> ReapAndRestart();

  Options options_;
  SpawnService* service_ = nullptr;  // optional routing layer (not owned)
  // Declared before services_ so per-service watches (which reference the
  // reactor) are destroyed first.
  std::optional<Reactor> reactor_;
  std::map<ServiceId, Service> services_;
  ServiceId next_id_ = 1;
};

}  // namespace forklift

#endif  // SRC_SPAWN_SUPERVISOR_H_
