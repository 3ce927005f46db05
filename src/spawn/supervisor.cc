#include "src/spawn/supervisor.h"

#include <signal.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/clock.h"
#include "src/common/log.h"
#include "src/spawn/service.h"

namespace forklift {

namespace {

// Signals a service's process — or its whole process group when the
// supervisor owns the group (reaching grandchildren a shell may have left).
// Direct kill(2) rather than ProcessHandle::Kill: group targeting needs the
// negated pid, and remote pids share our namespace anyway.
void SignalService(const ProcessHandle& child, int sig, bool group) {
  pid_t target = group ? -child.pid() : child.pid();
  (void)::kill(target, sig);
}

// Epoll timeout (ms, rounded up) for the tail of a deadline window.
int RemainingMillis(const Stopwatch& sw, double deadline_seconds) {
  double remaining = deadline_seconds - sw.ElapsedSeconds();
  if (remaining <= 0) {
    return 0;
  }
  return static_cast<int>(remaining * 1000.0) + 1;
}

}  // namespace

Supervisor::Supervisor() : Supervisor(Options{}) {}

Supervisor::Supervisor(Options options) : options_(options) {}

Supervisor::Supervisor(Options options, SpawnService* service)
    : options_(options), service_(service) {}

Supervisor::~Supervisor() {
  if (running_count() > 0) {
    (void)ShutdownAll();
  }
}

Status Supervisor::EnsureReactor() {
  if (reactor_.has_value()) {
    return Status::Ok();
  }
  FORKLIFT_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Create());
  reactor_.emplace(std::move(reactor));
  return Status::Ok();
}

Status Supervisor::StartChild(Service& svc) {
  auto child = service_ != nullptr ? service_->Spawn(svc.spawner) : svc.spawner.Spawn();
  if (!child.ok()) {
    return Err(child.error());
  }
  svc.child = std::move(child).value();
  // The callback's only job is waking the reactor and reaping promptly (which
  // stamps exit-observed); event construction stays in ReapAndRestart, which
  // sees the cached status. `svc` lives in a std::map node — address-stable
  // across insert/erase of other services — and the watch dies with it.
  auto watch =
      ChildWatch::Arm(*reactor_, svc.child.pid(), [&svc] { (void)svc.child.TryWait(); });
  if (!watch.ok()) {
    // No service runs unwatched: its exit would never reach WaitEvents.
    SignalService(svc.child, SIGKILL, options_.kill_process_group);
    (void)svc.child.Wait();
    return Err(watch.error());
  }
  svc.watch = std::move(*watch);
  svc.running = true;
  ++svc.starts;
  return Status::Ok();
}

void Supervisor::ArmRestartBackoff(Service& svc) {
  double backoff = options_.restart_backoff_base_seconds *
                   std::pow(2.0, std::max(0, svc.consecutive_failures - 1));
  backoff = std::min(backoff, options_.restart_backoff_cap_seconds);
  svc.restart_not_before_ns = MonotonicNanos() + static_cast<uint64_t>(backoff * 1e9);
  svc.pending_restart = true;
  // A timerfd deadline at the backoff gate: the wake alone suffices, since
  // ReapAndRestart re-checks restart_not_before_ns against the clock.
  svc.restart_timer = reactor_->AddTimerAt(svc.restart_not_before_ns, [] {});
}

Result<Supervisor::ServiceId> Supervisor::Launch(const Spawner& spawner, std::string name,
                                                 RestartPolicy policy) {
  if (spawner.UsesPipeStdio()) {
    return LogicalError("Supervisor: pipe stdio cannot be supervised (restarts would orphan "
                        "the pipe ends); use Stdio::Path or Stdio::Fd");
  }
  FORKLIFT_RETURN_IF_ERROR(EnsureReactor());
  const ServiceId id = next_id_;
  Service& svc = services_.emplace(id, Service{std::move(name), spawner, policy}).first->second;
  if (options_.kill_process_group) {
    svc.spawner.SetProcessGroup(0);  // own group, so group signals work
  }
  if (Status started = StartChild(svc); !started.ok()) {
    services_.erase(id);
    return Err(started.error());
  }
  ++next_id_;
  return id;
}

Result<std::vector<Supervisor::Event>> Supervisor::ReapAndRestart() {
  std::vector<Event> events;
  for (auto& [id, svc] : services_) {
    if (svc.running) {
      auto st = svc.child.TryWait();
      if (!st.ok()) {
        return Err(st.error());
      }
      if (!st->has_value()) {
        continue;  // still alive
      }
      svc.running = false;
      svc.watch.Disarm();
      Event ev;
      ev.id = id;
      ev.name = svc.name;
      ev.status = **st;
      bool failed = !ev.status.Success();
      svc.consecutive_failures = failed ? svc.consecutive_failures + 1 : 0;
      bool want_restart = svc.policy == RestartPolicy::kAlways ||
                          (svc.policy == RestartPolicy::kOnFailure && failed);
      if (want_restart && svc.consecutive_failures > options_.max_consecutive_failures) {
        svc.abandoned = true;
        ev.abandoned = true;
        FORKLIFT_WARN("supervisor: abandoning '%s' after %d consecutive failures",
                      svc.name.c_str(), svc.consecutive_failures);
      } else if (want_restart) {
        ArmRestartBackoff(svc);
        ev.will_restart = true;
      }
      events.push_back(std::move(ev));
    }

    if (svc.pending_restart && !svc.abandoned && MonotonicNanos() >= svc.restart_not_before_ns) {
      svc.pending_restart = false;
      if (!StartChild(svc).ok()) {
        // A spawn or watch failure counts as an instant failed start.
        ++svc.consecutive_failures;
        if (svc.consecutive_failures > options_.max_consecutive_failures) {
          svc.abandoned = true;
          Event ev;
          ev.id = id;
          ev.name = svc.name;
          ev.abandoned = true;
          events.push_back(std::move(ev));
        } else {
          ArmRestartBackoff(svc);
        }
      }
    }
  }
  return events;
}

Result<std::vector<Supervisor::Event>> Supervisor::PollOnce() {
  if (reactor_.has_value()) {
    FORKLIFT_RETURN_IF_ERROR(reactor_->PollOnce(0));
  }
  return ReapAndRestart();
}

Result<std::vector<Supervisor::Event>> Supervisor::WaitEvents(double deadline_seconds) {
  FORKLIFT_RETURN_IF_ERROR(EnsureReactor());
  Stopwatch sw;
  for (;;) {
    FORKLIFT_ASSIGN_OR_RETURN(std::vector<Event> events, ReapAndRestart());
    int remaining_ms = RemainingMillis(sw, deadline_seconds);
    if (!events.empty() || remaining_ms == 0) {
      return events;
    }
    // Parks until a pidfd (service exit) or timerfd (restart gate) fires, or
    // the caller's deadline lapses — whichever is first.
    FORKLIFT_RETURN_IF_ERROR(reactor_->PollOnce(remaining_ms));
  }
}

Status Supervisor::Stop(ServiceId id) {
  auto it = services_.find(id);
  if (it == services_.end()) {
    return LogicalError("Supervisor::Stop: unknown service id");
  }
  Service& svc = it->second;
  svc.policy = RestartPolicy::kNever;
  svc.pending_restart = false;
  if (svc.restart_timer != 0 && reactor_.has_value()) {
    reactor_->CancelTimer(svc.restart_timer);
  }
  if (svc.running) {
    SignalService(svc.child, SIGTERM, options_.kill_process_group);
    auto st = svc.child.WaitDeadline(options_.shutdown_grace_seconds);
    if (!st.ok()) {
      return Err(st.error());
    }
    if (!st->has_value()) {
      SignalService(svc.child, SIGKILL, options_.kill_process_group);
      auto reaped = svc.child.Wait();
      if (!reaped.ok()) {
        return Err(reaped.error());
      }
    }
    svc.running = false;
  }
  services_.erase(it);
  return Status::Ok();
}

Status Supervisor::ShutdownAll() {
  // Phase 1: TERM everyone (in parallel — one grace period total, not per
  // service).
  for (auto& [id, svc] : services_) {
    (void)id;
    svc.policy = RestartPolicy::kNever;
    svc.pending_restart = false;
    if (svc.restart_timer != 0 && reactor_.has_value()) {
      reactor_->CancelTimer(svc.restart_timer);
    }
    if (svc.running) {
      SignalService(svc.child, SIGTERM, options_.kill_process_group);
    }
  }
  // Phase 2: grace window. The per-service watches stay armed, so the reactor
  // wakes per exit instead of ticking a fixed sleep.
  Stopwatch sw;
  for (;;) {
    bool any_running = false;
    for (auto& [id, svc] : services_) {
      (void)id;
      if (!svc.running) {
        continue;
      }
      auto st = svc.child.TryWait();
      if (st.ok() && st->has_value()) {
        svc.running = false;
        svc.watch.Disarm();
      } else {
        any_running = true;
      }
    }
    if (!any_running) {
      break;
    }
    int remaining_ms = RemainingMillis(sw, options_.shutdown_grace_seconds);
    if (remaining_ms == 0 || !reactor_.has_value()) {
      break;
    }
    auto polled = reactor_->PollOnce(remaining_ms);
    if (!polled.ok()) {
      break;  // fall through to SIGKILL rather than leaving stragglers
    }
  }
  // Phase 3: KILL stragglers.
  Status first_error;
  for (auto& [id, svc] : services_) {
    (void)id;
    if (svc.running) {
      SignalService(svc.child, SIGKILL, options_.kill_process_group);
      auto st = svc.child.Wait();
      if (!st.ok() && first_error.ok()) {
        first_error = Err(st.error());
      }
      svc.running = false;
    }
  }
  services_.clear();
  return first_error;
}

size_t Supervisor::running_count() const {
  size_t n = 0;
  for (const auto& [id, svc] : services_) {
    (void)id;
    if (svc.running) {
      ++n;
    }
  }
  return n;
}

std::optional<pid_t> Supervisor::PidOf(ServiceId id) const {
  auto it = services_.find(id);
  if (it == services_.end() || !it->second.running) {
    return std::nullopt;
  }
  return it->second.child.pid();
}

Result<uint64_t> Supervisor::StartCount(ServiceId id) const {
  auto it = services_.find(id);
  if (it == services_.end()) {
    return LogicalError("Supervisor::StartCount: unknown service id");
  }
  return it->second.starts;
}

}  // namespace forklift
