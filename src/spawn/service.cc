#include "src/spawn/service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace forklift {

namespace {

// In-process engines: no transport to fail, so every error is a request
// error — falling through to another local engine would just repeat it.
class LocalTransport final : public SpawnTransport {
 public:
  explicit LocalTransport(SpawnBackendKind kind) : kind_(kind) {}

  const char* Name() const override { return LocalRouteName(kind_); }
  bool SupportsPipeStdio() const override { return true; }

  Result<ProcessHandle> Launch(const Spawner& spawner, uint64_t /*trace_id*/,
                               SpawnFailureKind* failure) override {
    *failure = SpawnFailureKind::kRequest;
    Spawner pinned = spawner;
    pinned.SetBackend(kind_);
    return pinned.Spawn();
  }

 private:
  SpawnBackendKind kind_;
};

}  // namespace

std::unique_ptr<SpawnTransport> MakeLocalTransport(SpawnBackendKind kind) {
  return std::make_unique<LocalTransport>(kind);
}

void SpawnService::AddRoute(std::unique_ptr<SpawnTransport> transport) {
  std::lock_guard<std::mutex> lock(mu_);
  auto route = std::make_unique<Route>();
  route->transport = std::move(transport);
  // Mirror this route's counters into the global registry under its name;
  // the per-service atomics behind RouteStats stay exact and separate.
  route->metrics.BindRegistry(route->transport->Name());
  routes_.push_back(std::move(route));
}

void SpawnService::AddLocalRoute(SpawnBackendKind kind) { AddRoute(MakeLocalTransport(kind)); }

size_t SpawnService::route_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return routes_.size();
}

std::vector<std::string> SpawnService::route_names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(routes_.size());
  for (const auto& route : routes_) {
    names.emplace_back(route->transport->Name());
  }
  return names;
}

RouteMetrics::Snapshot SpawnService::RouteStats(std::string_view route_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& route : routes_) {
    if (route->transport->Name() == route_name) {
      return route->metrics.snapshot();
    }
  }
  return RouteMetrics::Snapshot{};
}

bool SpawnService::AdmitRoute(Route& route) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (route.unhealthy_until_ns == 0) {
      return true;
    }
    if (MonotonicNanos() < route.unhealthy_until_ns) {
      route.metrics.RecordQuarantineSkip();
      return false;
    }
  }
  // Quarantine elapsed: the route must prove itself before carrying a real
  // request again (Probe outside the lock — it may do a round trip).
  if (!route.transport->Probe().ok()) {
    QuarantineRoute(route);
    route.metrics.RecordQuarantineSkip();
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  route.unhealthy_until_ns = 0;
  return true;
}

void SpawnService::QuarantineRoute(Route& route) {
  if (options_.quarantine_seconds <= 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  route.unhealthy_until_ns =
      MonotonicNanos() + static_cast<uint64_t>(options_.quarantine_seconds * 1e9);
}

Result<ProcessHandle> SpawnService::SpawnOnRoute(Route& route, const Spawner& spawner,
                                                 uint64_t trace_id,
                                                 SpawnFailureKind* failure) {
  int attempts = options_.attempts_per_route < 1 ? 1 : options_.attempts_per_route;
  double backoff = options_.retry_backoff_base_seconds;
  Status last = Status::Ok();
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      route.metrics.RecordRetry();
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
        backoff *= 2;
      }
    }
    route.metrics.RecordAttempt();
    *failure = SpawnFailureKind::kRequest;
    auto handle = route.transport->Launch(spawner, trace_id, failure);
    if (handle.ok()) {
      route.metrics.RecordSuccess();
      return handle;
    }
    if (*failure == SpawnFailureKind::kTransportRetryable ||
        *failure == SpawnFailureKind::kTransportIndeterminate) {
      route.metrics.RecordTransportFailure();
    }
    // Only a provably-unlaunched failure may be resubmitted: an indeterminate
    // one could fork the child twice, and a request error would just repeat.
    if (*failure != SpawnFailureKind::kTransportRetryable) {
      return handle;
    }
    last = Err(handle.error());
  }
  return Err(last.error());
}

Result<ProcessHandle> SpawnService::Spawn(const Spawner& spawner) {
  const uint64_t trace_id = obs::NextRequestId();
  const uint64_t submit_start = MonotonicNanos();
  auto& tracer = obs::Tracer::Global();
  // The submit span covers the whole routing decision, whatever exit path
  // this function takes.
  auto finish = [&](const char* outcome) {
    tracer.Record(trace_id, "submit", submit_start, MonotonicNanos(), outcome);
  };
  std::vector<Route*> chain;
  {
    std::lock_guard<std::mutex> lock(mu_);
    chain.reserve(routes_.size());
    for (const auto& route : routes_) {
      chain.push_back(route.get());  // stable: routes_ only ever grows
    }
  }
  if (chain.empty()) {
    finish("no_routes");
    return LogicalError("SpawnService: no routes registered");
  }
  const bool needs_pipes = spawner.UsesPipeStdio();
  Status last = Status::Ok();
  bool attempted = false;
  for (Route* route : chain) {
    if (needs_pipes && !route->transport->SupportsPipeStdio()) {
      route->metrics.RecordIncapableSkip();
      continue;
    }
    if (!AdmitRoute(*route)) {
      continue;
    }
    attempted = true;
    SpawnFailureKind failure = SpawnFailureKind::kRequest;
    const std::string route_span = std::string("route:") + route->transport->Name();
    const uint64_t route_start = MonotonicNanos();
    auto handle = SpawnOnRoute(*route, spawner, trace_id, &failure);
    if (handle.ok()) {
      tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "ok");
      tracer.Event(trace_id, "exec_confirmed", route->transport->Name());
      handle->set_trace_id(trace_id);
      finish("ok");
      return handle;
    }
    if (failure == SpawnFailureKind::kRequest) {
      tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "request_error");
      finish("request_error");
      return handle;  // no route would fare better
    }
    if (failure == SpawnFailureKind::kUnsupported) {
      // Nothing was sent, and the route still serves other requests.
      tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "unsupported");
      route->metrics.RecordIncapableSkip();
      last = Err(handle.error());
      continue;
    }
    QuarantineRoute(*route);
    if (failure == SpawnFailureKind::kTransportIndeterminate) {
      // The child may exist on the dead transport; surface the error instead
      // of risking a double launch. The quarantine above makes the NEXT
      // request take the fallback route.
      tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "indeterminate");
      finish("indeterminate");
      return handle;
    }
    tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "fallthrough");
    route->metrics.RecordFallthrough();
    last = Err(handle.error());
  }
  if (!attempted) {
    finish("no_admissible_route");
    return LogicalError(needs_pipes
                            ? "SpawnService: no admissible route supports pipe stdio"
                            : "SpawnService: every route is quarantined");
  }
  finish("exhausted");
  return Err(last.error());
}

Result<ProcessHandle> SpawnService::Spawn(const Spawner& spawner, std::string_view pinned_route) {
  Route* pinned = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& route : routes_) {
      if (route->transport->Name() == pinned_route) {
        pinned = route.get();
        break;
      }
    }
  }
  if (pinned == nullptr) {
    return LogicalError("SpawnService: no route named '" + std::string(pinned_route) + "'");
  }
  if (spawner.UsesPipeStdio() && !pinned->transport->SupportsPipeStdio()) {
    pinned->metrics.RecordIncapableSkip();
    return LogicalError("SpawnService: route '" + std::string(pinned_route) +
                        "' cannot carry pipe stdio");
  }
  // A pin is explicit: no fallback, and no quarantine gate either — the
  // caller asked for this mechanism, so give them its real error.
  const uint64_t trace_id = obs::NextRequestId();
  const uint64_t submit_start = MonotonicNanos();
  auto& tracer = obs::Tracer::Global();
  SpawnFailureKind failure = SpawnFailureKind::kRequest;
  const std::string route_span = std::string("route:") + pinned->transport->Name();
  const uint64_t route_start = MonotonicNanos();
  auto handle = SpawnOnRoute(*pinned, spawner, trace_id, &failure);
  if (handle.ok()) {
    tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "ok");
    tracer.Event(trace_id, "exec_confirmed", pinned->transport->Name());
    handle->set_trace_id(trace_id);
    tracer.Record(trace_id, "submit", submit_start, MonotonicNanos(), "ok");
    return handle;
  }
  tracer.Record(trace_id, route_span, route_start, MonotonicNanos(), "error");
  tracer.Record(trace_id, "submit", submit_start, MonotonicNanos(), "error");
  if (failure == SpawnFailureKind::kUnsupported) {
    pinned->metrics.RecordIncapableSkip();
  } else if (failure != SpawnFailureKind::kRequest) {
    QuarantineRoute(*pinned);
  }
  return handle;
}

}  // namespace forklift
