// forklift/spawn: SpawnService — policy-routed process creation.
//
// One spawn entry point over many mechanisms. A SpawnService owns an ordered
// chain of SpawnTransports (local backends, a fork-server channel, a sharded
// zygote pool — anything that can turn a Spawner into a ProcessHandle) and
// routes each request by policy:
//
//   * capability probing — a transport that cannot carry the request (pipe
//     stdio cannot cross the fork-server wire) is skipped, not failed;
//   * health gating — a route that just suffered a transport failure is
//     quarantined for a cool-down and re-admitted via a cheap Probe();
//   * bounded retry + backoff — a retryable transport failure is resubmitted
//     on the same route a bounded number of times before falling through;
//   * fallback chains — when a route is exhausted the request moves to the
//     next one (e.g. sharded pool -> single pipelined shard -> local
//     posix_spawn), so a dead zygote degrades to a slower spawn instead of
//     an error.
//
// Exactly-once discipline: a request only falls through when the failed
// attempt provably did not launch a child (connect refused, channel already
// dead, the frame never fully reached the wire). A transport death after the
// request was on the wire is *indeterminate* — the server may have forked
// before dying — so the error is surfaced to the caller instead of retried,
// and only the NEXT spawn takes the fallback route. Losing a request is a
// retry away; launching it twice is unfixable.
//
// Transports whose construction is expensive (forking servers) should be
// lazy: construct cheaply, connect/start on first Launch/Probe.
#ifndef SRC_SPAWN_SERVICE_H_
#define SRC_SPAWN_SERVICE_H_

#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"
#include "src/spawn/backend.h"
#include "src/spawn/metrics.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/spawner.h"

namespace forklift {

// How a failed Launch attempt should steer routing.
enum class SpawnFailureKind {
  // The request itself is bad (program not found, invalid fd plan): no other
  // route would fare better, so the error is final.
  kRequest,
  // The transport failed before the request could have launched a child:
  // safe to retry here or fall through to the next route.
  kTransportRetryable,
  // The transport died after the request may have reached it: the child may
  // or may not exist, so neither retry nor fallback is safe for THIS request.
  kTransportIndeterminate,
  // The route cannot carry this request (the wire cannot encode it), and
  // nothing was sent: the next route is tried at once. Like a wire route
  // skipped for pipe stdio, this is an incapable skip, not a transport
  // failure — no retry, no backoff, no quarantine.
  kUnsupported,
};

// One mechanism a SpawnService can route to. Implementations must be
// thread-safe: a service may launch from many threads at once.
class SpawnTransport {
 public:
  virtual ~SpawnTransport() = default;

  // Stable route name (the pin key and the metrics label).
  virtual const char* Name() const = 0;

  // Whether this transport can deliver pipe stdio / PassPipe channels to the
  // caller. False for wire transports: BuildRequest cannot resolve a pipe
  // spec into something shippable.
  virtual bool SupportsPipeStdio() const = 0;

  // Cheap liveness check used to re-admit a quarantined route. Default:
  // always healthy.
  virtual Status Probe() { return Status::Ok(); }

  // Launches. `trace_id` is the request's trace id (the service allocates it
  // via obs::NextRequestId); wire transports MUST use it as the protocol-v2
  // request_id so the frame on the wire and the trace spans correlate, and
  // may record transport-level spans under it. On failure, *failure
  // classifies the error for the router (implementations must always set it
  // on the error path).
  virtual Result<ProcessHandle> Launch(const Spawner& spawner, uint64_t trace_id,
                                       SpawnFailureKind* failure) = 0;
};

// A transport over one in-process backend engine (fork+exec, vfork,
// posix_spawn, clone). Name: "local:forkexec" etc.
std::unique_ptr<SpawnTransport> MakeLocalTransport(SpawnBackendKind kind);

class SpawnService {
 public:
  struct Options {
    // Launch attempts per route for retryable transport failures (1 = no
    // retry, just fall through).
    int attempts_per_route = 2;
    // Sleep between same-route retries, doubling per attempt.
    double retry_backoff_base_seconds = 0.002;
    // Cool-down after a transport failure before a Probe() may re-admit the
    // route. 0 disables quarantine.
    double quarantine_seconds = 1.0;
  };

  SpawnService() : SpawnService(Options{}) {}
  explicit SpawnService(Options options) : options_(options) {}
  SpawnService(const SpawnService&) = delete;
  SpawnService& operator=(const SpawnService&) = delete;

  // Appends a route; registration order is fallback priority (primary
  // first). Routes cannot be removed — a quarantined route just stops being
  // chosen.
  void AddRoute(std::unique_ptr<SpawnTransport> transport);
  // Convenience: appends MakeLocalTransport(kind).
  void AddLocalRoute(SpawnBackendKind kind = SpawnBackendKind::kForkExec);

  // Routes by policy across the whole chain. Every call allocates one
  // request/trace id and records the submit and per-route spans under it
  // (obs::Tracer), so the returned handle's trace_id() keys the request's
  // whole lifecycle.
  Result<ProcessHandle> Spawn(const Spawner& spawner);

  // Pins the request to the named route: no fallback, but same-route retry
  // and capability checking still apply.
  Result<ProcessHandle> Spawn(const Spawner& spawner, std::string_view pinned_route);

  size_t route_count() const;
  std::vector<std::string> route_names() const;
  // Counters for one route (zeroes for an unknown name).
  RouteMetrics::Snapshot RouteStats(std::string_view route_name) const;

 private:
  struct Route {
    std::unique_ptr<SpawnTransport> transport;
    RouteMetrics metrics;
    // MonotonicNanos gate: quarantined until then (0 = healthy). Guarded by
    // the service mutex; Launch itself runs outside the lock.
    uint64_t unhealthy_until_ns = 0;
  };

  // True when the route may be attempted now (healthy, or quarantine elapsed,
  // or a Probe just passed and cleared the gate).
  bool AdmitRoute(Route& route);
  void QuarantineRoute(Route& route);

  // One route's bounded attempt loop. On failure *failure holds the LAST
  // attempt's classification.
  Result<ProcessHandle> SpawnOnRoute(Route& route, const Spawner& spawner, uint64_t trace_id,
                                     SpawnFailureKind* failure);

  Options options_;
  mutable std::mutex mu_;  // guards routes_ vector growth and quarantine gates
  std::vector<std::unique_ptr<Route>> routes_;
};

}  // namespace forklift

#endif  // SRC_SPAWN_SERVICE_H_
