// forklift/spawn: per-spawn phase instrumentation.
//
// Three timestamps bracket a spawned process's observable life from the
// parent's side: submit (Spawner::Spawn entered), exec-confirmed (the backend
// reported the child launched — for the fork-family engines this means the
// exec really happened; posix_spawn documents weaker confirmation), and
// exit-observed (the first reap that saw the exit status). The gap between
// the child's actual death and exit-observed is exactly what the reactor
// refactor shrinks, so these feed bench/scalability's latency series and the
// regression tests.
//
// SpawnTimeline rides on each locally spawned ProcessHandle. SpawnMetrics and
// RouteMetrics are thin views over the process-wide obs registry: counts are
// named registry counters and the phase latencies are fixed-bucket
// microsecond histograms (p50/p95/p99 instead of a straggler-poisoned mean),
// so everything here is visible to the Prometheus/JSON exporters and shared
// with zygote shards forked after the registry arena exists.
#ifndef SRC_SPAWN_METRICS_H_
#define SRC_SPAWN_METRICS_H_

#include <atomic>
#include <cstdint>

#include "src/obs/registry.h"

namespace forklift {

struct SpawnTimeline {
  uint64_t submit_ns = 0;          // MonotonicNanos at Spawner::Spawn entry
  uint64_t exec_confirmed_ns = 0;  // backend Launch returned a pid
  uint64_t exit_observed_ns = 0;   // first successful reap of the exit status
};

// Counters for one SpawnService route (a transport in a fallback chain).
// Atomics, not a lock: routing reads/writes them outside the service's route
// mutex, and snapshotting must not stall the spawn path.
//
// The local atomics are per-service state (RouteStats reports exact counts
// for one SpawnService instance); BindRegistry additionally mirrors every
// record into global registry counters labeled by route name, which is what
// the exporters scrape — per-service views and the process-wide aggregate
// stay separate by design.
class RouteMetrics {
 public:
  // Binds the global registry counters for `route_name`. Call once, at route
  // registration; recording works (locally) even when never bound.
  void BindRegistry(const char* route_name);

  void RecordAttempt() {
    attempts_.fetch_add(1, std::memory_order_relaxed);
    reg_attempts_.Increment();
  }
  void RecordSuccess() {
    successes_.fetch_add(1, std::memory_order_relaxed);
    reg_successes_.Increment();
  }
  // A retryable transport failure resubmitted on the same route.
  void RecordRetry() {
    retries_.fetch_add(1, std::memory_order_relaxed);
    reg_retries_.Increment();
  }
  // The transport failed (connect/send/channel death) on this attempt.
  void RecordTransportFailure() {
    transport_failures_.fetch_add(1, std::memory_order_relaxed);
    reg_transport_failures_.Increment();
  }
  // The route was exhausted and the request moved to the next route.
  void RecordFallthrough() {
    fallthroughs_.fetch_add(1, std::memory_order_relaxed);
    reg_fallthroughs_.Increment();
  }
  // The route was skipped without an attempt: it cannot carry this request
  // (e.g. pipe stdio over the wire) ...
  void RecordIncapableSkip() {
    incapable_skips_.fetch_add(1, std::memory_order_relaxed);
    reg_incapable_skips_.Increment();
  }
  // ... or it is quarantined after a recent transport failure.
  void RecordQuarantineSkip() {
    quarantine_skips_.fetch_add(1, std::memory_order_relaxed);
    reg_quarantine_skips_.Increment();
  }

  struct Snapshot {
    uint64_t attempts = 0;
    uint64_t successes = 0;
    uint64_t retries = 0;
    uint64_t transport_failures = 0;
    uint64_t fallthroughs = 0;
    uint64_t incapable_skips = 0;
    uint64_t quarantine_skips = 0;
  };
  Snapshot snapshot() const;

 private:
  std::atomic<uint64_t> attempts_{0};
  std::atomic<uint64_t> successes_{0};
  std::atomic<uint64_t> retries_{0};
  std::atomic<uint64_t> transport_failures_{0};
  std::atomic<uint64_t> fallthroughs_{0};
  std::atomic<uint64_t> incapable_skips_{0};
  std::atomic<uint64_t> quarantine_skips_{0};

  obs::Counter reg_attempts_;
  obs::Counter reg_successes_;
  obs::Counter reg_retries_;
  obs::Counter reg_transport_failures_;
  obs::Counter reg_fallthroughs_;
  obs::Counter reg_incapable_skips_;
  obs::Counter reg_quarantine_skips_;
};

class SpawnMetrics {
 public:
  static SpawnMetrics& Global();

  // Called by Spawner::Spawn once the backend confirmed the launch.
  void RecordSpawn(const SpawnTimeline& timeline);
  // Called by a locally spawned ProcessHandle when the exit status is first
  // observed.
  void RecordExitObserved(const SpawnTimeline& timeline);

  struct Snapshot {
    uint64_t spawns = 0;
    uint64_t exits_observed = 0;
    obs::HistogramSnapshot submit_to_exec_us;
    obs::HistogramSnapshot exec_to_exit_us;
  };
  Snapshot snapshot() const;

  void ResetForTest();

 private:
  SpawnMetrics();

  obs::Counter spawns_;
  obs::Counter exits_observed_;
  obs::Histogram submit_to_exec_us_;
  obs::Histogram exec_to_exit_us_;
};

}  // namespace forklift

#endif  // SRC_SPAWN_METRICS_H_
