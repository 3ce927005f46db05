#include "src/spawn/metrics.h"

#include <string>

namespace forklift {

namespace {

// Nanosecond phase delta → microsecond histogram observation, rounded up so
// any nonzero latency registers as at least 1 µs (a sum of zeros would read
// as "no latency recorded" to mean/percentile consumers).
uint64_t CeilMicros(uint64_t ns) { return (ns + 999) / 1000; }

}  // namespace

void RouteMetrics::BindRegistry(const char* route_name) {
  auto& reg = obs::MetricsRegistry::Global();
  auto bind = [&](const char* metric) {
    return reg.GetCounter(std::string("forklift_route_") + metric + "_total{route=\"" +
                          route_name + "\"}");
  };
  reg_attempts_ = bind("attempts");
  reg_successes_ = bind("successes");
  reg_retries_ = bind("retries");
  reg_transport_failures_ = bind("transport_failures");
  reg_fallthroughs_ = bind("fallthroughs");
  reg_incapable_skips_ = bind("incapable_skips");
  reg_quarantine_skips_ = bind("quarantine_skips");
}

RouteMetrics::Snapshot RouteMetrics::snapshot() const {
  Snapshot snap;
  snap.attempts = attempts_.load(std::memory_order_relaxed);
  snap.successes = successes_.load(std::memory_order_relaxed);
  snap.retries = retries_.load(std::memory_order_relaxed);
  snap.transport_failures = transport_failures_.load(std::memory_order_relaxed);
  snap.fallthroughs = fallthroughs_.load(std::memory_order_relaxed);
  snap.incapable_skips = incapable_skips_.load(std::memory_order_relaxed);
  snap.quarantine_skips = quarantine_skips_.load(std::memory_order_relaxed);
  return snap;
}

SpawnMetrics::SpawnMetrics() {
  auto& reg = obs::MetricsRegistry::Global();
  spawns_ = reg.GetCounter("forklift_spawns_total");
  exits_observed_ = reg.GetCounter("forklift_spawn_exits_observed_total");
  submit_to_exec_us_ = reg.GetHistogram("forklift_spawn_submit_to_exec_us");
  exec_to_exit_us_ = reg.GetHistogram("forklift_spawn_exec_to_exit_us");
}

SpawnMetrics& SpawnMetrics::Global() {
  static SpawnMetrics* metrics = new SpawnMetrics();
  return *metrics;
}

void SpawnMetrics::RecordSpawn(const SpawnTimeline& timeline) {
  spawns_.Increment();
  if (timeline.exec_confirmed_ns >= timeline.submit_ns) {
    submit_to_exec_us_.Observe(CeilMicros(timeline.exec_confirmed_ns - timeline.submit_ns));
  }
}

void SpawnMetrics::RecordExitObserved(const SpawnTimeline& timeline) {
  exits_observed_.Increment();
  if (timeline.exit_observed_ns >= timeline.exec_confirmed_ns) {
    exec_to_exit_us_.Observe(CeilMicros(timeline.exit_observed_ns - timeline.exec_confirmed_ns));
  }
}

SpawnMetrics::Snapshot SpawnMetrics::snapshot() const {
  Snapshot snap;
  snap.spawns = spawns_.Value();
  snap.exits_observed = exits_observed_.Value();
  snap.submit_to_exec_us = submit_to_exec_us_.snapshot();
  snap.exec_to_exit_us = exec_to_exit_us_.snapshot();
  return snap;
}

void SpawnMetrics::ResetForTest() {
  spawns_.Reset();
  exits_observed_.Reset();
  submit_to_exec_us_.Reset();
  exec_to_exit_us_.Reset();
}

}  // namespace forklift
