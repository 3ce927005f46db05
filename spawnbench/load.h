// spawnbench: the closed-loop load generator and the benchmark-side timing
// decorator around a route.
//
// Every client thread drives SpawnService::Spawn and waits on the returned
// ProcessHandle. With window 1 that is a strict Spawn → Wait loop; with a
// wider window a thread keeps that many live handles and reaps them in exit
// order (TryWait sweep, then WaitDeadline on the oldest), so the exit
// latency measures the exit path and not the window's queueing.
#ifndef SPAWNBENCH_LOAD_H_
#define SPAWNBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/spawn/service.h"

namespace spawnbench {

// Forwards to a real transport under the same name and adds the time this
// thread spent inside its Launch calls to a thread-local tally (a spawn
// that falls through to another route calls Launch more than once).
class TimedTransport final : public forklift::SpawnTransport {
 public:
  explicit TimedTransport(std::unique_ptr<forklift::SpawnTransport> inner)
      : inner_(std::move(inner)) {}

  const char* Name() const override { return inner_->Name(); }
  bool SupportsPipeStdio() const override { return inner_->SupportsPipeStdio(); }
  forklift::Status Probe() override { return inner_->Probe(); }
  forklift::Result<forklift::ProcessHandle> Launch(const forklift::Spawner& spawner,
                                                   uint64_t trace_id,
                                                   forklift::SpawnFailureKind* failure) override;

  // Launch time recorded on this thread since the last call; resets it.
  static uint64_t TakeThreadLaunchNanos();

 private:
  std::unique_ptr<forklift::SpawnTransport> inner_;
};

// One completed op, all in nanoseconds. launch_ns is 0 unless the routes
// are wrapped in TimedTransport.
struct OpSample {
  uint64_t spawn_ns = 0;   // submit → Spawn returned a handle
  uint64_t exit_ns = 0;    // submit → exit status observed
  uint64_t launch_ns = 0;  // time inside the route's Launch
  uint64_t wait_ns = 0;    // first wait call entered → status returned
};

// The ops whose exit was observed within one window between two ticks.
struct WindowStats {
  uint64_t ops = 0;
  double spawn_p50_ms = 0;
  double spawn_p99_ms = 0;
  double exit_p50_ms = 0;
  double exit_p99_ms = 0;
};

struct LoadSpec {
  int threads = 1;
  int window = 1;  // live handles per thread
  const forklift::Spawner* spawner = nullptr;
  // When set, a seeded quarter of spawns uses this spawner instead.
  const forklift::Spawner* alt_spawner = nullptr;
  std::string primary_route;
  // Keep every completed op in LoadResult::ops. Off, the load's memory does
  // not grow with the number of ops, so the process's RSS is the program's.
  bool keep_ops = false;
};

struct LoadResult {
  uint64_t attempted = 0;          // Spawn calls
  uint64_t spawned_primary = 0;    // handles whose route() is the primary
  uint64_t spawned = 0;            // handles returned at all
  uint64_t completed = 0;          // exit 0 observed on the primary route
  uint64_t failed = 0;             // spawn/wait errors, bad exits, wrong route
  uint64_t alt_used = 0;           // ops that used alt_spawner
  double wall_s = 0;
  std::vector<OpSample> ops;       // completed ops, with LoadSpec::keep_ops
  // MonotonicNanos at the start and at each tick: window k of the run is
  // [tick_ns[k], tick_ns[k + 1]) and windows[k] holds its ops.
  std::vector<uint64_t> tick_ns;
  std::vector<WindowStats> windows;
};

// Runs the load for `seconds` of submissions, then drains every live handle.
// The calling thread runs `on_tick` once at the start and then every
// `tick_seconds` while submissions are open, so the caller can sample
// counters per window; right after each later tick it closes the window.
// Ops drained after the last tick count in `completed` but in no window.
LoadResult RunLoad(forklift::SpawnService& service, const LoadSpec& spec, double seconds,
                   uint64_t seed, double tick_seconds, const std::function<void()>& on_tick);

}  // namespace spawnbench

#endif  // SPAWNBENCH_LOAD_H_
