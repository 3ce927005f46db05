#include "load.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <latch>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/stats.h"

namespace spawnbench {

using forklift::MonotonicNanos;
using forklift::ProcessHandle;

namespace {

thread_local uint64_t t_launch_ns = 0;

// How long one WaitDeadline on the oldest live handle may block before the
// thread sweeps the whole window again.
constexpr double kOldestWaitSeconds = 0.001;

struct Live {
  ProcessHandle handle;
  uint64_t submit_ns = 0;
  uint64_t spawn_ns = 0;
  uint64_t launch_ns = 0;
  uint64_t first_wait_ns = 0;
};

class Worker {
 public:
  Worker(forklift::SpawnService& service, const LoadSpec& spec, uint64_t seed)
      : service_(service), spec_(spec), rng_(seed) {}

  void Run(uint64_t deadline_ns) {
    std::vector<Live> live;
    live.reserve(static_cast<size_t>(spec_.window));
    for (;;) {
      bool open = MonotonicNanos() < deadline_ns;
      while (open && live.size() < static_cast<size_t>(spec_.window)) {
        // In a window the handle joins the reap set at once: its first
        // TryWait parks the exit wait before the next spawn is submitted.
        if (Submit(&live) && spec_.window > 1) Reap(&live, live.size() - 1, false, 0);
        open = MonotonicNanos() < deadline_ns;
      }
      if (live.empty()) {
        if (!open) break;
        continue;
      }
      if (spec_.window == 1) {
        Reap(&live, 0, /*blocking=*/true, 0);
        continue;
      }
      // Sweep for every exit already in, in whatever order they came.
      bool reaped = false;
      for (size_t i = 0; i < live.size();) {
        if (Reap(&live, i, /*blocking=*/false, 0)) {
          reaped = true;
        } else {
          ++i;
        }
      }
      if (!reaped && !live.empty()) {
        auto oldest = std::min_element(live.begin(), live.end(), [](const Live& a, const Live& b) {
          return a.submit_ns < b.submit_ns;
        });
        Reap(&live, static_cast<size_t>(oldest - live.begin()), false, kOldestWaitSeconds);
      }
    }
  }

  // Moves the ops observed since the last call into `out` (emptied first).
  // Called by the ticking thread while this worker runs.
  void TakeWindow(std::vector<OpSample>* out) {
    out->clear();
    std::lock_guard<std::mutex> lock(window_mu_);
    out->swap(window_);
  }

  // This thread's counters and samples, merged after the join.
  LoadResult tally;

 private:
  void Fail(const char* what, const std::string& detail) {
    ++tally.failed;
    // The first failures name their cause; the count says the rest.
    if (tally.failed <= 3) std::fprintf(stderr, "spawnbench: %s: %s\n", what, detail.c_str());
  }

  // Spawns one op; true when a handle on the primary route joined `live`.
  bool Submit(std::vector<Live>* live) {
    const forklift::Spawner* spawner = spec_.spawner;
    if (spec_.alt_spawner != nullptr && rng_.Next() % 4 == 0) {
      spawner = spec_.alt_spawner;
      ++tally.alt_used;
    }
    ++tally.attempted;
    (void)TimedTransport::TakeThreadLaunchNanos();
    uint64_t submit = MonotonicNanos();
    auto handle = service_.Spawn(*spawner);
    uint64_t spawned = MonotonicNanos();
    uint64_t launch = TimedTransport::TakeThreadLaunchNanos();
    if (!handle.ok()) {
      Fail("spawn", handle.error().ToString());
      return false;
    }
    ++tally.spawned;
    if (handle.value().route() != spec_.primary_route) {
      // Served, but not by the route under test: reap it and count it failed.
      Fail("route", handle.value().route());
      (void)handle.value().Wait();
      return false;
    }
    ++tally.spawned_primary;
    live->push_back(Live{std::move(handle).value(), submit, spawned - submit, launch, 0});
    return true;
  }

  // Waits on live[i] (blocking Wait, or WaitDeadline with `timeout`). Returns
  // true, having removed the entry, once its exit was collected or failed.
  bool Reap(std::vector<Live>* live, size_t i, bool blocking, double timeout) {
    Live& l = (*live)[i];
    uint64_t enter = MonotonicNanos();
    if (l.first_wait_ns == 0) l.first_wait_ns = enter;
    std::optional<forklift::ExitStatus> status;
    if (blocking) {
      auto st = l.handle.Wait();
      if (!st.ok()) return Drop(live, i, "wait", st.error().ToString());
      status = st.value();
    } else {
      auto st = timeout > 0 ? l.handle.WaitDeadline(timeout) : l.handle.TryWait();
      if (!st.ok()) return Drop(live, i, "wait", st.error().ToString());
      status = st.value();
      if (!status.has_value()) return false;
    }
    uint64_t observed = MonotonicNanos();
    if (!status->Success()) return Drop(live, i, "exit", status->ToString());
    ++tally.completed;
    const OpSample op{l.spawn_ns, observed - l.submit_ns, l.launch_ns, observed - l.first_wait_ns};
    if (spec_.keep_ops) tally.ops.push_back(op);
    {
      std::lock_guard<std::mutex> lock(window_mu_);
      window_.push_back(op);
    }
    Erase(live, i);
    return true;
  }

  bool Drop(std::vector<Live>* live, size_t i, const char* what, const std::string& detail) {
    Fail(what, detail);
    Erase(live, i);
    return true;
  }

  static void Erase(std::vector<Live>* live, size_t i) {
    if (i + 1 != live->size()) (*live)[i] = std::move(live->back());
    live->pop_back();
  }

  forklift::SpawnService& service_;
  const LoadSpec& spec_;
  forklift::Rng rng_;
  std::mutex window_mu_;
  std::vector<OpSample> window_;  // ops of the open window; capacity is reused
};

// Closes one window: gathers the ops every worker observed since the last
// tick and reduces them to percentiles. `spare` holds the buffers swapped out
// of the workers, kept across ticks so that their capacity is reused.
WindowStats CutWindow(const std::vector<std::unique_ptr<Worker>>& workers,
                      std::vector<std::vector<OpSample>>* spare) {
  forklift::SampleStats spawn_ms;
  forklift::SampleStats exit_ms;
  for (size_t i = 0; i < workers.size(); ++i) {
    workers[i]->TakeWindow(&(*spare)[i]);
    for (const OpSample& op : (*spare)[i]) {
      spawn_ms.Add(static_cast<double>(op.spawn_ns) / 1e6);
      exit_ms.Add(static_cast<double>(op.exit_ns) / 1e6);
    }
  }
  WindowStats w;
  w.ops = spawn_ms.Count();
  if (w.ops > 0) {
    w.spawn_p50_ms = spawn_ms.Percentile(50);
    w.spawn_p99_ms = spawn_ms.Percentile(99);
    w.exit_p50_ms = exit_ms.Percentile(50);
    w.exit_p99_ms = exit_ms.Percentile(99);
  }
  return w;
}

}  // namespace

forklift::Result<forklift::ProcessHandle> TimedTransport::Launch(
    const forklift::Spawner& spawner, uint64_t trace_id, forklift::SpawnFailureKind* failure) {
  uint64_t start = MonotonicNanos();
  auto handle = inner_->Launch(spawner, trace_id, failure);
  t_launch_ns += MonotonicNanos() - start;
  return handle;
}

uint64_t TimedTransport::TakeThreadLaunchNanos() { return std::exchange(t_launch_ns, 0); }

LoadResult RunLoad(forklift::SpawnService& service, const LoadSpec& spec, double seconds,
                   uint64_t seed, double tick_seconds, const std::function<void()>& on_tick) {
  std::vector<std::unique_ptr<Worker>> workers;
  for (int t = 0; t < spec.threads; ++t) {
    // Each thread's fd-quarter choices come from its own stream of the seed.
    workers.push_back(std::make_unique<Worker>(service, spec, seed * 1000003u + t));
  }
  std::latch go(1);
  uint64_t start = 0;
  uint64_t end = 0;  // written before `go` opens, read by the workers after
  std::vector<uint64_t> ticks;
  std::vector<WindowStats> windows;
  std::vector<std::vector<OpSample>> spare(workers.size());
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < spec.threads; ++t) {
      threads.emplace_back([&, t] {
        go.wait();
        workers[t]->Run(end);
      });
    }
    on_tick();
    start = MonotonicNanos();
    end = start + static_cast<uint64_t>(seconds * 1e9);
    go.count_down();
    ticks.push_back(start);
    const auto step = static_cast<uint64_t>(tick_seconds * 1e9);
    for (uint64_t next = start + step; next <= end; next += step) {
      const uint64_t now = MonotonicNanos();
      if (now < next) std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      on_tick();
      ticks.push_back(MonotonicNanos());
      windows.push_back(CutWindow(workers, &spare));
    }
  }  // the jthreads join here
  LoadResult out;
  out.wall_s = static_cast<double>(MonotonicNanos() - start) / 1e9;
  out.tick_ns = std::move(ticks);
  out.windows = std::move(windows);
  for (auto& w : workers) {
    const LoadResult& r = w->tally;
    out.attempted += r.attempted;
    out.spawned += r.spawned;
    out.spawned_primary += r.spawned_primary;
    out.completed += r.completed;
    out.failed += r.failed;
    out.alt_used += r.alt_used;
    out.ops.insert(out.ops.end(), r.ops.begin(), r.ops.end());
  }
  return out;
}

}  // namespace spawnbench
