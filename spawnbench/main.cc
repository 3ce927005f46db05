// spawnbench: process creation through SpawnService, end to end, on three
// fixed workloads, with a separate traced run that splits the time layer by
// layer from outside the library.
//
//   spawnbench --workload NAME --seed N --seconds S --trace 0|1 [--git-commit SHA]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Every line before it is for people: the host/build stamp and each metric
// by name with its unit. README.md in this directory explains the
// workloads and what each metric should move.
#include <fcntl.h>
#include <sys/utsname.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "load.h"
#include "procfs.h"
#include "src/benchlib/memtouch.h"
#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/server.h"
#include "src/forkserver/service_adapters.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"
#include "src/spawn/service.h"

namespace spawnbench {
namespace {

using forklift::ExitStatus;
using forklift::Result;
using forklift::SampleStats;
using forklift::Spawner;
using forklift::Stopwatch;

// Set-up runs kSetupWarmups + kSetupRepeats times; the first ones fault in
// code and allocator state and are left out of setup_s.
constexpr int kSetupWarmups = 5;
constexpr int kSetupRepeats = 60;
constexpr double kWarmupSeconds = 1.0;
constexpr double kWindowSeconds = 1.0;
constexpr size_t kPoolShards = 4;
constexpr int kMicroProbes = 2000;   // BuildRequest / encode / decode timings
constexpr int kLaunchProbes = 256;   // direct backend / channel / pool launches
constexpr int kProbeBatch = 16;      // launches in flight before the probe reaps

enum class RouteKind { kZygote, kPool, kLocal };

struct Workload {
  const char* name;
  RouteKind kind;
  int threads;
  int window;
  const char* primary_route;
  size_t ballast_bytes;
};

// The names are fixed: later changes cite them.
constexpr Workload kWorkloads[] = {
    {"zygote-true", RouteKind::kZygote, 3, 1, "forkserver", 0},
    {"fleet-sleep", RouteKind::kPool, 4, 16, "sharded", 0},
    {"local-bigparent", RouteKind::kLocal, 4, 1, "local:posix_spawn", size_t{512} << 20},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string git_commit = "unknown";
};

// ---------------------------------------------------------------------------
// The route under test: the service plus whatever zygotes back its primary
// route. Built while this process is still single-threaded (zygotes are
// forks of it) and torn down completely, zygotes reaped, on destruction.

class Rig {
 public:
  // Constructs the route chain, starts its zygotes and runs one probe spawn
  // through the service. `timed` wraps every route in TimedTransport.
  static Result<std::unique_ptr<Rig>> Build(const Workload& w, bool timed);

  ~Rig() {
    service_.reset();
    if (channel_ != nullptr) {
      (void)channel_->Shutdown();
      channel_.reset();
    }
    if (zygote_pid_ > 0) {
      int ws = 0;
      while (::waitpid(zygote_pid_, &ws, 0) < 0 && errno == EINTR) {
      }
    }
    if (pool_ != nullptr) {
      (void)pool_->Shutdown();
      pool_.reset();
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  forklift::SpawnService& service() { return *service_; }
  forklift::ForkServerClient* channel() { return channel_.get(); }
  forklift::ShardedForkServer* pool() { return pool_.get(); }

  std::vector<pid_t> zygote_pids() const {
    if (pool_ != nullptr) return pool_->shard_pids();
    if (zygote_pid_ > 0) return {zygote_pid_};
    return {};
  }

 private:
  Rig() = default;

  std::unique_ptr<forklift::SpawnService> service_;
  std::shared_ptr<forklift::ForkServerClient> channel_;
  pid_t zygote_pid_ = -1;
  std::shared_ptr<forklift::ShardedForkServer> pool_;
};

Result<std::unique_ptr<Rig>> Rig::Build(const Workload& w, bool timed) {
  std::unique_ptr<Rig> rig(new Rig);
  auto route = [timed](std::unique_ptr<forklift::SpawnTransport> t)
      -> std::unique_ptr<forklift::SpawnTransport> {
    if (timed) return std::make_unique<TimedTransport>(std::move(t));
    return t;
  };
  rig->service_ = std::make_unique<forklift::SpawnService>();
  switch (w.kind) {
    case RouteKind::kZygote: {
      FORKLIFT_ASSIGN_OR_RETURN(forklift::ForkServerHandle h, forklift::StartForkServerProcess());
      rig->zygote_pid_ = h.server_pid;
      rig->channel_ = std::make_shared<forklift::ForkServerClient>(std::move(h.client_sock));
      rig->service_->AddRoute(route(forklift::ForkServerTransport::Adopt(rig->channel_)));
      break;
    }
    case RouteKind::kPool: {
      forklift::ShardedForkServer::Options options;
      options.shards = kPoolShards;
      FORKLIFT_ASSIGN_OR_RETURN(rig->pool_, forklift::ShardedForkServer::Start(options));
      rig->service_->AddRoute(route(forklift::ShardedTransport::Adopt(rig->pool_)));
      break;
    }
    case RouteKind::kLocal:
      break;
  }
  rig->service_->AddRoute(
      route(forklift::MakeLocalTransport(forklift::SpawnBackendKind::kPosixSpawn)));

  FORKLIFT_ASSIGN_OR_RETURN(forklift::ProcessHandle probe,
                            rig->service_->Spawn(Spawner("/bin/true")));
  FORKLIFT_ASSIGN_OR_RETURN(ExitStatus st, probe.Wait());
  if (probe.route() != w.primary_route || !st.Success()) {
    return forklift::LogicalError("probe spawn took route " + probe.route() + " and ended " +
                                  st.ToString());
  }
  return rig;
}

// ---------------------------------------------------------------------------
// Counters read before and after a measured phase.

struct Snapshot {
  SelfUsage self;
  std::vector<ProcSample> zygotes;
  uint64_t zygote_spawns = 0;
  uint64_t writev = 0;
  uint64_t sendmsg = 0;
  uint64_t recvmsg = 0;
  forklift::obs::HistogramSnapshot frames_per_flush;
  uint64_t restarts = 0;
  uint64_t retries = 0;
  uint64_t fallthroughs = 0;
  uint64_t transport_failures = 0;
};

// The registry lives in a MAP_SHARED arena, so zygote-side increments land
// in these same slots; resolving them before the first zygote fork makes
// sure both sides bind one slot per name.
struct Counters {
  forklift::obs::Counter zygote_spawns;
  forklift::obs::Counter writev;
  forklift::obs::Counter sendmsg;
  forklift::obs::Counter recvmsg;
  forklift::obs::Histogram frames_per_flush;

  Counters() {
    auto& reg = forklift::obs::MetricsRegistry::Global();
    zygote_spawns = reg.GetCounter("forklift_forkserver_spawns_total");
    writev = reg.GetCounter("forklift_wire_syscalls_total{op=\"writev\"}");
    sendmsg = reg.GetCounter("forklift_wire_syscalls_total{op=\"sendmsg\"}");
    recvmsg = reg.GetCounter("forklift_wire_syscalls_total{op=\"recvmsg\"}");
    frames_per_flush = reg.GetHistogram("forklift_wire_frames_per_flush");
  }

  Snapshot Take(Rig& rig) const {
    Snapshot s;
    s.self = ReadSelfUsage();
    for (pid_t pid : rig.zygote_pids()) s.zygotes.push_back(ReadProc(pid));
    s.zygote_spawns = zygote_spawns.Value();
    s.writev = writev.Value();
    s.sendmsg = sendmsg.Value();
    s.recvmsg = recvmsg.Value();
    s.frames_per_flush = frames_per_flush.snapshot();
    s.restarts = rig.pool() != nullptr ? rig.pool()->restarts() : 0;
    for (const std::string& name : rig.service().route_names()) {
      auto r = rig.service().RouteStats(name);
      s.retries += r.retries;
      s.fallthroughs += r.fallthroughs;
      s.transport_failures += r.transport_failures;
    }
    return s;
  }
};

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

double Pct(const std::vector<double>& xs, double p) {
  if (xs.empty()) return 0;
  SampleStats s;
  for (double x : xs) s.Add(x);
  return s.Percentile(p);
}

// Bucket-wise difference of two snapshots of one histogram.
forklift::obs::HistogramSnapshot HistDelta(const forklift::obs::HistogramSnapshot& a,
                                           const forklift::obs::HistogramSnapshot& b) {
  forklift::obs::HistogramSnapshot d;
  for (size_t i = 0; i < forklift::obs::kHistogramBuckets; ++i) {
    d.buckets[i] = b.buckets[i] - a.buckets[i];
    d.count += d.buckets[i];
  }
  d.sum = b.sum - a.sum;
  return d;
}

// Counters sampled at each tick of a measured phase.
struct Tick {
  double cpu_s = 0;  // this process plus its zygotes; spawned children excluded
  HostCpu host;
};

double StealShare(const HostCpu& a, const HostCpu& b) {
  const uint64_t total = b.total - a.total;
  return total > 0 ? static_cast<double>(b.steal - a.steal) / static_cast<double>(total) : 0;
}

// The end-to-end figures, one per window of the run; each metric is the
// median across the windows used. Those are the windows in which the
// hypervisor stole at most kMaxWindowSteal of the host's CPU time, or, when
// fewer than a quarter of the windows are that quiet, the quietest quarter.
// Spawning is a chain of cross-process wakeups and slows several times more
// than the share stolen (14% steal cut zygote-true's rate by 40% on a
// 4-vCPU VM), so a stolen window measures the host rather than the program.
constexpr double kMaxWindowSteal = 0.01;

struct Windows {
  std::vector<double> rate, spawn_p50_ms, spawn_p99_ms, exit_p50_ms, exit_p99_ms, cpu_us;
  size_t total = 0;
};

Windows PerWindow(const LoadResult& r, const std::vector<Tick>& ticks) {
  const size_t count = std::min(r.windows.size(), ticks.size() - 1);
  std::vector<std::pair<double, size_t>> by_steal;  // (steal share, window)
  for (size_t k = 0; k < count; ++k) {
    if (r.windows[k].ops > 0) {
      by_steal.emplace_back(StealShare(ticks[k].host, ticks[k + 1].host), k);
    }
  }
  std::stable_sort(by_steal.begin(), by_steal.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  size_t used = (by_steal.size() + 3) / 4;
  while (used < by_steal.size() && by_steal[used].first <= kMaxWindowSteal) ++used;
  by_steal.resize(used);

  Windows w;
  w.total = count;
  for (const auto& entry : by_steal) {
    const size_t k = entry.second;
    const WindowStats& s = r.windows[k];
    const double n = static_cast<double>(s.ops);
    w.rate.push_back(n * 1e9 / static_cast<double>(r.tick_ns[k + 1] - r.tick_ns[k]));
    w.spawn_p50_ms.push_back(s.spawn_p50_ms);
    w.spawn_p99_ms.push_back(s.spawn_p99_ms);
    w.exit_p50_ms.push_back(s.exit_p50_ms);
    w.exit_p99_ms.push_back(s.exit_p99_ms);
    w.cpu_us.push_back((ticks[k + 1].cpu_s - ticks[k].cpu_s) * 1e6 / n);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Direct probes: each layer's public entry point timed on its own.

template <typename F>
std::vector<double> TimeUs(int n, F&& f) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    Stopwatch sw;
    f();
    us.push_back(sw.ElapsedMicros());
  }
  return us;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Times `launch` (start → pid) for kLaunchProbes children, reaping each batch
// of kProbeBatch with `reap` outside the timed part.
std::vector<double> ProbeLaunches(const std::function<Result<pid_t>()>& launch,
                                  const std::function<Result<ExitStatus>(pid_t)>& reap,
                                  Tally* tally) {
  std::vector<double> us;
  for (int done = 0; done < kLaunchProbes; done += kProbeBatch) {
    std::vector<pid_t> pids;
    for (int i = 0; i < kProbeBatch; ++i) {
      ++tally->attempted;
      Stopwatch sw;
      auto pid = launch();
      double t = sw.ElapsedMicros();
      if (!pid.ok()) {
        ++tally->failed;
        continue;
      }
      us.push_back(t);
      pids.push_back(pid.value());
    }
    for (pid_t pid : pids) {
      auto st = reap(pid);
      if (!st.ok() || !st.value().Success()) ++tally->failed;
    }
  }
  return us;
}

// ---------------------------------------------------------------------------
// One measured stretch of load, with the counters read around it.

struct Phase {
  LoadResult load;
  Snapshot before;
  Snapshot after;
  std::vector<Tick> ticks;

  // Share of the host's CPU time the hypervisor stole during the phase. Not
  // a metric of the program: it says how far a run's figures can be trusted.
  double StealShare() const {
    return ticks.empty() ? 0 : spawnbench::StealShare(ticks.front().host, ticks.back().host);
  }

  double ZygoteCpu() const {
    double c = 0;
    for (size_t i = 0; i < after.zygotes.size() && i < before.zygotes.size(); ++i) {
      c += after.zygotes[i].cpu_s - before.zygotes[i].cpu_s;
    }
    return c;
  }
};

std::vector<Metric> EndToEndMetrics(const Phase& p, Rig& rig, const std::vector<double>& setup_s,
                                    std::vector<std::string>* notes) {
  uint64_t rss_kib = ReadProc(::getpid()).rss_kib;
  for (pid_t pid : rig.zygote_pids()) rss_kib += ReadProc(pid).rss_kib;
  const Windows win = PerWindow(p.load, p.ticks);
  notes->push_back("windows: " + std::to_string(win.rate.size()) + " of " +
                   std::to_string(win.total) + " used (host steal <= " +
                   Num(kMaxWindowSteal) + ", or the quietest quarter)");
  return {
      {"spawns_per_s", Pct(win.rate, 50), "1/s"},
      {"spawn_p50_ms", Pct(win.spawn_p50_ms, 50), "ms"},
      {"spawn_p99_ms", Pct(win.spawn_p99_ms, 50), "ms"},
      {"exit_p50_ms", Pct(win.exit_p50_ms, 50), "ms"},
      {"exit_p99_ms", Pct(win.exit_p99_ms, 50), "ms"},
      {"cpu_us_per_spawn", Pct(win.cpu_us, 50), "us"},
      {"rss_mib", static_cast<double>(rss_kib) / 1024.0, "MiB"},
      {"setup_s", Pct(setup_s, 50), "s"},
  };
}

// The per-layer table: the traced phase's per-op stage times and counter
// deltas, then direct probes of each layer on the same zygotes and parent.
// `untraced` is the half of the run before the tracer was turned on.
// Layers that are not on the workload's route report 0.
Result<std::vector<Metric>> LayerMetrics(const Phase& p, const Phase& untraced, Rig& rig,
                                         const Spawner& spawner, Tally* probes) {
  const LoadResult& r = p.load;
  const double n = static_cast<double>(std::max<uint64_t>(r.completed, 1));
  const double handles = static_cast<double>(std::max<uint64_t>(r.spawned, 1));
  std::vector<double> launch_us, overhead_us, wait_us, exit_us;
  for (const OpSample& op : r.ops) {
    launch_us.push_back(static_cast<double>(op.launch_ns) / 1e3);
    overhead_us.push_back(static_cast<double>(op.spawn_ns - op.launch_ns) / 1e3);
    wait_us.push_back(static_cast<double>(op.wait_ns) / 1e3);
    exit_us.push_back(static_cast<double>(op.exit_ns) / 1e3);
  }
  // The tracer's ring keeps the latest spans only; their median is enough.
  auto& tracer = forklift::obs::Tracer::Global();
  std::vector<double> wire_send_us;
  for (const auto& span : tracer.AllSpans()) {
    if (span.name == "wire.send") {
      wire_send_us.push_back(static_cast<double>(span.end_ns - span.start_ns) / 1e3);
    }
  }
  tracer.ResetForTest();

  const double zygote_cpu = p.ZygoteCpu();
  double zygote_cpu_max = 0;
  uint64_t zygote_ctxsw = 0;
  for (size_t i = 0; i < p.after.zygotes.size() && i < p.before.zygotes.size(); ++i) {
    zygote_cpu_max = std::max(zygote_cpu_max, p.after.zygotes[i].cpu_s - p.before.zygotes[i].cpu_s);
    zygote_ctxsw += p.after.zygotes[i].ctxsw - p.before.zygotes[i].ctxsw;
  }
  uint64_t zygote_rss = 0;
  for (pid_t pid : rig.zygote_pids()) zygote_rss += ReadProc(pid).rss_kib;
  const double nzyg = static_cast<double>(p.after.zygotes.size());
  const double zspawns = static_cast<double>(p.after.zygote_spawns - p.before.zygote_spawns);
  const auto frames = HistDelta(p.before.frames_per_flush, p.after.frames_per_flush);
  auto delta = [](uint64_t a, uint64_t b) { return static_cast<double>(b - a); };
  auto per_zygote_spawn = [&](double v) { return zspawns > 0 ? v / zspawns : 0; };

  // Direct probes.
  FORKLIFT_ASSIGN_OR_RETURN(forklift::SpawnRequest req, spawner.BuildRequest());
  const auto build_us = TimeUs(kMicroProbes, [&] { (void)spawner.BuildRequest(); });
  const forklift::FrameMeta meta{forklift::kForkServerProtocolV2, 1};
  std::vector<int> fds;
  FORKLIFT_ASSIGN_OR_RETURN(std::string payload, forklift::EncodeSpawnRequest(req, &fds, meta));
  const auto encode_us = TimeUs(kMicroProbes, [&] {
    std::vector<int> f;
    (void)forklift::EncodeSpawnRequest(req, &f, meta);
  });
  const auto decode_us =
      TimeUs(kMicroProbes, [&] { (void)forklift::DecodeSpawnRequest(payload, {}); });
  const auto backend_us = ProbeLaunches(
      [&] { return forklift::PosixSpawnBackend().Launch(req); },
      [](pid_t pid) { return forklift::WaitForExit(pid); }, probes);
  std::vector<double> channel_us, pool_us;
  if (auto* ch = rig.channel()) {
    channel_us = ProbeLaunches(
        [&]() -> Result<pid_t> {
          FORKLIFT_ASSIGN_OR_RETURN(auto pending, ch->LaunchAsync(req));
          return pending.AwaitPid();
        },
        [&](pid_t pid) { return ch->WaitRemote(pid); }, probes);
  }
  if (auto* pool = rig.pool()) {
    pool_us = ProbeLaunches(
        [&]() -> Result<pid_t> {
          FORKLIFT_ASSIGN_OR_RETURN(auto pending, pool->LaunchAsync(req));
          return pending.AwaitPid();
        },
        [&](pid_t pid) { return pool->WaitRemote(pid); }, probes);
  }

  auto rate = [](const LoadResult& l) { return static_cast<double>(l.completed) / l.wall_s; };
  // Each stage's own median, summed, against the median exit latency. Medians
  // do not add, so the ratio leaves 1 when the stages' distributions shift
  // apart, and time no stage covers (between Spawn returning and the first
  // wait call) is missing from the sum.
  const double stage_sum_us = Pct(overhead_us, 50) + Pct(launch_us, 50) + Pct(wait_us, 50);
  const double exit_p50_us = Pct(exit_us, 50);
  return std::vector<Metric>{
      {"spawner.build_request_us_p50", Pct(build_us, 50), "us"},
      {"service.overhead_us_p50", Pct(overhead_us, 50), "us"},
      {"transport.launch_us_p50", Pct(launch_us, 50), "us"},
      {"transport.launch_us_p99", Pct(launch_us, 99), "us"},
      {"handle.wait_us_p50", Pct(wait_us, 50), "us"},
      {"handle.wait_us_p99", Pct(wait_us, 99), "us"},
      {"route.primary_share", static_cast<double>(r.spawned_primary) / handles, "ratio"},
      {"route.retries", delta(p.before.retries, p.after.retries), "count"},
      {"route.fallthroughs", delta(p.before.fallthroughs, p.after.fallthroughs), "count"},
      {"route.transport_failures", delta(p.before.transport_failures, p.after.transport_failures),
       "count"},
      {"backend.launch_us_p50", Pct(backend_us, 50), "us"},
      {"client.cpu_us_per_spawn", (p.after.self.cpu_s - p.before.self.cpu_s) * 1e6 / n, "us"},
      {"client.ctxsw_per_spawn", delta(p.before.self.ctxsw, p.after.self.ctxsw) / n, "count"},
      {"wire.encode_us_p50", Pct(encode_us, 50), "us"},
      {"wire.decode_us_p50", Pct(decode_us, 50), "us"},
      {"wire.writes_per_spawn", delta(p.before.writev, p.after.writev) / n, "count"},
      {"wire.sendmsg_per_spawn", delta(p.before.sendmsg, p.after.sendmsg) / n, "count"},
      {"wire.recvmsg_per_spawn", delta(p.before.recvmsg, p.after.recvmsg) / n, "count"},
      {"wire.frames_per_flush_p50", frames.Percentile(50), "count"},
      {"trace.wire_send_us_p50", Pct(wire_send_us, 50), "us"},
      {"channel.launch_pid_us_p50", Pct(channel_us, 50), "us"},
      {"channel.launch_pid_us_p99", Pct(channel_us, 99), "us"},
      {"zygote.cpu_us_per_spawn", per_zygote_spawn(zygote_cpu * 1e6), "us"},
      {"zygote.oncpu_ratio", nzyg > 0 ? zygote_cpu / (r.wall_s * nzyg) : 0, "ratio"},
      {"zygote.ctxsw_per_spawn", per_zygote_spawn(static_cast<double>(zygote_ctxsw)), "count"},
      {"zygote.spawns", zspawns, "count"},
      {"zygote.rss_kib", nzyg > 0 ? static_cast<double>(zygote_rss) / nzyg : 0, "KiB"},
      {"pool.launch_pid_us_p50", Pct(pool_us, 50), "us"},
      {"pool.launch_pid_us_p99", Pct(pool_us, 99), "us"},
      {"pool.cpu_imbalance", nzyg > 1 && zygote_cpu > 0 ? zygote_cpu_max * nzyg / zygote_cpu : 0,
       "ratio"},
      {"pool.restarts", delta(p.before.restarts, p.after.restarts), "count"},
      {"trace.overhead_ratio", untraced.load.completed > 0 ? rate(r) / rate(untraced.load) : 0,
       "ratio"},
      {"trace.stage_sum_ratio", exit_p50_us > 0 ? stage_sum_us / exit_p50_us : 0, "ratio"},
  };
}

// ---------------------------------------------------------------------------

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v, &end);
    } else if (k == "--trace") {
      a->trace = static_cast<int>(std::strtol(v, &end, 10));
    } else if (k == "--git-commit") {
      a->git_commit = v;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

// Stale benchmark zygotes or daemons: processes named like this binary (its
// zygotes are forks of it) or forkliftd, other than this process.
bool StrayProcessesAlive(const std::string& comm) {
  return !ProcessesNamed({comm, "forkliftd"}, ::getpid()).empty();
}

void PrintReport(const Args& args, const Workload& w, size_t zygotes, const Phase& measured,
                 const std::vector<std::string>& notes, const std::vector<std::string>& problems,
                 const Tally& total, bool correct, const std::vector<Metric>& metrics) {
  const LoadResult& r = measured.load;
  utsname uts{};
  ::uname(&uts);
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("spawnbench %s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
  std::printf("host: nproc=%ld kernel=%s build=%s compiler=%s commit=%s steal_share=%.4f\n",
              nproc, uts.release, SPAWNBENCH_BUILD_TYPE, SPAWNBENCH_COMPILER,
              args.git_commit.c_str(), measured.StealShare());
  std::printf("route=%s threads=%d window=%d zygotes=%zu ops=%zu fd_quarter=%llu\n",
              w.primary_route, w.threads, w.window, zygotes, static_cast<size_t>(r.completed),
              static_cast<unsigned long long>(r.alt_used));
  std::printf("failed_ratio = %s ratio (%llu of %llu)\n",
              Num(static_cast<double>(total.failed) /
                  static_cast<double>(std::max<uint64_t>(total.attempted, 1)))
                  .c_str(),
              static_cast<unsigned long long>(total.failed),
              static_cast<unsigned long long>(total.attempted));
  for (const std::string& n : notes) std::printf("%s\n", n.c_str());
  for (const std::string& p : problems) std::printf("hygiene: %s\n", p.c_str());
  for (const Metric& m : metrics) std::printf("%-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit);

  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, \"trace\": %d, "
      "\"nproc\": %ld, \"kernel\": %s, \"build_type\": %s, \"compiler\": %s, "
      "\"git_commit\": %s, \"steal_share\": %s}}\n",
      Quote(w.name).c_str(), static_cast<unsigned long long>(args.seed), Num(args.seconds).c_str(),
      args.trace, nproc, Quote(uts.release).c_str(), Quote(SPAWNBENCH_BUILD_TYPE).c_str(),
      Quote(SPAWNBENCH_COMPILER).c_str(), Quote(args.git_commit).c_str(),
      Num(measured.StealShare()).c_str());

  std::string out = "{\"correct\": " + std::string(correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(total.attempted) +
                    ", \"failed\": " + std::to_string(total.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: spawnbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--git-commit SHA]\n");
    return 2;
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "spawnbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const bool trace = args.trace == 1;
  auto& tracer = forklift::obs::Tracer::Global();
  tracer.set_enabled(false);  // on by default; only the traced phase records
  const Counters counters;

  std::vector<std::string> notes;
  std::vector<std::string> problems;
  const std::string comm = SelfComm();
  if (StrayProcessesAlive(comm)) {
    problems.push_back("stale zygote/forkliftd processes alive before the run");
  }

  // --- inputs: the spawns this workload submits ---
  forklift::UniqueFd devnull(::open("/dev/null", O_WRONLY | O_CLOEXEC));
  if (!devnull) {
    std::perror("spawnbench: open /dev/null");
    return 1;
  }
  const size_t fds_before = CountOpenFds();
  Spawner main_spawner("/bin/true");
  Spawner fd_spawner("/bin/true");
  if (w->kind == RouteKind::kPool) {
    main_spawner = Spawner("/bin/sleep");
    main_spawner.Arg("0.01");
    fd_spawner = main_spawner;
    fd_spawner.SetStdout(forklift::Stdio::Fd(devnull.get()));
  }
  LoadSpec spec;
  spec.threads = w->threads;
  spec.window = w->window;
  spec.spawner = &main_spawner;
  spec.alt_spawner = w->kind == RouteKind::kPool ? &fd_spawner : nullptr;
  spec.primary_route = w->primary_route;
  spec.keep_ops = trace;

  // --- set-up, several times; the last rig is the one measured ---
  std::vector<double> setup_s;
  std::unique_ptr<Rig> rig;
  for (int i = 0; i < kSetupWarmups + kSetupRepeats; ++i) {
    rig.reset();
    Stopwatch sw;
    auto built = Rig::Build(*w, trace);
    const double t = sw.ElapsedSeconds();
    if (!built.ok()) {
      std::fprintf(stderr, "spawnbench: set-up failed: %s\n", built.error().ToString().c_str());
      return 1;
    }
    if (i >= kSetupWarmups) setup_s.push_back(t);
    rig = std::move(built).value();
  }

  forklift::HeapBallast ballast;
  if (w->ballast_bytes > 0) {
    auto st = ballast.Resize(w->ballast_bytes);
    if (!st.ok()) {
      std::fprintf(stderr, "spawnbench: ballast: %s\n", st.error().ToString().c_str());
      return 1;
    }
  }

  Tally total;
  auto run_phase = [&](double seconds, uint64_t seed) {
    Phase p;
    p.before = counters.Take(*rig);
    p.load = RunLoad(rig->service(), spec, seconds, seed, kWindowSeconds, [&] {
      Tick t;
      t.cpu_s = ReadSelfUsage().cpu_s;
      for (pid_t pid : rig->zygote_pids()) t.cpu_s += ReadProc(pid).cpu_s;
      t.host = ReadHostCpu();
      p.ticks.push_back(t);
    });
    p.after = counters.Take(*rig);
    // Output checks: besides the per-op ones in RunLoad, the route must not
    // have leaned on fallbacks or restarts, and on zygote routes every handle
    // must match exactly one zygote-side spawn.
    total.attempted += p.load.attempted;
    total.failed += p.load.failed + (p.after.fallthroughs - p.before.fallthroughs) +
                    (p.after.restarts - p.before.restarts);
    if (w->kind != RouteKind::kLocal) {
      const uint64_t served = p.after.zygote_spawns - p.before.zygote_spawns;
      const uint64_t handles = p.load.spawned_primary;
      total.failed += served > handles ? served - handles : handles - served;
    }
    return p;
  };

  (void)run_phase(kWarmupSeconds, args.seed ^ 0x5eedull);
  Phase measured;
  std::vector<Metric> metrics;
  if (!trace) {
    measured = run_phase(args.seconds, args.seed);
    metrics = EndToEndMetrics(measured, *rig, setup_s, &notes);
  } else {
    const Phase untraced = run_phase(args.seconds / 2, args.seed);
    tracer.ResetForTest();
    tracer.set_enabled(true);
    measured = run_phase(args.seconds / 2, args.seed + 1);
    tracer.set_enabled(false);
    auto layers = LayerMetrics(measured, untraced, *rig, main_spawner, &total);
    if (!layers.ok()) {
      std::fprintf(stderr, "spawnbench: probes: %s\n", layers.error().ToString().c_str());
      return 1;
    }
    metrics = std::move(layers).value();
  }

  // --- teardown, then run hygiene: nothing may outlive the run ---
  const size_t zygotes = rig->zygote_pids().size();
  rig.reset();
  if (!ChildrenOf(::getpid()).empty()) problems.push_back("unreaped children after teardown");
  if (StrayProcessesAlive(comm)) problems.push_back("zygote processes left after teardown");
  if (CountOpenFds() != fds_before) problems.push_back("open fd count grew over the run");

  total.failed = std::min(total.failed, total.attempted);
  const bool correct = problems.empty() && total.failed == 0 && measured.load.completed > 0;
  PrintReport(args, *w, zygotes, measured, notes, problems, total, correct, metrics);
  return 0;
}

}  // namespace
}  // namespace spawnbench

int main(int argc, char** argv) { return spawnbench::Main(argc, argv); }
