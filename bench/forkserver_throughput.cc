// Fork-server data-plane throughput: what the pipelined client and the
// sharded zygote pool sustain.
//
// The main configurations spawn-and-wait a short-lived child through a
// zygote. The child runs ~10ms (`/bin/sleep 0.01`): long enough to outlive
// the spawn round trip, the way real children outlive theirs, so the wait
// reaches the server while the child is alive and parks on its pidfd watch.
// (With a child that dies faster than the round trip, every mode converges
// on the zygote's raw launch rate.)
//
//   pipelined          one server process and one ForkServerClient: T threads
//                      keep a window of D requests in flight; waits park
//                      server-side on the child's pidfd watch, so fork work
//                      overlaps child lifetimes on one channel.
//   sharded-pipelined  a ShardedForkServer pool (S zygotes, least-outstanding
//                      routing) in front of the same pipelined client path.
//   pipelined-trivial  the pipelined channel on the pure data-plane workload:
//                      /bin/true children, submit→pid only (the server reaps
//                      exits on its pidfd watches). Isolates wire cost from
//                      child lifetime.
//
// Each cell launches a fixed number of spawns and reports aggregate
// spawns/second plus per-op (submit→wait-complete) latency percentiles; the
// op latency at depth D honestly includes pipeline queueing. Every cell also
// reports write-side wire syscalls per spawn (writev+sendmsg deltas from
// forklift_wire_syscalls_total — client AND zygote side, since the metrics
// arena is shared across the fork). `--json <path>` dumps the series as
// BENCH_forkserver_throughput.json; `--quick` shrinks the per-cell spawn
// count for CI smoke runs.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/benchlib/json_writer.h"
#include "src/benchlib/table.h"
#include "src/common/clock.h"
#include "src/common/stats.h"
#include "src/forkserver/client.h"
#include "src/forkserver/server.h"
#include "src/forkserver/sharded.h"
#include "src/obs/registry.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

struct CellResult {
  std::string mode;
  int threads = 0;
  int shards = 0;
  int depth = 0;
  uint64_t spawns = 0;
  uint64_t failures = 0;
  double seconds = 0;
  double spawns_per_sec = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double wire_write_syscalls_per_spawn = 0;
};

SpawnRequest WorkloadRequest() {
  auto req = Spawner("/bin/sleep").Arg("0.01").BuildRequest();
  if (!req.ok()) {
    std::fprintf(stderr, "BuildRequest: %s\n", req.error().ToString().c_str());
    std::exit(1);
  }
  return std::move(req).value();
}

// The pure data-plane workload: a child that dies immediately, so the cell
// measures the wire, not the child. The *-trivial cells use submit→pid as
// the op (no per-child kWait); the server still reaps every exit promptly on
// its pidfd watches, and keeps each unwaited child's record until the cell's
// channel closes, when the records go with it.
SpawnRequest TrivialRequest() {
  auto req = Spawner("/bin/true").BuildRequest();
  if (!req.ok()) {
    std::fprintf(stderr, "BuildRequest: %s\n", req.error().ToString().c_str());
    std::exit(1);
  }
  return std::move(req).value();
}

// Sum of write-side wire syscalls (writev + sendmsg) from the shared metrics
// arena. Both halves of the channel count: the bench forks the zygote after
// the arena exists, so server-side flushes land in the same counters.
uint64_t WireWriteSyscalls() {
  auto& reg = obs::MetricsRegistry::Global();
  return reg.GetCounter("forklift_wire_syscalls_total{op=\"writev\"}").Value() +
         reg.GetCounter("forklift_wire_syscalls_total{op=\"sendmsg\"}").Value();
}

// One thread's share, pipelined: a window of `depth` spawns is submitted
// before the first await, so the zygote's fork work overlaps both the
// channel round trips and the children's lifetimes.
// Exactly one of `channel` and `pool` is set.
void PipelinedWorker(ForkServerClient* channel, ShardedForkServer* pool, const SpawnRequest& req,
                     int ops, int depth, SampleStats* lat_ms, uint64_t* failures) {
  struct InFlight {
    Stopwatch start;
    pid_t pid = -1;
  };
  int submitted = 0;
  while (submitted < ops) {
    int window = std::min(depth, ops - submitted);
    submitted += window;
    std::vector<InFlight> flights;
    flights.reserve(window);

    if (channel != nullptr) {
      std::vector<std::pair<Stopwatch, ForkServerClient::PendingReply>> launches;
      launches.reserve(window);
      for (int i = 0; i < window; ++i) {
        Stopwatch start;
        auto p = channel->LaunchAsync(req);
        if (!p.ok()) {
          ++*failures;
          continue;
        }
        launches.emplace_back(start, std::move(*p));
      }
      for (auto& [start, p] : launches) {
        auto pid = p.AwaitPid();
        if (!pid.ok()) {
          ++*failures;
          continue;
        }
        flights.push_back({start, *pid});
      }
    } else {
      std::vector<std::pair<Stopwatch, ShardedForkServer::PendingSpawn>> launches;
      launches.reserve(window);
      for (int i = 0; i < window; ++i) {
        Stopwatch start;
        auto p = pool->LaunchAsync(req);
        if (!p.ok()) {
          ++*failures;
          continue;
        }
        launches.emplace_back(start, std::move(*p));
      }
      for (auto& [start, p] : launches) {
        auto pid = p.AwaitPid();
        if (!pid.ok()) {
          ++*failures;
          continue;
        }
        flights.push_back({start, *pid});
      }
    }

    for (const InFlight& flight : flights) {
      auto st = channel != nullptr ? channel->WaitRemote(flight.pid) : pool->WaitRemote(flight.pid);
      if (!st.ok() || !st->Success()) {
        ++*failures;
        continue;
      }
      lat_ms->Add(flight.start.ElapsedSeconds() * 1e3);
    }
  }
}

// One thread's share of the trivial cell: windows of `depth` submit→pid ops
// against /bin/true children.
void TrivialWorker(ForkServerClient* channel, const SpawnRequest& req, int ops, int depth,
                   SampleStats* lat_ms, uint64_t* failures) {
  int submitted = 0;
  while (submitted < ops) {
    int window = std::min(depth, ops - submitted);
    submitted += window;
    Stopwatch start;
    std::vector<ForkServerClient::PendingReply> pending;
    pending.reserve(static_cast<size_t>(window));
    for (int i = 0; i < window; ++i) {
      auto p = channel->LaunchAsync(req);
      if (!p.ok()) {
        ++*failures;
        continue;
      }
      pending.push_back(std::move(*p));
    }
    for (auto& p : pending) {
      auto pid = p.AwaitPid();
      if (!pid.ok()) {
        ++*failures;
        continue;
      }
      // Whole-window latency attributed to each op.
      lat_ms->Add(start.ElapsedSeconds() * 1e3);
    }
  }
}

CellResult RunCell(const std::string& mode, int threads, int shards, int depth, int total_ops) {
  CellResult cell;
  cell.mode = mode;
  cell.threads = threads;
  cell.shards = shards;
  cell.depth = depth;

  bool trivial = mode == "pipelined-trivial";
  SpawnRequest req = trivial ? TrivialRequest() : WorkloadRequest();
  std::vector<SampleStats> lat(threads);
  std::vector<uint64_t> failures(threads, 0);
  int per_thread = total_ops / threads;
  uint64_t wire_before = WireWriteSyscalls();

  auto run_threads = [&](auto&& body) {
    Stopwatch sw;
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] { body(t); });
    }
    for (auto& w : workers) {
      w.join();
    }
    cell.seconds = sw.ElapsedSeconds();
  };

  if (mode == "pipelined" || trivial) {
    auto handle = StartForkServerProcess();
    if (!handle.ok()) {
      std::fprintf(stderr, "server start: %s\n", handle.error().ToString().c_str());
      std::exit(1);
    }
    ForkServerClient client(std::move(handle->client_sock));
    if (trivial) {
      run_threads([&](int t) {
        TrivialWorker(&client, req, per_thread, depth, &lat[t], &failures[t]);
      });
    } else {
      run_threads([&](int t) {
        PipelinedWorker(&client, nullptr, req, per_thread, depth, &lat[t], &failures[t]);
      });
    }
    (void)client.Shutdown();
    (void)WaitForExit(handle->server_pid);
  } else {
    ShardedForkServer::Options opts;
    opts.shards = static_cast<size_t>(shards);
    auto pool = ShardedForkServer::Start(opts);
    if (!pool.ok()) {
      std::fprintf(stderr, "pool start: %s\n", pool.error().ToString().c_str());
      std::exit(1);
    }
    run_threads([&](int t) {
      PipelinedWorker(nullptr, pool->get(), req, per_thread, depth, &lat[t], &failures[t]);
    });
    (void)(*pool)->Shutdown();
  }

  SampleStats all;
  for (const auto& s : lat) {
    for (double x : s.Samples()) {
      all.Add(x);
    }
  }
  for (uint64_t f : failures) {
    cell.failures += f;
  }
  cell.spawns = all.Count();
  cell.spawns_per_sec = cell.seconds > 0 ? static_cast<double>(cell.spawns) / cell.seconds : 0;
  uint64_t wire_delta = WireWriteSyscalls() - wire_before;
  cell.wire_write_syscalls_per_spawn =
      cell.spawns > 0 ? static_cast<double>(wire_delta) / static_cast<double>(cell.spawns) : 0;
  if (!all.Empty()) {
    cell.p50_ms = all.Percentile(50);
    cell.p95_ms = all.Percentile(95);
    cell.p99_ms = all.Percentile(99);
  }
  return cell;
}

}  // namespace
}  // namespace forklift

int main(int argc, char** argv) {
  using namespace forklift;

  std::string json_path;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "forkserver_throughput: --json requires an output path\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  const int ops = quick ? 80 : 400;
  PrintBanner("E8: fork-server data plane — pipelined vs sharded");
  std::printf("host has %u hardware threads; %d spawns per cell\n\n",
              std::thread::hardware_concurrency(), ops);

  // Depth 8 keeps each channel saturated without stacking enough live
  // children to swamp a small host.
  struct CellSpec {
    const char* mode;
    int threads;
    int shards;
    int depth;
  };
  const CellSpec specs[] = {
      {"pipelined", 1, 1, 8},         {"pipelined", 4, 1, 8},
      {"sharded-pipelined", 4, 2, 8}, {"sharded-pipelined", 4, 4, 8},
      {"pipelined-trivial", 4, 1, 16},
  };

  std::vector<CellResult> cells;
  TablePrinter table({"mode", "threads", "shards", "depth", "spawns/s", "p50 ms", "p95 ms",
                      "p99 ms", "wr-sys/op", "failures"});
  for (const CellSpec& spec : specs) {
    CellResult cell = RunCell(spec.mode, spec.threads, spec.shards, spec.depth, ops);
    table.AddRow({cell.mode, TablePrinter::Cell(static_cast<uint64_t>(cell.threads)),
                  TablePrinter::Cell(static_cast<uint64_t>(cell.shards)),
                  TablePrinter::Cell(static_cast<uint64_t>(cell.depth)),
                  TablePrinter::Cell(cell.spawns_per_sec, 0), TablePrinter::Cell(cell.p50_ms, 2),
                  TablePrinter::Cell(cell.p95_ms, 2), TablePrinter::Cell(cell.p99_ms, 2),
                  TablePrinter::Cell(cell.wire_write_syscalls_per_spawn, 2),
                  TablePrinter::Cell(cell.failures)});
    std::fprintf(stderr, "  [%s t=%d s=%d done: %.0f spawns/s]\n", cell.mode.c_str(),
                 cell.threads, cell.shards, cell.spawns_per_sec);
    cells.push_back(std::move(cell));
  }
  table.Print();

  if (!json_path.empty()) {
    JsonWriter json;
    json.BeginObject();
    json.Key("bench").Value("forkserver_throughput");
    json.Key("quick").Value(quick);
    json.Key("spawns_per_cell").Value(ops);
    json.Key("host_hw_threads").Value(static_cast<int>(std::thread::hardware_concurrency()));
    json.Key("cells").BeginArray();
    for (const CellResult& cell : cells) {
      json.BeginObject();
      json.Key("mode").Value(cell.mode);
      json.Key("threads").Value(cell.threads);
      json.Key("shards").Value(cell.shards);
      json.Key("depth").Value(cell.depth);
      json.Key("spawns").Value(cell.spawns);
      json.Key("failures").Value(cell.failures);
      json.Key("seconds").Value(cell.seconds);
      json.Key("spawns_per_sec").Value(cell.spawns_per_sec);
      json.Key("p50_ms").Value(cell.p50_ms);
      json.Key("p95_ms").Value(cell.p95_ms);
      json.Key("p99_ms").Value(cell.p99_ms);
      json.Key("wire_write_syscalls_per_spawn").Value(cell.wire_write_syscalls_per_spawn);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    auto written = WriteTextFile(json_path, json.str() + "\n");
    if (!written.ok()) {
      std::fprintf(stderr, "write %s: %s\n", json_path.c_str(),
                   written.error().ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}
