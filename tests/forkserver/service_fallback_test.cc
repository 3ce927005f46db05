// The routing acceptance tests for the location-transparent spawn layer:
// a SpawnService chained sharded pool -> single pipelined channel -> local
// posix_spawn must complete a spawn when the pool is dead and the channel's
// connect is fault-injected — exactly once, no lost request, no double
// launch — and a mid-flight server death must surface a clean error on the
// parked wait while the NEXT request degrades to local.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/server.h"
#include "src/forkserver/service_adapters.h"
#include "src/forkserver/sharded.h"
#include "src/spawn/service.h"
#include "src/spawn/spawner.h"
#include "src/spawn/supervisor.h"
#include "tests/forkserver/test_support.h"

namespace forklift {
namespace {

class ServiceFallbackTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::ClearPlan(); }

  // Routing decisions must be per-request here: quarantine off so every
  // Spawn walks the full chain, single attempt so the metrics are exact.
  static SpawnService::Options DeterministicOptions() {
    SpawnService::Options opts;
    opts.attempts_per_route = 1;
    opts.retry_backoff_base_seconds = 0;
    opts.quarantine_seconds = 0;
    return opts;
  }

  static std::string ReadFile(const std::string& path) {
    std::ifstream in(path);
    std::ostringstream data;
    data << in.rdbuf();
    return data.str();
  }
};

// The ISSUE's acceptance scenario: the sharded pool has no live shard, the
// fallback channel's connect syscall is forced to fail with EMFILE, and the
// request must still complete — through local posix_spawn, launching the
// child exactly once.
TEST_F(ServiceFallbackTest, ShardedToPipelinedToLocalUnderInjectedConnectFailure) {
  ShardedForkServer::Options pool_opts;
  pool_opts.shards = 1;
  auto pool_res = ShardedForkServer::Start(pool_opts);
  ASSERT_TRUE(pool_res.ok()) << pool_res.error().ToString();
  std::shared_ptr<ShardedForkServer> pool = std::move(*pool_res);

  // A shut-down pool has no live shard and never restarts one, so the route
  // fails before any frame reaches a wire.
  ASSERT_TRUE(pool->Shutdown().ok());

  SpawnService service(DeterministicOptions());
  service.AddRoute(ShardedTransport::Adopt(pool));
  service.AddRoute(ForkServerTransport::ConnectLazy("/tmp/forklift-no-such-daemon.sock"));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  // Every connect attempt on the pipelined route fails with injected EMFILE.
  fault::PlanSpec spec;
  spec.site = "client.connect_socket";
  spec.mode = fault::Mode::kEmfile;
  spec.every = 1;
  spec.limit = 0;
  fault::InstallPlan(spec);

  // The child appends a marker to a file: one line proves the request was
  // neither lost nor double-launched across the fallback chain.
  std::string marker = ::testing::TempDir() + "forklift_fallback_marker";
  ::unlink(marker.c_str());
  Spawner echo("/bin/echo");
  echo.Arg("fell-through").SetStdout(Stdio::Path(marker));

  auto child = service.Spawn(echo);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "local:posix_spawn");
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
  EXPECT_EQ(ReadFile(marker), "fell-through\n");
  ::unlink(marker.c_str());

  // The connect fault really fired (the pipelined route was attempted, not
  // skipped), and both upstream routes recorded exactly one fall-through.
  EXPECT_GE(fault::InjectionsFired(), 1u);
  auto sharded = service.RouteStats("sharded");
  EXPECT_EQ(sharded.attempts, 1u);
  EXPECT_EQ(sharded.transport_failures, 1u);
  EXPECT_EQ(sharded.fallthroughs, 1u);
  auto pipelined = service.RouteStats("forkserver");
  EXPECT_EQ(pipelined.attempts, 1u);
  EXPECT_EQ(pipelined.transport_failures, 1u);
  EXPECT_EQ(pipelined.fallthroughs, 1u);
  auto local = service.RouteStats("local:posix_spawn");
  EXPECT_EQ(local.attempts, 1u);
  EXPECT_EQ(local.successes, 1u);

  fault::ClearPlan();
}

// Connect failure on the only remote route: the request itself must land on
// local unscathed — same exactly-once marker discipline, no pool involved.
TEST_F(ServiceFallbackTest, InjectedConnectFailureFallsBackWithoutLosingTheRequest) {
  SpawnService service(DeterministicOptions());
  service.AddRoute(ForkServerTransport::ConnectLazy("/tmp/forklift-no-such-daemon.sock"));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  fault::PlanSpec spec;
  spec.site = "client.connect_socket";
  spec.mode = fault::Mode::kEmfile;
  spec.every = 1;
  spec.limit = 0;
  fault::InstallPlan(spec);

  std::string marker = ::testing::TempDir() + "forklift_connect_fault_marker";
  ::unlink(marker.c_str());
  Spawner echo("/bin/echo");
  echo.Arg("ok").SetStdout(Stdio::Path(marker));
  auto child = service.Spawn(echo);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "local:posix_spawn");
  EXPECT_TRUE(child->Wait().value().Success());
  EXPECT_EQ(ReadFile(marker), "ok\n");
  ::unlink(marker.c_str());
  EXPECT_GE(fault::InjectionsFired(), 1u);
}

// A server killed with a wait parked mid-flight: the wait completes exactly
// once, as a clean error — never a hang, never an invented status — and the
// next spawn through the same service degrades to the local route.
TEST_F(ServiceFallbackTest, MidFlightServerDeathErrorsTheWaitAndNextSpawnFallsBack) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  pid_t server_pid = handle->server_pid;
  auto channel = std::make_shared<ForkServerClient>(std::move(handle->client_sock));

  SpawnService service(DeterministicOptions());
  service.AddRoute(ForkServerTransport::Adopt(channel));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  // A child that lives until we release its stdin, spawned remotely.
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());
  Spawner cat("/bin/cat");
  cat.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto remote = service.Spawn(cat, "forkserver");
  ASSERT_TRUE(remote.ok()) << remote.error().ToString();
  EXPECT_EQ(remote->route(), "forkserver");
  hold->read_end.Reset();

  std::thread waiter([&remote] {
    auto st = remote->Wait();
    EXPECT_FALSE(st.ok()) << "wait on a dead channel must error, not invent a status";
  });
  ::usleep(50 * 1000);  // let the wait park on the channel first
  ASSERT_EQ(::kill(server_pid, SIGKILL), 0);
  waiter.join();
  (void)WaitForExit(server_pid);  // reap the server zombie
  hold->write_end.Reset();        // release the orphaned cat

  // The route is dead (adopted channels are not re-established); the next
  // request must complete on local.
  auto next = service.Spawn(Spawner("/bin/true"));
  ASSERT_TRUE(next.ok()) << next.error().ToString();
  EXPECT_EQ(next->route(), "local:posix_spawn");
  EXPECT_TRUE(next->Wait().value().Success());
  EXPECT_GE(service.RouteStats("forkserver").transport_failures, 1u);
}

// The exact submit contract: a spawn frame that never reached the wire whole
// is retryable, so the request falls through to the next route instead of
// failing as indeterminate. The adopted channel's first gathered write — the
// spawn frame — fails with EIO.
TEST_F(ServiceFallbackTest, UnsentSpawnFrameFallsThroughToLocal) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const pid_t server_pid = handle->server_pid;
  auto channel = std::make_shared<ForkServerClient>(std::move(handle->client_sock));
  auto service = std::make_unique<SpawnService>(DeterministicOptions());
  service->AddRoute(ForkServerTransport::Adopt(channel));
  service->AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  fault::PlanSpec spec;
  spec.site = "syscall.writev_full";
  spec.mode = fault::Mode::kEio;
  spec.nth = 1;
  fault::InstallPlan(spec);
  auto child = service->Spawn(Spawner("/bin/true"));
  const uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();

  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "local:posix_spawn");
  EXPECT_EQ(fired, 1u);
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());

  auto remote = service->RouteStats("forkserver");
  EXPECT_EQ(remote.attempts, 1u);
  EXPECT_EQ(remote.transport_failures, 1u);
  EXPECT_EQ(remote.fallthroughs, 1u);
  EXPECT_EQ(remote.successes, 0u);

  // The zygote serves until its channel's last reference is gone.
  service.reset();
  channel.reset();
  auto zygote = WaitForExit(server_pid);
  ASSERT_TRUE(zygote.ok()) << zygote.error().ToString();
  EXPECT_TRUE(zygote->Success()) << zygote->ToString();
}

// A spawn whose plan passes one open descriptor more than a frame carries
// (kMaxFdsPerFrame + 1 distinct sources, held in `fds`): the wire cannot
// encode it, and a local engine runs it.
Spawner OversizedSpawn(std::vector<UniqueFd>* fds) {
  Spawner s("/bin/true");
  for (int i = 0; i <= static_cast<int>(kMaxFdsPerFrame); ++i) {
    fds->emplace_back(::open("/dev/null", O_RDONLY | O_CLOEXEC));
    s.fd_plan().Dup2(fds->back().get(), 10 + i);
  }
  return s;
}

// A spawn the wire cannot encode is no transport failure: nothing was sent
// and `route` still serves. The default-policy service skips the route for
// that request alone, as it skips a wire route for pipe stdio — one encode,
// no retry, no quarantine — and runs it on local; the next spawns stay on
// `route`. Pinned to `route`, the spawn gets the encoder's error.
void ExpectOversizedSpawnSkipsOnly(SpawnService& service, const std::string& route) {
  std::vector<UniqueFd> fds;
  const Spawner oversized = OversizedSpawn(&fds);
  auto child = service.Spawn(oversized);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "local:posix_spawn");
  EXPECT_TRUE(child->Wait().value().Success());
  const RouteMetrics::Snapshot skipped = service.RouteStats(route);
  EXPECT_EQ(skipped.attempts, 1u);
  EXPECT_EQ(skipped.retries, 0u);
  EXPECT_EQ(skipped.transport_failures, 0u);
  EXPECT_EQ(skipped.fallthroughs, 0u);
  EXPECT_EQ(skipped.incapable_skips, 1u);

  auto pinned = service.Spawn(oversized, route);
  ASSERT_FALSE(pinned.ok());
  EXPECT_NE(pinned.error().ToString().find("too many descriptors"), std::string::npos)
      << pinned.error().ToString();

  for (int i = 0; i < 3; ++i) {
    auto next = service.Spawn(Spawner("/bin/true"));
    ASSERT_TRUE(next.ok()) << next.error().ToString();
    EXPECT_EQ(next->route(), route);
    EXPECT_TRUE(next->Wait().value().Success());
  }
  const RouteMetrics::Snapshot after = service.RouteStats(route);
  EXPECT_EQ(after.quarantine_skips, 0u);
  EXPECT_EQ(after.transport_failures, 0u);
  EXPECT_EQ(after.successes, 3u);
}

TEST_F(ServiceFallbackTest, SpawnTheWireCannotEncodeSkipsTheShardedRouteOnce) {
  ShardedForkServer::Options pool_opts;
  pool_opts.shards = 2;
  auto started = ShardedForkServer::Start(pool_opts);
  ASSERT_TRUE(started.ok()) << started.error().ToString();
  std::shared_ptr<ShardedForkServer> pool = std::move(*started);
  SpawnService service;
  service.AddRoute(ShardedTransport::Adopt(pool));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
  ExpectOversizedSpawnSkipsOnly(service, "sharded");
  EXPECT_EQ(pool->restarts(), 0u);
}

TEST_F(ServiceFallbackTest, SpawnTheWireCannotEncodeSkipsTheForkserverRouteOnce) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const pid_t zygote = handle->server_pid;
  auto channel = std::make_shared<ForkServerClient>(std::move(handle->client_sock));
  {
    SpawnService service;
    service.AddRoute(ForkServerTransport::Adopt(channel));
    service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);
    ExpectOversizedSpawnSkipsOnly(service, "forkserver");
  }
  ASSERT_TRUE(channel->Shutdown().ok());
  EXPECT_TRUE(WaitForExit(zygote).ok());
}

// Satellite 2 on the remote path: the first reap caches the status on the
// handle, and every later wait — blocking, non-blocking, deadline — returns
// the cache instead of a protocol error for a pid the server already forgot.
TEST_F(ServiceFallbackTest, RemoteHandleWaitIsIdempotent) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  Spawner s("/bin/sh");
  s.Args({"-c", "exit 5"});
  auto child = service.Spawn(s, "forkserver");
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "forkserver");

  auto first = child->Wait();
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  EXPECT_EQ(first->exit_code, 5);
  auto second = child->Wait();
  ASSERT_TRUE(second.ok()) << second.error().ToString();
  EXPECT_EQ(second->exit_code, 5);
  auto tried = child->TryWait();
  ASSERT_TRUE(tried.ok());
  ASSERT_TRUE(tried->has_value());
  EXPECT_EQ((*tried)->exit_code, 5);
}

// The deadline wait on a remote handle times out without consuming the
// parked server-side wait: a later blocking Wait still collects the status.
TEST_F(ServiceFallbackTest, RemoteWaitDeadlineKeepsTheWaitCollectable) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  Spawner s("/bin/sh");
  s.Args({"-c", "sleep 0.3; exit 9"});
  auto child = service.Spawn(s, "forkserver");
  ASSERT_TRUE(child.ok()) << child.error().ToString();

  auto running = child->TryWait();
  ASSERT_TRUE(running.ok()) << running.error().ToString();
  EXPECT_FALSE(running->has_value());
  auto timed_out = child->WaitDeadline(0.02);
  ASSERT_TRUE(timed_out.ok()) << timed_out.error().ToString();
  EXPECT_FALSE(timed_out->has_value());

  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_EQ(st->exit_code, 9);
}

// Kill on a remote handle goes straight to the pid (same namespace, foreign
// parentage) and the protocol wait reports the signal.
TEST_F(ServiceFallbackTest, RemoteKillAndWait) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  Spawner s("/bin/sleep");
  s.Arg("30");
  auto child = service.Spawn(s, "forkserver");
  ASSERT_TRUE(child.ok()) << child.error().ToString();

  EXPECT_TRUE(child->Kill(SIGTERM).ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->signaled);
  EXPECT_EQ(st->term_signal, SIGTERM);
  EXPECT_TRUE(child->KillAndWait().ok());  // idempotent after the reap
}

// The parent of `pid`, read from /proc/<pid>/status (-1 if unreadable).
pid_t ParentOf(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("PPid:", 0) == 0) {
      return static_cast<pid_t>(std::stol(line.substr(5)));
    }
  }
  return -1;
}

// A self-started zygote whose channel dies while a handle from that channel
// is alive never sees EOF: the handle keeps the old client, and with it the
// socket. The same-route retry must kill that zygote before reaping it, not
// wait for it forever, and serve the spawn from a fresh one.
TEST_F(ServiceFallbackTest, DeadSelfStartedZygoteIsKilledNotAwaited) {
  auto service = std::make_unique<SpawnService>();
  service->AddRoute(ForkServerTransport::StartInProcess());

  Spawner sleeper("/bin/sleep");
  sleeper.Arg("1");
  auto held = service->Spawn(sleeper);
  ASSERT_TRUE(held.ok()) << held.error().ToString();
  ASSERT_EQ(held->route(), "forkserver");
  const pid_t old_zygote = ParentOf(held->pid());
  ASSERT_GT(old_zygote, 0);

  // The next frame write fails: the channel dies with the handle still held.
  fault::PlanSpec spec;
  spec.site = "syscall.writev_full";
  spec.mode = fault::Mode::kEio;
  spec.nth = 1;
  fault::InstallPlan(spec);
  std::promise<Result<ProcessHandle>> spawned;
  std::future<Result<ProcessHandle>> next = spawned.get_future();
  std::thread spawner([&] { spawned.set_value(service->Spawn(Spawner("/bin/true"))); });
  const bool returned = next.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (!returned) {
    (void)::kill(old_zygote, SIGKILL);  // unblock the reap so the test can fail, not hang
  }
  spawner.join();
  fault::ClearPlan();
  ASSERT_TRUE(returned) << "the retry waited on the old zygote " << old_zygote;

  auto child = next.get();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), "forkserver");
  EXPECT_NE(ParentOf(child->pid()), old_zygote);
  auto st = child->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
  EXPECT_EQ(service->RouteStats("forkserver").successes, 2u);
  // The held handle's channel is dead; the transport's destructor reaps the
  // fresh zygote.
  service.reset();
}

// A self-started zygote that did not acknowledge kShutdown is killed before
// it is reaped: a waited handle from its channel still holds the socket, so
// it would never see EOF. Here the kShutdown frame's write fails.
TEST_F(ServiceFallbackTest, UnacknowledgedShutdownKillsTheSelfStartedZygote) {
  auto service = std::make_unique<SpawnService>();
  service->AddRoute(ForkServerTransport::StartInProcess());
  Spawner sleeper("/bin/sleep");
  sleeper.Arg("0.1");
  auto held = service->Spawn(sleeper);
  ASSERT_TRUE(held.ok()) << held.error().ToString();
  const pid_t zygote = ParentOf(held->pid());
  ASSERT_GT(zygote, 0);
  auto st = held->Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  ASSERT_TRUE(st->Success());

  fault::PlanSpec spec;
  spec.site = "syscall.writev_full";
  spec.mode = fault::Mode::kEio;
  spec.nth = 1;
  fault::InstallPlan(spec);
  auto destroyed = std::async(std::launch::async, [&service] { service.reset(); });
  const bool returned = destroyed.wait_for(std::chrono::seconds(5)) == std::future_status::ready;
  if (!returned) {
    (void)::kill(zygote, SIGKILL);  // unblock the reap so the test can fail, not hang
  }
  destroyed.get();
  const uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();
  ASSERT_TRUE(returned) << "the transport waited on the silent zygote " << zygote;
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(ProcState(zygote), 0) << "the zygote was not reaped";
}

// A self-started zygote that dies while idle is replaced by the next spawn
// on the same route, and the dead one is reaped, not left a zombie.
TEST_F(ServiceFallbackTest, IdleSelfStartedZygoteDeathIsReplacedAndReaped) {
  SpawnService service;
  service.AddRoute(ForkServerTransport::StartInProcess());
  Spawner sleeper("/bin/sleep");
  sleeper.Arg("0.1");
  pid_t old_zygote = -1;
  {
    auto first = service.Spawn(sleeper);
    ASSERT_TRUE(first.ok()) << first.error().ToString();
    old_zygote = ParentOf(first->pid());
    ASSERT_GT(old_zygote, 0);
    ASSERT_TRUE(first->Wait().value().Success());
  }  // idle: no handle holds the channel
  ASSERT_EQ(::kill(old_zygote, SIGKILL), 0);
  ASSERT_TRUE(AwaitZombie(old_zygote));

  auto next = service.Spawn(sleeper);
  ASSERT_TRUE(next.ok()) << next.error().ToString();
  EXPECT_EQ(next->route(), "forkserver");
  const pid_t new_zygote = ParentOf(next->pid());
  EXPECT_GT(new_zygote, 0);
  EXPECT_NE(new_zygote, old_zygote);
  EXPECT_TRUE(next->Wait().value().Success());
  EXPECT_EQ(ProcState(old_zygote), 0) << "the dead zygote was left a zombie";
}

// A pool shard that dies while idle does not keep a quarantined "sharded"
// route out for good: the probe that may re-admit it replaces the dead
// shard, so within a second of the quarantine a spawn runs on "sharded"
// again. Four failed frame writes force the quarantine.
TEST_F(ServiceFallbackTest, ShardedRouteIsReadmittedAfterAnIdleShardDies) {
  ShardedForkServer::Options pool_opts;
  pool_opts.shards = 2;
  auto started = ShardedForkServer::Start(pool_opts);
  ASSERT_TRUE(started.ok()) << started.error().ToString();
  std::shared_ptr<ShardedForkServer> pool = std::move(*started);
  SpawnService::Options opts;
  opts.retry_backoff_base_seconds = 0;
  opts.quarantine_seconds = 0.05;
  SpawnService service(opts);
  service.AddRoute(ShardedTransport::Adopt(pool));
  service.AddLocalRoute(SpawnBackendKind::kPosixSpawn);

  const pid_t dead = pool->shard_pids()[0];
  ASSERT_GT(dead, 0);
  ASSERT_EQ(::kill(dead, SIGKILL), 0);
  ASSERT_TRUE(AwaitZombie(dead));
  ::usleep(50 * 1000);  // the channel's receiver has read the EOF by now

  fault::PlanSpec spec;
  spec.site = "syscall.writev_full";
  spec.mode = fault::Mode::kEio;
  spec.every = 1;
  spec.limit = 4;
  fault::InstallPlan(spec);
  auto quarantined = service.Spawn(Spawner("/bin/true"));
  const uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();
  ASSERT_TRUE(quarantined.ok()) << quarantined.error().ToString();
  EXPECT_EQ(quarantined->route(), "local:posix_spawn");
  EXPECT_TRUE(quarantined->Wait().value().Success());
  EXPECT_EQ(fired, 4u);
  EXPECT_EQ(service.RouteStats("sharded").fallthroughs, 1u);

  std::string route;
  Stopwatch sw;
  while (route != "sharded" && sw.ElapsedSeconds() < 1.0) {
    auto child = service.Spawn(Spawner("/bin/true"));
    ASSERT_TRUE(child.ok()) << child.error().ToString();
    route = child->route();
    EXPECT_TRUE(child->Wait().value().Success());
  }
  EXPECT_EQ(route, "sharded") << "the sharded route was never re-admitted";
}

// Supervisor over a zygote route: the service's children are the zygote's,
// not ours, and their exits still reach WaitEvents through pidfds. An exit
// the zygote reaps before the supervisor arms its watch arrives the same way.
TEST_F(ServiceFallbackTest, SupervisorOverAZygoteRoute) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const pid_t zygote = handle->server_pid;
  auto channel = std::make_shared<ForkServerClient>(std::move(handle->client_sock));
  SpawnService service(DeterministicOptions());
  service.AddRoute(ForkServerTransport::Adopt(channel));
  {
    Supervisor::Options opts;
    opts.restart_backoff_base_seconds = 0.001;
    Supervisor sup(opts, &service);

    auto oneshot = sup.Launch(Spawner("/bin/true"), "oneshot", RestartPolicy::kNever);
    ASSERT_TRUE(oneshot.ok()) << oneshot.error().ToString();
    std::vector<Supervisor::Event> events;
    Stopwatch sw;
    while (events.empty() && sw.ElapsedSeconds() < 1.0) {
      auto got = sup.WaitEvents(0.05);
      ASSERT_TRUE(got.ok()) << got.error().ToString();
      events = std::move(*got);
    }
    ASSERT_EQ(events.size(), 1u) << "no exit event within 1 s";
    EXPECT_EQ(events[0].id, *oneshot);
    EXPECT_TRUE(events[0].status.Success()) << events[0].status.ToString();
    EXPECT_FALSE(events[0].will_restart);

    auto cycler = sup.Launch(Spawner("/bin/true"), "cycler", RestartPolicy::kAlways);
    ASSERT_TRUE(cycler.ok()) << cycler.error().ToString();
    for (int i = 0; i < 100 && sup.StartCount(*cycler).value() < 3; ++i) {
      auto got = sup.WaitEvents(0.05);
      ASSERT_TRUE(got.ok()) << got.error().ToString();
    }
    const uint64_t starts = sup.StartCount(*cycler).value();
    EXPECT_GE(starts, 3u) << "restarted fewer than twice";
    ASSERT_TRUE(sup.ShutdownAll().ok());
    // Every start, the one-shot's included, went to the zygote.
    EXPECT_EQ(service.RouteStats("forkserver").successes, starts + 1);
  }
  ASSERT_TRUE(channel->Shutdown().ok());
  EXPECT_TRUE(WaitForExit(zygote).ok());
}

}  // namespace
}  // namespace forklift
