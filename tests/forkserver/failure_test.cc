// Failure injection for the fork-server stack: dead servers, killed workers,
// and garbage on the wire must produce errors, not hangs or crashes.
#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/forkserver/client.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/pool.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/server.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

// Pipe-heavy code: a worker can die between our liveness check and the
// write. Ignore SIGPIPE (the library contract) so that window surfaces as
// EPIPE instead of death.
class IgnoreSigpipe : public ::testing::Environment {
 public:
  void SetUp() override { ::signal(SIGPIPE, SIG_IGN); }
};
const auto* const kIgnoreSigpipe =
    ::testing::AddGlobalTestEnvironment(new IgnoreSigpipe());

TEST(ForkServerFailureTest, SpawnAgainstDeadServerFailsCleanly) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  // Kill the server outright (no shutdown handshake).
  ASSERT_EQ(::kill(handle->server_pid, SIGKILL), 0);
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());

  ForkServerClient client(std::move(handle->client_sock));
  auto req = Spawner("/bin/true").BuildRequest();
  ASSERT_TRUE(req.ok());
  EXPECT_FALSE(client.LaunchRequest(*req).ok());  // EOF or EPIPE — never a hang
}

TEST(ForkServerFailureTest, PingAfterServerCrashFails) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  ASSERT_EQ(::kill(handle->server_pid, SIGKILL), 0);
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());
  ForkServerClient client(std::move(handle->client_sock));
  EXPECT_FALSE(client.Ping().ok());
}

TEST(ForkServerFailureTest, GarbageFrameGetsErrorReply) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  // Send a syntactically valid frame with garbage payload.
  ASSERT_TRUE(SendFrame(handle->client_sock.get(), "not-a-protocol-message").ok());
  FrameBuffer fb;
  Frame frame;
  auto got = RecvFrame(handle->client_sock.get(), &fb, &frame);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(fb.buffered(), 0u) << "one reply, and nothing after it";
  auto reply = DecodeSpawnReply(frame.payload);
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);

  // The server survives and still works.
  ForkServerClient client(std::move(handle->client_sock));
  EXPECT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Shutdown().ok());
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());
}

TEST(ForkServerFailureTest, ServerSurvivesSpawnOfMissingBinary) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  ForkServerClient client(std::move(handle->client_sock));
  auto bad = Spawner("/no/such/thing").BuildRequest();
  ASSERT_TRUE(bad.ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(client.LaunchRequest(*bad).ok());
  }
  auto good = Spawner("/bin/true").BuildRequest();
  ASSERT_TRUE(good.ok());
  auto pid = client.LaunchRequest(*good);
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(client.WaitRemote(*pid).value().Success());
  ASSERT_TRUE(client.Shutdown().ok());
  ASSERT_TRUE(WaitForExit(handle->server_pid).ok());
}

TEST(WorkerPoolFailureTest, KilledWorkerIsDetectedAndRoutedAround) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 2}).ok());

  // Find a worker's pid, kill it behind the pool's back.
  auto r = pool.Execute("echo $$");
  ASSERT_TRUE(r.ok());
  pid_t victim = static_cast<pid_t>(std::stol(r->output));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);

  // The pool's reactor usually observes the death (pidfd event) before the
  // next dispatch and routes around the corpse with no failed task; if a task
  // races ahead of the notification, at most one errors. Either way the
  // survivor keeps serving.
  int successes = 0;
  for (int i = 0; i < 6; ++i) {
    auto task = pool.Execute("echo alive");
    if (task.ok()) {
      EXPECT_EQ(task->output, "alive\n");
      ++successes;
    }
  }
  EXPECT_GE(successes, 5);
}

// A task's own output must never be taken for the end of its reply, however
// much it looks like the pool's sentinel: it is reported verbatim, with the
// task's real exit code.
TEST(WorkerPoolFailureTest, OutputMimickingTheSentinelIsPlainOutput) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  auto bare = pool.Execute("echo __FORKLIFT_DONE_1_");
  ASSERT_TRUE(bare.ok()) << bare.error().ToString();
  EXPECT_EQ(bare->output, "__FORKLIFT_DONE_1_\n");
  EXPECT_EQ(bare->exit_code, 0);

  auto coded = pool.Execute("echo __FORKLIFT_DONE_2_5; echo after; exit 3");
  ASSERT_TRUE(coded.ok()) << coded.error().ToString();
  EXPECT_EQ(coded->output, "__FORKLIFT_DONE_2_5\nafter\n");
  EXPECT_EQ(coded->exit_code, 3);

  // Output without a trailing newline keeps its last line intact.
  auto partial = pool.Execute("printf 'no newline'");
  ASSERT_TRUE(partial.ok()) << partial.error().ToString();
  EXPECT_EQ(partial->output, "no newline");
  EXPECT_EQ(partial->exit_code, 0);
  EXPECT_EQ(pool.tasks_executed(), 3u);
}

TEST(WorkerPoolFailureTest, AllWorkersDeadIsTerminalError) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  auto r = pool.Execute("echo $$");
  ASSERT_TRUE(r.ok());
  pid_t victim = static_cast<pid_t>(std::stol(r->output));
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // First attempt detects the death, second finds no healthy workers.
  (void)pool.Execute("echo x");
  auto after = pool.Execute("echo x");
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace forklift
