// ProcessHandle: the mechanism-erased child handle. These tests pin the
// handle-layer contract on the local Impl that Spawner::Spawn returns —
// idempotent Wait from every reap path, deadline waits that keep the process
// collectable, kill semantics on live/reaped/invalid handles, and
// Communicate — so the remote Impls only need to honor the Impl vtable to
// inherit it.
#include "src/spawn/process_handle.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <utility>

#include "src/spawn/spawner.h"

namespace forklift {
namespace {

ProcessHandle MustSpawn(Spawner& s) {
  auto child = s.Spawn();
  EXPECT_TRUE(child.ok()) << child.error().ToString();
  return std::move(child).value();
}

TEST(ProcessHandleTest, WaitIsIdempotent) {
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 7"});
  ProcessHandle h = MustSpawn(s);
  EXPECT_EQ(h.route(), "local:forkexec");

  auto first = h.Wait();
  ASSERT_TRUE(first.ok()) << first.error().ToString();
  EXPECT_TRUE(first->exited);
  EXPECT_EQ(first->exit_code, 7);

  // A second Wait must return the cache, not ECHILD from a spent waitpid.
  auto second = h.Wait();
  ASSERT_TRUE(second.ok()) << second.error().ToString();
  EXPECT_EQ(second->exit_code, 7);

  // And the non-blocking forms read the same cache.
  auto try_again = h.TryWait();
  ASSERT_TRUE(try_again.ok());
  ASSERT_TRUE(try_again->has_value());
  EXPECT_EQ((*try_again)->exit_code, 7);
  auto deadline = h.WaitDeadline(0.0);
  ASSERT_TRUE(deadline.ok());
  ASSERT_TRUE(deadline->has_value());
  EXPECT_EQ((*deadline)->exit_code, 7);
}

TEST(ProcessHandleTest, TryWaitReportsRunningThenCaches) {
  Spawner s("/bin/sleep");
  s.Arg("30");
  ProcessHandle h = MustSpawn(s);
  ASSERT_TRUE(h.valid());
  EXPECT_GT(h.pid(), 0);

  auto running = h.TryWait();
  ASSERT_TRUE(running.ok()) << running.error().ToString();
  EXPECT_FALSE(running->has_value());

  ASSERT_TRUE(h.KillAndWait().ok());
  auto reaped = h.TryWait();
  ASSERT_TRUE(reaped.ok());
  ASSERT_TRUE(reaped->has_value());
  EXPECT_TRUE((*reaped)->signaled);
  EXPECT_EQ((*reaped)->term_signal, SIGKILL);
}

TEST(ProcessHandleTest, WaitDeadlineTimesOutWithoutConsumingTheWait) {
  Spawner s("/bin/sh");
  s.Args({"-c", "sleep 0.2; exit 3"});
  ProcessHandle h = MustSpawn(s);

  // Too short: must report "still running", and the process must remain
  // collectable by a later blocking Wait.
  auto timed_out = h.WaitDeadline(0.01);
  ASSERT_TRUE(timed_out.ok()) << timed_out.error().ToString();
  EXPECT_FALSE(timed_out->has_value());

  auto st = h.Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_EQ(st->exit_code, 3);
}

TEST(ProcessHandleTest, KillSemanticsAcrossTheLifecycle) {
  Spawner s("/bin/sleep");
  s.Arg("30");
  ProcessHandle h = MustSpawn(s);

  EXPECT_TRUE(h.Kill(SIGTERM).ok());
  auto st = h.Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->signaled);
  EXPECT_EQ(st->term_signal, SIGTERM);

  // Signaling a reaped handle would target a recycled pid: refused.
  EXPECT_FALSE(h.Kill(SIGTERM).ok());
  // But the kill-then-reap convenience is idempotent like Wait.
  EXPECT_TRUE(h.KillAndWait().ok());
}

TEST(ProcessHandleTest, InvalidHandleFailsEveryOperation) {
  ProcessHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(h.pid(), -1);
  EXPECT_EQ(h.route(), "");
  EXPECT_FALSE(h.Wait().ok());
  EXPECT_FALSE(h.TryWait().ok());
  EXPECT_FALSE(h.WaitDeadline(0.0).ok());
  EXPECT_FALSE(h.Kill(SIGTERM).ok());
  EXPECT_FALSE(h.Communicate("").ok());
}

TEST(ProcessHandleTest, CommunicateMatchesChildContract) {
  Spawner s("/bin/cat");
  s.SetStdin(Stdio::Pipe()).SetStdout(Stdio::Pipe()).SetStderr(Stdio::Pipe());
  ProcessHandle h = MustSpawn(s);
  ASSERT_TRUE(h.stdin_fd().valid());
  ASSERT_TRUE(h.stdout_fd().valid());

  auto outcome = h.Communicate("through the handle\n");
  ASSERT_TRUE(outcome.ok()) << outcome.error().ToString();
  EXPECT_EQ(outcome->stdout_data, "through the handle\n");
  EXPECT_EQ(outcome->stderr_data, "");
  EXPECT_TRUE(outcome->status.Success());

  // Communicate reaped via Wait, so the cache is populated.
  auto st = h.Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Success());
}

TEST(ProcessHandleTest, MoveTransfersOwnership) {
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 0"});
  ProcessHandle h = MustSpawn(s);
  pid_t pid = h.pid();

  ProcessHandle moved = std::move(h);
  EXPECT_EQ(moved.pid(), pid);
  EXPECT_FALSE(h.valid());  // NOLINT(bugprone-use-after-move): testing the moved-from state
  auto st = moved.Wait();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
}

}  // namespace
}  // namespace forklift
