// WaitDeadline / Communicate on the handle Spawner::Spawn returns (exits
// arrive on the child's pidfd), plus the spawn-phase instrumentation
// (SpawnMetrics) stamped along the submit → exec-confirmed → exit-observed
// pipeline.
#include <gtest/gtest.h>

#include "src/common/clock.h"
#include "src/spawn/metrics.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

TEST(ChildWaitTest, WaitDeadlineCatchesExit) {
  auto child = Spawner("/bin/sh").Arg("-c").Arg("sleep 0.05").Spawn();
  ASSERT_TRUE(child.ok());
  auto st = child->WaitDeadline(5.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value());
  EXPECT_TRUE((*st)->Success());
}

TEST(ChildWaitTest, WaitDeadlineTimesOutAndChildSurvives) {
  auto child = Spawner("/bin/sleep").Arg("10").Spawn();
  ASSERT_TRUE(child.ok());
  Stopwatch sw;
  auto st = child->WaitDeadline(0.05);
  double elapsed = sw.ElapsedSeconds();
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->has_value());
  EXPECT_GE(elapsed, 0.04);
  EXPECT_LT(elapsed, 2.0);
  // Still running: a non-blocking probe agrees, then clean up.
  auto probe = child->TryWait();
  ASSERT_TRUE(probe.ok());
  EXPECT_FALSE(probe->has_value());
  ASSERT_TRUE(child->KillAndWait().ok());
}

TEST(ChildWaitTest, WaitDeadlineOnAlreadyReapedChildReturnsCachedStatus) {
  auto child = Spawner("/bin/true").Spawn();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(child->Wait().ok());
  auto st = child->WaitDeadline(1.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value());
  EXPECT_TRUE((*st)->Success());
}

TEST(ChildWaitTest, CommunicateDrainsBothStreamsAndReaps) {
  auto child = Spawner("/bin/sh")
                   .Arg("-c")
                   .Arg("cat; echo err >&2")
                   .SetStdin(Stdio::Pipe())
                   .SetStdout(Stdio::Pipe())
                   .SetStderr(Stdio::Pipe())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto outcome = child->Communicate("hello\n");
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->status.Success());
  EXPECT_EQ(outcome->stdout_data, "hello\n");
  EXPECT_EQ(outcome->stderr_data, "err\n");
}

// Each phase histogram takes a sample only when its two stamps are ordered,
// so exactly one sample per phase proves the spawn stamped submit ≤
// exec-confirmed ≤ exit-observed.
TEST(SpawnMetricsTest, CountsSpawnsAndExits) {
  SpawnMetrics::Global().ResetForTest();
  auto child = Spawner("/bin/true").Spawn();
  ASSERT_TRUE(child.ok());
  auto mid = SpawnMetrics::Global().snapshot();
  EXPECT_EQ(mid.spawns, 1u);
  EXPECT_EQ(mid.exits_observed, 0u);
  EXPECT_EQ(mid.submit_to_exec_us.count, 1u);
  EXPECT_GT(mid.submit_to_exec_us.sum, 0u);
  EXPECT_EQ(mid.exec_to_exit_us.count, 0u);

  ASSERT_TRUE(child->Wait().ok());
  // A second wait reads the handle's cache and records nothing.
  ASSERT_TRUE(child->Wait().ok());
  auto done = SpawnMetrics::Global().snapshot();
  EXPECT_EQ(done.spawns, 1u);
  EXPECT_EQ(done.exits_observed, 1u);
  EXPECT_EQ(done.submit_to_exec_us.count, 1u);
  EXPECT_EQ(done.exec_to_exit_us.count, 1u);
  EXPECT_GT(done.exec_to_exit_us.sum, 0u);
}

}  // namespace
}  // namespace forklift
