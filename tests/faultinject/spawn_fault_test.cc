// End-to-end fault-injection regressions in the spawn and reactor layers.
//
// Two bugs the sweep surfaced, each pinned here with a test that fails on the
// pre-fix code:
//   1. AwaitExec: when reading the exec-status pipe failed, the backend
//      returned the error but left the already-forked child running (or as a
//      zombie) with no pid the caller could reap.
//   2. Reactor: a timerfd_settime failure inside AddTimerAt/CancelTimer (void
//      APIs) was swallowed, so the timer silently never fired and PollOnce
//      reported an ordinary timeout instead of an error.
#include <dirent.h>
#include <errno.h>
#include <gtest/gtest.h>
#include <stdlib.h>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <set>
#include <string>

#include "src/common/reactor.h"
#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

// Open descriptors of this process, excluding the directory fd used to list.
std::set<int> SnapshotFds() {
  std::set<int> fds;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return fds;
  }
  int dirfd_num = ::dirfd(dir);
  while (dirent* ent = ::readdir(dir)) {
    if (ent->d_name[0] == '.') {
      continue;
    }
    int fd = ::atoi(ent->d_name);
    if (fd != dirfd_num) {
      fds.insert(fd);
    }
  }
  ::closedir(dir);
  return fds;
}

// True if this process has any child at all — live or zombie. A correct
// failure path reaps its own child before returning, so right after a failed
// Spawn the answer must already be "none" (waitid reports ECHILD); a live
// child or an unreaped zombie here is the leak the fix closes.
bool HasAnyChild() {
  siginfo_t si{};
  int rc = ::waitid(P_ALL, 0, &si, WEXITED | WNOHANG | WNOWAIT);
  return !(rc < 0 && errno == ECHILD);
}

// Best-effort cleanup when a leak IS detected, so one failing expectation does
// not poison later tests with stray children.
void ReapStrays() {
  for (int i = 0; i < 200 && HasAnyChild(); ++i) {
    siginfo_t si{};
    if (::waitid(P_ALL, 0, &si, WEXITED | WNOHANG | WNOWAIT) == 0 && si.si_pid != 0) {
      siginfo_t reap{};
      (void)::waitid(P_PID, static_cast<id_t>(si.si_pid), &reap, WEXITED);
    } else {
      ::usleep(10 * 1000);
    }
  }
}

class SpawnFaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::ClearPlan(); }
};

// Regression (pre-fix failure): injected EIO on the exec-status-pipe read made
// Spawn fail, but the forked child survived as a live /bin/cat (or a zombie)
// and the caller had no pid to clean it up with. The fix kills and reaps the
// child before surfacing the read error.
TEST_F(SpawnFaultTest, FailedAwaitExecLeavesNoChildAndNoFds) {
  ASSERT_FALSE(HasAnyChild());
  std::set<int> before = SnapshotFds();

  fault::PlanSpec spec;
  spec.site = "syscall.read_full";
  spec.mode = fault::Mode::kEio;
  spec.nth = 1;
  fault::InstallPlan(spec);

  auto child = Spawner("/bin/cat")
                   .SetStdin(Stdio::Pipe())
                   .SetStdout(Stdio::Pipe())
                   .Spawn();
  uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();

  ASSERT_EQ(fired, 1u) << "injection did not reach AwaitExec's status read";
  ASSERT_FALSE(child.ok()) << "spawn unexpectedly survived an injected EIO";
  EXPECT_EQ(child.error().code(), EIO);

  EXPECT_FALSE(HasAnyChild()) << "spawn failure leaked a child process";
  EXPECT_EQ(SnapshotFds(), before) << "spawn failure leaked descriptors";
  ReapStrays();
}

// An injected ENOMEM at the clone_vm engine's process creation (the zygote's
// launch engine) is a clean error: no child, and the exec pipe closed.
TEST_F(SpawnFaultTest, FailedCloneVmLeavesNoChildAndNoFds) {
  if (std::string(CloneVmBackend().Name()) != "clone(CLONE_VM|CLONE_VFORK)") {
    GTEST_SKIP() << "this build's clone_vm engine is " << CloneVmBackend().Name();
  }
  ASSERT_FALSE(HasAnyChild());
  std::set<int> before = SnapshotFds();

  fault::PlanSpec spec;
  spec.site = "spawn.clone_vm";
  spec.mode = fault::Mode::kEnomem;
  spec.nth = 1;
  fault::InstallPlan(spec);
  auto child = Spawner("/bin/true").SetBackend(SpawnBackendKind::kCloneVm).Spawn();
  uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();

  ASSERT_EQ(fired, 1u) << "injection did not reach the clone call";
  ASSERT_FALSE(child.ok());
  EXPECT_EQ(child.error().code(), ENOMEM);
  EXPECT_FALSE(HasAnyChild());
  EXPECT_EQ(SnapshotFds(), before) << "failed clone leaked the exec pipe";
  ReapStrays();
}

// Sanity companion: with no plan installed the identical spawn works, so the
// tests above are exercising the injected path and not a broken fixture.
TEST_F(SpawnFaultTest, SameSpawnSucceedsWithoutInjection) {
  auto child = Spawner("/bin/cat")
                   .SetStdin(Stdio::Pipe())
                   .SetStdout(Stdio::Pipe())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto outcome = child->Communicate("ping\n");
  ASSERT_TRUE(outcome.ok()) << outcome.error().ToString();
  EXPECT_TRUE(outcome->status.Success());
  EXPECT_EQ(outcome->stdout_data, "ping\n");
}

// Regression (pre-fix failure): AddTimerAt could not report a RearmTimerFd
// failure, so an injected ENOMEM from timerfd_settime lost the timer — the
// next PollOnce just timed out as if nothing were scheduled. The fix parks the
// error and returns it from PollOnce.
TEST_F(SpawnFaultTest, PollOnceSurfacesLostTimerRearm) {
  auto reactor = Reactor::Create();
  ASSERT_TRUE(reactor.ok()) << reactor.error().ToString();

  fault::PlanSpec spec;
  spec.site = "reactor.timerfd_settime";
  spec.mode = fault::Mode::kEnomem;
  spec.nth = 1;
  fault::InstallPlan(spec);

  bool timer_ran = false;
  reactor->AddTimerAfter(0.01, [&] { timer_ran = true; });
  uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();
  ASSERT_EQ(fired, 1u) << "injection did not reach RearmTimerFd";

  auto dispatched = reactor->PollOnce(100);
  ASSERT_FALSE(dispatched.ok())
      << "PollOnce swallowed the failed rearm (timer silently lost)";
  EXPECT_EQ(dispatched.error().code(), ENOMEM);
  EXPECT_FALSE(timer_ran);

  // The parked error is delivered once; the reactor is usable again after.
  auto again = reactor->PollOnce(0);
  EXPECT_TRUE(again.ok()) << again.error().ToString();
}

// The pidfd is a deadline wait's only exit signal: an injected EMFILE on
// pidfd_open fails the wait with that error and leaves the child alone, still
// collectable by a plain Wait.
TEST_F(SpawnFaultTest, WaitDeadlineReportsPidfdOpenFailure) {
  // cat runs until its stdin closes, so the wait cannot take the fast path.
  auto child = Spawner("/bin/cat").SetStdin(Stdio::Pipe()).Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();

  fault::PlanSpec spec;
  spec.site = "reactor.pidfd_open";
  spec.mode = fault::Mode::kEmfile;
  spec.nth = 1;
  fault::InstallPlan(spec);
  auto st = child->WaitDeadline(10.0);
  const uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();

  child->stdin_fd().Reset();
  ASSERT_EQ(fired, 1u);
  ASSERT_FALSE(st.ok()) << "the deadline wait ran without an exit watch";
  EXPECT_EQ(st.error().code(), EMFILE) << st.error().ToString();
  auto reaped = child->Wait();
  ASSERT_TRUE(reaped.ok()) << reaped.error().ToString();
  EXPECT_TRUE(reaped->Success());
}

}  // namespace
}  // namespace forklift
