#include "src/hazards/fork_guard.h"

#include <gtest/gtest.h>
#include <cstdio>
#include <unistd.h>

#include <condition_variable>
#include <thread>

#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/hazards/lock_registry.h"
#include "src/hazards/stdio_audit.h"

namespace forklift {
namespace {

TEST(ForkGuardTest, CleanProcessReportsClean) {
  auto report = ForkGuard::CheckNow();
  ASSERT_TRUE(report.ok());
  // Only hazard-free w.r.t. locks/stdio; fds may include gtest artifacts, so
  // assert the specific fields we control.
  EXPECT_TRUE(report->locks_held_by_others.empty());
  EXPECT_EQ(report->ToString().find("[lock]"), std::string::npos);
}

TEST(ForkGuardTest, DetectsForeignLock) {
  TrackedMutex mu("guard.test.lock");
  std::mutex cv_mu;
  std::condition_variable cv;
  bool locked = false, release = false;
  std::thread holder([&] {
    std::lock_guard<TrackedMutex> guard(mu);
    {
      std::lock_guard<std::mutex> l(cv_mu);
      locked = true;
    }
    cv.notify_all();
    std::unique_lock<std::mutex> l(cv_mu);
    cv.wait(l, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> l(cv_mu);
    cv.wait(l, [&] { return locked; });
  }

  auto report = ForkGuard::CheckNow();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->locks_held_by_others.size(), 1u);
  EXPECT_EQ(report->locks_held_by_others[0], "guard.test.lock");
  EXPECT_FALSE(report->clean());
  EXPECT_NE(report->ToString().find("deadlock"), std::string::npos);

  {
    std::lock_guard<std::mutex> l(cv_mu);
    release = true;
  }
  cv.notify_all();
  holder.join();
}

TEST(ForkGuardTest, DetectsInheritableFdHazard) {
  auto p = MakePipe(/*cloexec=*/false);
  ASSERT_TRUE(p.ok());
  auto report = ForkGuard::CheckNow();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->fd_leaks.clean());
  EXPECT_NE(report->ToString().find("[fd]"), std::string::npos);
}

TEST(ForkGuardTest, FindingCountAggregates) {
  auto p = MakePipe(/*cloexec=*/false);
  ASSERT_TRUE(p.ok());
  auto report = ForkGuard::CheckNow();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->finding_count(),
            report->locks_held_by_others.size() + report->unflushed_streams.size() +
                report->fd_leaks.inheritable.size());
  EXPECT_GE(report->finding_count(), 2u);  // both pipe ends at least
}

// Installing the atfork hook must observe real forks, whichever code forks.
TEST(ForkGuardTest, InstalledHookObservesForks) {
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kReport).ok());
  uint64_t before = ForkGuard::ForksObserved();
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    _exit(0);
  }
  ASSERT_TRUE(WaitForExit(pid).ok());
  EXPECT_EQ(ForkGuard::ForksObserved(), before + 1);
}

TEST(ForkGuardTest, LastReportCapturedAtFork) {
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kReport).ok());
  auto leak = MakePipe(/*cloexec=*/false);
  ASSERT_TRUE(leak.ok());
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    _exit(0);
  }
  ASSERT_TRUE(WaitForExit(pid).ok());
  auto report = ForkGuard::LastReport();
  bool saw_leak = false;
  for (const auto& info : report.fd_leaks.inheritable) {
    saw_leak |= info.fd == leak->read_end.get();
  }
  EXPECT_TRUE(saw_leak);
}

TEST(ForkGuardTest, FlushAndWarnPreventsDuplicationEndToEnd) {
  // The full remediation loop: an unflushed stream would be duplicated by
  // fork, but the installed kFlushAndWarn hook flushes in the atfork prepare
  // handler — so the child inherits an EMPTY buffer and output appears once.
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kFlushAndWarn).ok());

  auto p = MakePipe();
  ASSERT_TRUE(p.ok());
  FILE* f = ::fdopen(::dup(p->write_end.get()), "w");
  ASSERT_NE(f, nullptr);
  setvbuf(f, nullptr, _IOFBF, 4096);
  StdioAudit::Instance().Register("guarded-stream", f);
  std::fputs("guarded", f);
  ASSERT_GT(PendingBytes(f), 0u);

  pid_t pid = ::fork();  // prepare hook flushes "guarded" BEFORE the copy
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::fclose(f);  // child's buffer is empty: this emits nothing
    _exit(0);
  }
  ASSERT_TRUE(WaitForExit(pid).ok());
  StdioAudit::Instance().Unregister(f);
  std::fclose(f);  // parent buffer also already flushed
  p->write_end.Reset();
  auto data = ReadAll(p->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "guarded");  // exactly once — compare the unguarded test
                                // in stdio_and_secret_test.cc ("onceonce")
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kReport).ok());
}

TEST(ForkGuardTest, InstallIsIdempotent) {
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kReport).ok());
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kWarn).ok());
  ASSERT_TRUE(ForkGuard::Install(ForkGuardAction::kReport).ok());
  uint64_t before = ForkGuard::ForksObserved();
  pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    _exit(0);
  }
  ASSERT_TRUE(WaitForExit(pid).ok());
  // One hook, not three: exactly one observation per fork.
  EXPECT_EQ(ForkGuard::ForksObserved(), before + 1);
}

}  // namespace
}  // namespace forklift
