// Integration tests for Spawner against real /bin utilities, parameterized
// over every built-in backend: the point of the backend abstraction is that
// observable child behaviour is identical whichever primitive creates it.
#include "src/spawn/spawner.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/common/pipe.h"
#include "src/common/syscall.h"

extern char** environ;

namespace forklift {
namespace {

// The value of `key` ("SigBlk", ...) in /proc/<pid>/status text.
std::string FieldOf(const std::string& status, const std::string& key) {
  size_t at = status.find("\n" + key + ":\t");
  if (at == std::string::npos) {
    return "";
  }
  at += key.size() + 3;
  return status.substr(at, status.find('\n', at) - at);
}

std::string StatusField(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return FieldOf(text, key);
}

class SpawnerBackendTest : public ::testing::TestWithParam<SpawnBackendKind> {
 protected:
  SpawnBackendKind backend() const { return GetParam(); }

  // Spelled out rather than taken from LocalRouteName, so a renamed route
  // fails here.
  std::string ExpectedRoute() const {
    switch (backend()) {
      case SpawnBackendKind::kForkExec:
        return "local:forkexec";
      case SpawnBackendKind::kVfork:
        return "local:vfork";
      case SpawnBackendKind::kPosixSpawn:
        return "local:posix_spawn";
      case SpawnBackendKind::kCloneVm:
        return "local:clone_vm";
    }
    return "";
  }
};

TEST_P(SpawnerBackendTest, TrueExitsZero) {
  auto child = Spawner("/bin/true").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  EXPECT_EQ(child->route(), ExpectedRoute());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Success());
}

TEST_P(SpawnerBackendTest, FalseExitsOne) {
  auto child = Spawner("/bin/false").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->exit_code, 1);
}

TEST_P(SpawnerBackendTest, CapturesStdout) {
  auto child = Spawner("echo")
                   .Args({"hello", "world"})
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok()) << oc.error().ToString();
  EXPECT_EQ(oc->stdout_data, "hello world\n");
  EXPECT_TRUE(oc->status.Success());
}

TEST_P(SpawnerBackendTest, FeedsStdin) {
  auto child = Spawner("cat")
                   .SetStdin(Stdio::Pipe())
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate("roundtrip\n");
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "roundtrip\n");
}

TEST_P(SpawnerBackendTest, SeparatesStderr) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo out; echo err 1>&2"})
                   .SetStdout(Stdio::Pipe())
                   .SetStderr(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "out\n");
  EXPECT_EQ(oc->stderr_data, "err\n");
}

TEST_P(SpawnerBackendTest, MergeStderrIntoStdoutPipe) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo out; echo err 1>&2"})
                   .SetStdout(Stdio::Pipe())
                   .SetStderr(Stdio::MergeStdout())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_NE(oc->stdout_data.find("out\n"), std::string::npos);
  EXPECT_NE(oc->stdout_data.find("err\n"), std::string::npos);
}

TEST_P(SpawnerBackendTest, PathSearchFindsEcho) {
  auto child = Spawner("echo").Arg("found").SetStdout(Stdio::Pipe()).SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "found\n");
}

TEST_P(SpawnerBackendTest, MissingProgramFailsCleanly) {
  auto child = Spawner("/no/such/binary").SetBackend(backend()).Spawn();
  ASSERT_FALSE(child.ok());
  EXPECT_EQ(child.error().code(), ENOENT) << child.error().ToString();
}

TEST_P(SpawnerBackendTest, MissingProgramViaPathSearchFails) {
  auto child = Spawner("forklift-no-such-tool-xyzzy").SetBackend(backend()).Spawn();
  ASSERT_FALSE(child.ok());
  EXPECT_EQ(child.error().code(), ENOENT);
}

TEST_P(SpawnerBackendTest, SetsEnvironment) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "printf '%s' \"$FORKLIFT_PROBE\""})
                   .SetEnv("FORKLIFT_PROBE", "42")
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "42");
}

TEST_P(SpawnerBackendTest, ClearEnvRemovesInherited) {
  ASSERT_EQ(setenv("FORKLIFT_LEAKY", "secret", 1), 0);
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "printf '%s' \"${FORKLIFT_LEAKY:-none}\""})
                   .ClearEnv()
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  unsetenv("FORKLIFT_LEAKY");
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "none");
}

TEST_P(SpawnerBackendTest, UnsetEnvRemovesOneKey) {
  ASSERT_EQ(setenv("FORKLIFT_DROPME", "x", 1), 0);
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "printf '%s' \"${FORKLIFT_DROPME:-gone}\""})
                   .UnsetEnv("FORKLIFT_DROPME")
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  unsetenv("FORKLIFT_DROPME");
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "gone");
}

TEST_P(SpawnerBackendTest, SetCwd) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "pwd"})
                   .SetCwd("/tmp")
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "/tmp\n");
}

TEST_P(SpawnerBackendTest, BadCwdFails) {
  auto child = Spawner("/bin/true").SetCwd("/no/such/dir").SetBackend(backend()).Spawn();
  // fork/vfork backends report the chdir failure via the exec pipe;
  // posix_spawn reports it from addchdir execution. Either way: an error, and
  // no zombie left behind.
  ASSERT_FALSE(child.ok());
}

TEST_P(SpawnerBackendTest, StdoutToFile) {
  std::string path = ::testing::TempDir() + "forklift_out_" +
                     std::to_string(static_cast<int>(backend())) + ".txt";
  auto child = Spawner("echo")
                   .Arg("filed")
                   .SetStdout(Stdio::Path(path))
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(child->Wait().ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "filed");
  std::remove(path.c_str());
}

TEST_P(SpawnerBackendTest, AppendPathAppends) {
  std::string path = ::testing::TempDir() + "forklift_app_" +
                     std::to_string(static_cast<int>(backend())) + ".txt";
  std::remove(path.c_str());
  for (int i = 0; i < 2; ++i) {
    auto child = Spawner("echo")
                     .Arg("line")
                     .SetStdout(Stdio::AppendPath(path))
                     .SetBackend(backend())
                     .Spawn();
    ASSERT_TRUE(child.ok());
    ASSERT_TRUE(child->Wait().ok());
  }
  std::ifstream in(path);
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(all, "line\nline\n");
  std::remove(path.c_str());
}

TEST_P(SpawnerBackendTest, StdinFromPath) {
  std::string path = ::testing::TempDir() + "forklift_in_" +
                     std::to_string(static_cast<int>(backend())) + ".txt";
  {
    std::ofstream out(path);
    out << "from-file\n";
  }
  auto child = Spawner("cat")
                   .SetStdin(Stdio::Path(path))
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "from-file\n");
  std::remove(path.c_str());
}

TEST_P(SpawnerBackendTest, NullStdioSilences) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo to-null"})
                   .SetStdout(Stdio::Null())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Success());
}

TEST_P(SpawnerBackendTest, PassFdGrantsDescriptor) {
  auto p = MakePipe();
  ASSERT_TRUE(p.ok());
  // Child writes into the granted descriptor (number 9).
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo via-fd9 1>&9"})
                   .PassFd(p->write_end.get(), 9)
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  p->write_end.Reset();  // parent's copy must close so EOF arrives
  auto data = ReadAll(p->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "via-fd9\n");
  ASSERT_TRUE(child->Wait().ok());
}

TEST_P(SpawnerBackendTest, CloexecPipeNotLeakedWithoutGrant) {
  // A CLOEXEC descriptor created by the parent must be invisible to the child
  // unless the plan grants it: the paper's "fork leaks everything" fixed.
  auto p = MakePipe();  // CLOEXEC by default
  ASSERT_TRUE(p.ok());
  int fdnum = p->write_end.get();
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo probe 1>&" + std::to_string(fdnum) + " 2>/dev/null"})
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  // The shell's redirect must have failed: the fd does not exist in the child.
  EXPECT_FALSE(st->Success());
}

TEST_P(SpawnerBackendTest, CloseOtherFdsDropsNonCloexec) {
  // A deliberately non-CLOEXEC pipe WOULD leak; CloseOtherFds stops it.
  auto p = MakePipe(/*cloexec=*/false);
  ASSERT_TRUE(p.ok());
  int fdnum = p->write_end.get();
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo probe 1>&" + std::to_string(fdnum) + " 2>/dev/null"})
                   .CloseOtherFds()
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->Success());
}

TEST_P(SpawnerBackendTest, WithoutCloseOtherFdsNonCloexecLeaks) {
  // Control for the test above: documents the hazard itself.
  auto p = MakePipe(/*cloexec=*/false);
  ASSERT_TRUE(p.ok());
  int fdnum = p->write_end.get();
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "echo leaked 1>&" + std::to_string(fdnum)})
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  p->write_end.Reset();
  auto data = ReadAll(p->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "leaked\n");
  ASSERT_TRUE(child->Wait().ok());
}

TEST_P(SpawnerBackendTest, PassPipeFromChild) {
  Spawner s("/bin/sh");
  s.Args({"-c", "echo report 1>&7"}).SetBackend(backend());
  auto report = s.PassPipeFromChild(7);
  ASSERT_TRUE(report.ok());
  auto child = s.Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  // The Spawner still holds the child-side end; destroy it to get EOF after
  // the child exits. (Scoping the Spawner would do the same.)
  s = Spawner("/bin/true");
  auto data = ReadAll(report->get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "report\n");
  ASSERT_TRUE(child->Wait().ok());
}

TEST_P(SpawnerBackendTest, PassPipeToChild) {
  Spawner s("/bin/sh");
  s.Args({"-c", "cat 0<&8"}).SetStdout(Stdio::Pipe()).SetBackend(backend());
  auto feed = s.PassPipeToChild(8);
  ASSERT_TRUE(feed.ok());
  auto child = s.Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  ASSERT_TRUE(WriteFull(feed->get(), "fed-via-8", 9).ok());
  feed->Reset();
  s = Spawner("/bin/true");  // drop the spawner's duplicate of the read end
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "fed-via-8");
}

TEST_P(SpawnerBackendTest, Argv0Override) {
  auto child = Spawner("/bin/sh")
                   .Argv0("customsh")
                   .Args({"-c", "printf '%s' \"$0\""})
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "customsh");
}

TEST_P(SpawnerBackendTest, NewSessionDetaches) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "ps -o sid= -p $$ 2>/dev/null || echo $$"})
                   .NewSession()
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  // The child is its own session leader: sid == its pid, and differs from ours.
  EXPECT_NE(oc->stdout_data, "");
}

TEST_P(SpawnerBackendTest, KillTerminates) {
  auto child = Spawner("sleep").Arg("30").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok());
  ASSERT_TRUE(child->Kill(SIGTERM).ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->signaled);
  EXPECT_EQ(st->term_signal, SIGTERM);
}

TEST_P(SpawnerBackendTest, TryWaitNonBlocking) {
  auto child = Spawner("sleep").Arg("5").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok());
  auto first = child->TryWait();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->has_value());
  ASSERT_TRUE(child->Kill(SIGKILL).ok());
  auto st = child->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->signaled);
}

TEST_P(SpawnerBackendTest, WaitDeadlineExpires) {
  auto child = Spawner("sleep").Arg("10").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok());
  auto st = child->WaitDeadline(0.05);
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(st->has_value());
  ASSERT_TRUE(child->KillAndWait().ok());
}

TEST_P(SpawnerBackendTest, WaitDeadlineCatchesFastExit) {
  auto child = Spawner("/bin/true").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok());
  auto st = child->WaitDeadline(5.0);
  ASSERT_TRUE(st.ok());
  ASSERT_TRUE(st->has_value());
  EXPECT_TRUE((*st)->Success());
}

TEST_P(SpawnerBackendTest, WaitIsIdempotent) {
  auto child = Spawner("/bin/true").SetBackend(backend()).Spawn();
  ASSERT_TRUE(child.ok());
  auto st1 = child->Wait();
  auto st2 = child->Wait();
  ASSERT_TRUE(st1.ok());
  ASSERT_TRUE(st2.ok());
  EXPECT_TRUE(st1->Success());
  EXPECT_TRUE(st2->Success());
}

TEST_P(SpawnerBackendTest, SignalMaskResetInChild) {
  // Block SIGTERM in the parent; the child must start with it unblocked.
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGTERM);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block, &old), 0);
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "grep SigBlk /proc/self/status"})
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  pthread_sigmask(SIG_SETMASK, &old, nullptr);
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_NE(oc->stdout_data.find("0000000000000000"), std::string::npos)
      << "child signal mask not reset: " << oc->stdout_data;
}

// The fork-family engines block every signal across process creation; the
// child must still exec with exactly the caller's mask and keep what the
// caller ignores when it asks for no reset.
TEST_P(SpawnerBackendTest, CallerSignalStateKeptWithoutReset) {
  sigset_t block, old_mask;
  sigemptyset(&block);
  sigaddset(&block, SIGUSR2);
  ASSERT_EQ(pthread_sigmask(SIG_BLOCK, &block, &old_mask), 0);
  struct sigaction ignore, old_usr1;
  std::memset(&ignore, 0, sizeof(ignore));
  ignore.sa_handler = SIG_IGN;
  ASSERT_EQ(::sigaction(SIGUSR1, &ignore, &old_usr1), 0);

  const std::string caller_status = StatusField("/proc/thread-self/status", "SigBlk");
  auto child = Spawner("/bin/cat")
                   .Arg("/proc/self/status")
                   .ResetSignals(false)
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(backend())
                   .Spawn();
  ::sigaction(SIGUSR1, &old_usr1, nullptr);
  pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  ASSERT_TRUE(oc->status.Success());

  const std::string child_blk = FieldOf(oc->stdout_data, "SigBlk");
  ASSERT_FALSE(caller_status.empty());
  EXPECT_EQ(child_blk, caller_status) << "child mask differs from the caller's";
  const unsigned long long ign = std::stoull(FieldOf(oc->stdout_data, "SigIgn"), nullptr, 16);
  EXPECT_NE(ign & (1ull << (SIGUSR1 - 1)), 0u) << "SIGUSR1 no longer ignored in the child";
}

INSTANTIATE_TEST_SUITE_P(AllBackends, SpawnerBackendTest,
                         ::testing::Values(SpawnBackendKind::kForkExec,
                                           SpawnBackendKind::kVfork,
                                           SpawnBackendKind::kPosixSpawn,
                                           SpawnBackendKind::kCloneVm),
                         [](const ::testing::TestParamInfo<SpawnBackendKind>& param_info) {
                           switch (param_info.param) {
                             case SpawnBackendKind::kForkExec:
                               return "ForkExec";
                             case SpawnBackendKind::kVfork:
                               return "Vfork";
                             case SpawnBackendKind::kPosixSpawn:
                               return "PosixSpawn";
                             case SpawnBackendKind::kCloneVm:
                               return "CloneVm";
                             default:
                               return "Other";
                           }
                         });

// --- Backend-specific behaviour ---------------------------------------------

// The engines that report exec failure through ChildExec's exec pipe.
class ForkFamilyTest : public ::testing::TestWithParam<SpawnBackendKind> {};

// Lowers the soft RLIMIT_NOFILE for one scope.
class ScopedSoftNofile {
 public:
  explicit ScopedSoftNofile(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~ScopedSoftNofile() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_;
};

// Regression: the exec pipe used to be moved to a fixed fd 1000, which fails
// under a soft RLIMIT_NOFILE of 1000 or less. The pipe then kept its low
// number, a plan that targets that number overwrote it, and the parent read
// EOF as "exec succeeded": a failed exec came back as a live pid.
TEST_P(ForkFamilyTest, FailedExecUnderSmallFdLimitIsAnError) {
  int high = -1;
  {
    auto devnull = OpenFd("/dev/null", O_WRONLY | O_CLOEXEC);
    ASSERT_TRUE(devnull.ok());
    high = ::fcntl(devnull->get(), F_DUPFD_CLOEXEC, 200);
  }
  ASSERT_GE(high, 200);
  UniqueFd src(high);
  ScopedSoftNofile limit(256);
  auto with_plan = [&](const char* program) {
    Spawner s(program);
    for (int k = 3; k <= 15; ++k) {
      s.PassFd(src.get(), k);  // covers the numbers the exec pipe lands on
    }
    return s.SetBackend(GetParam()).Spawn();
  };

  auto missing = with_plan("/nonexistent/program");
  if (missing.ok()) {
    auto st = missing->Wait();
    FAIL() << "failed exec reported as pid " << missing->pid() << " ("
           << (st.ok() ? st->ToString() : st.error().ToString()) << ")";
  }
  EXPECT_EQ(missing.error().code(), ENOENT) << missing.error().ToString();

  auto ok = with_plan("/bin/true");
  ASSERT_TRUE(ok.ok()) << ok.error().ToString();
  auto st = ok->Wait();
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Success());
}

INSTANTIATE_TEST_SUITE_P(ForkFamily, ForkFamilyTest,
                         ::testing::Values(SpawnBackendKind::kForkExec, SpawnBackendKind::kVfork,
                                           SpawnBackendKind::kCloneVm),
                         [](const ::testing::TestParamInfo<SpawnBackendKind>& param_info) {
                           switch (param_info.param) {
                             case SpawnBackendKind::kForkExec:
                               return "ForkExec";
                             case SpawnBackendKind::kVfork:
                               return "Vfork";
                             default:
                               return "CloneVm";
                           }
                         });

TEST(SpawnerRlimitTest, ForkBackendAppliesRlimit) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "ulimit -n"})
                   .AddRlimit(RLIMIT_NOFILE, 64, 64)
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(SpawnBackendKind::kForkExec)
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "64\n");
}

TEST(SpawnerRlimitTest, PosixSpawnBackendRejectsRlimit) {
  auto child = Spawner("/bin/true")
                   .AddRlimit(RLIMIT_NOFILE, 64, 64)
                   .SetBackend(SpawnBackendKind::kPosixSpawn)
                   .Spawn();
  ASSERT_FALSE(child.ok());
  EXPECT_NE(child.error().ToString().find("rlimit"), std::string::npos);
}

TEST(SpawnerNiceTest, ForkBackendAppliesNiceness) {
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "awk '{print $19}' /proc/self/stat"})
                   .SetNice(7)
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(SpawnBackendKind::kForkExec)
                   .Spawn();
  ASSERT_TRUE(child.ok()) << child.error().ToString();
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "7\n");
}

TEST(SpawnerNiceTest, PosixSpawnBackendRejectsNiceness) {
  auto child = Spawner("/bin/true")
                   .SetNice(5)
                   .SetBackend(SpawnBackendKind::kPosixSpawn)
                   .Spawn();
  ASSERT_FALSE(child.ok());
  EXPECT_NE(child.error().ToString().find("nice"), std::string::npos);
}

TEST(SpawnerUmaskTest, ForkBackendAppliesUmask) {
  std::string path = ::testing::TempDir() + "forklift_umask_probe";
  std::remove(path.c_str());
  auto child = Spawner("/bin/sh")
                   .Args({"-c", "touch " + path + " && stat -c %a " + path})
                   .SetUmask(0077)
                   .SetStdout(Stdio::Pipe())
                   .SetBackend(SpawnBackendKind::kForkExec)
                   .Spawn();
  ASSERT_TRUE(child.ok());
  auto oc = child->Communicate();
  ASSERT_TRUE(oc.ok());
  EXPECT_EQ(oc->stdout_data, "600\n");
  std::remove(path.c_str());
}

TEST(SpawnerUmaskTest, PosixSpawnBackendRejectsUmask) {
  auto child = Spawner("/bin/true")
                   .SetUmask(0077)
                   .SetBackend(SpawnBackendKind::kPosixSpawn)
                   .Spawn();
  ASSERT_FALSE(child.ok());
  EXPECT_NE(child.error().ToString().find("umask"), std::string::npos);
}

TEST(SpawnerBuildRequestTest, ResolvesWithoutLaunching) {
  Spawner s("/bin/echo");
  s.Arg("x").SetEnv("A", "1");
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->program, "/bin/echo");
  EXPECT_FALSE(req->use_path_search);
  ASSERT_EQ(req->argv.size(), 2u);
  EXPECT_EQ(req->argv[0], "/bin/echo");
  EXPECT_EQ(req->argv[1], "x");
}

TEST(SpawnerBuildRequestTest, RejectsPipeStdio) {
  Spawner s("/bin/echo");
  s.SetStdout(Stdio::Pipe());
  EXPECT_FALSE(s.BuildRequest().ok());
}

// Points `environ` at a crafted block for one scope.
class ScopedEnviron {
 public:
  explicit ScopedEnviron(char** env) : saved_(environ) { environ = env; }
  ~ScopedEnviron() { environ = saved_; }
  ScopedEnviron(const ScopedEnviron&) = delete;
  ScopedEnviron& operator=(const ScopedEnviron&) = delete;

 private:
  char** saved_;
};

// The request's envp as strings, each read both through data() (what exec
// sees) and operator[] (what the wire encodes).
std::vector<std::string> EnvpOf(const Spawner& s) {
  auto req = s.BuildRequest();
  EXPECT_TRUE(req.ok());
  if (!req.ok()) {
    return {};
  }
  std::vector<std::string> out;
  for (size_t i = 0; i < req->envp.size(); ++i) {
    EXPECT_EQ(std::string_view(req->envp.data()[i]), req->envp[i]) << "entry " << i;
    out.emplace_back(req->envp[i]);
  }
  EXPECT_EQ(req->envp.data()[req->envp.size()], nullptr);
  return out;
}

TEST(SpawnerBuildRequestTest, EnvMatchesTheEnvMapReference) {
  // Unsorted keys, a duplicated key (the first is kept), an entry without
  // '=', one with an empty key, values holding '=', and a key whose first
  // byte is above 0x7f (sorted as unsigned, as std::string compares).
  std::vector<std::string> entries = {"ZED=last", "HOME=/home/user", "PATH=/usr/bin:/bin",
                                      "HOME=/second", "NOEQUALS", "=emptykey", "EQ=a=b",
                                      "A_=x", "A=", "lower=1", "\xc3\xa9t\xc3\xa9=utf8"};
  // Enough variables that sorting them is no plain insertion sort, and five
  // keys that each appear five times: only a stable sort keeps the first.
  for (int i = 39; i >= 0; --i) {
    entries.push_back("K" + std::to_string(i) + "=" + std::to_string(i));
    for (int d = 0; i % 8 == 0 && d < 5; ++d) {
      entries.push_back("DUP" + std::to_string(d) + "=copy" + std::to_string(i));
    }
  }
  std::vector<char*> crafted;
  for (auto& e : entries) {
    crafted.push_back(e.data());
  }
  crafted.push_back(nullptr);
  const EnvMap inherited = EnvMap::FromBlock(crafted.data());
  ASSERT_EQ(inherited.Get("HOME").value(), "/home/user");
  ASSERT_EQ(inherited.Get("DUP3").value(), "copy32");
  ScopedEnviron scoped(crafted.data());

  {  // plain inherit
    EXPECT_EQ(EnvpOf(Spawner("/bin/true")), inherited.ToStrings());
  }
  {  // SetEnv on an inherited key and on a new one
    EnvMap ref = inherited;
    ref.Set("HOME", "/override");
    ref.Set("DUP2", "override");
    ref.Set("NEW", "1");
    EXPECT_EQ(EnvpOf(Spawner("/bin/true")
                         .SetEnv("HOME", "/override")
                         .SetEnv("DUP2", "override")
                         .SetEnv("NEW", "1")),
              ref.ToStrings());
  }
  {  // UnsetEnv: the duplicated key, the last key, and a key that is absent
    EnvMap ref = inherited;
    ref.Unset("HOME");
    ref.Unset("\xc3\xa9t\xc3\xa9");
    ref.Unset("ABSENT");
    EXPECT_EQ(EnvpOf(Spawner("/bin/true")
                         .UnsetEnv("HOME")
                         .UnsetEnv("\xc3\xa9t\xc3\xa9")
                         .UnsetEnv("ABSENT")),
              ref.ToStrings());
  }
  {  // ClearEnv + SetEnv
    EnvMap ref;
    ref.Set("ONLY", "this");
    ref.Set("ALSO", "that");
    EXPECT_EQ(EnvpOf(Spawner("/bin/true").ClearEnv().SetEnv("ONLY", "this").SetEnv("ALSO", "that")),
              ref.ToStrings());
  }
  {  // SetEnvMap + SetEnv + UnsetEnv; an unset beats a set of the same key
    const EnvMap explicit_env = EnvMap::FromStrings({"B=2", "A=1", "C=3", "D=4"});
    EnvMap ref = explicit_env;
    ref.Set("A", "override");
    ref.Set("E", "5");
    ref.Set("D", "set-then-unset");
    ref.Unset("C");
    ref.Unset("D");
    EXPECT_EQ(EnvpOf(Spawner("/bin/true")
                         .SetEnvMap(explicit_env)
                         .SetEnv("A", "override")
                         .UnsetEnv("C")
                         .SetEnv("E", "5")
                         .SetEnv("D", "set-then-unset")
                         .UnsetEnv("D")),
              ref.ToStrings());
  }
}

TEST(SpawnerThreadSafetyTest, ConcurrentSpawnsFromManyThreads) {
  // The paper: fork is fundamentally hostile to threads. The Spawner contract
  // is that concurrent spawns are safe; hammer it.
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&failures] {
      for (int i = 0; i < kPerThread; ++i) {
        auto child = Spawner("/bin/true").Spawn();
        if (!child.ok()) {
          ++failures;
          continue;
        }
        auto st = child->Wait();
        if (!st.ok() || !st->Success()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace forklift
