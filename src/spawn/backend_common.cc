#include "src/spawn/backend_common.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/pipe.h"
#include "src/common/string_util.h"
#include "src/common/syscall.h"

#ifdef __linux__
#include <linux/close_range.h>
#include <sys/syscall.h>
#endif

namespace forklift {
namespace internal {

namespace {

// Candidate executable paths, in try-order. Resolved in the parent, where
// allocation is legal; the child only walks the array.
Result<std::vector<std::string>> ResolveExecTargets(const SpawnRequest& req) {
  std::vector<std::string> out;
  if (!req.use_path_search || req.program.find('/') != std::string::npos) {
    out.push_back(req.program);
    return out;
  }
  const char* path = std::getenv("PATH");
  std::string search = path != nullptr ? path : "/bin:/usr/bin";
  for (const auto& dir : Split(search, ':')) {
    std::string full = dir.empty() ? "./" + req.program : dir + "/" + req.program;
    out.push_back(std::move(full));
  }
  if (out.empty()) {
    return LogicalError("ResolveExecTargets: empty PATH");
  }
  return out;
}

// Fixed-size record the child writes on failure. `stage` is a short tag like
// "execve" or "chdir".
struct ExecFailure {
  int32_t err;
  char stage[24];
};

// Writes the failure record and dies. Async-signal-safe. Not
// address-sanitized, for the reason ChildExec is not.
[[noreturn, gnu::no_sanitize("address")]] void Fail(int err_fd, int err, const char* stage) {
  ExecFailure f;
  f.err = err;
  size_t i = 0;
  for (; stage[i] != '\0' && i < sizeof(f.stage) - 1; ++i) {
    f.stage[i] = stage[i];
  }
  for (; i < sizeof(f.stage); ++i) {
    f.stage[i] = '\0';
  }
  const char* p = reinterpret_cast<const char*>(&f);
  size_t left = sizeof(f);
  while (left > 0) {
    ssize_t n = ::write(err_fd, p, left);
    if (n <= 0) {
      break;  // nothing more we can do
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  _exit(127);
}

// The lowest descriptor the exec pipe may hold: above stdio and above every
// descriptor the fd plan writes (dup2/open targets, closes, scratch copies).
// A fixed high floor would fail under a small RLIMIT_NOFILE and leave the
// pipe where a plan op can overwrite it, turning a failed exec into "success".
int ExecPipeFloor(const CompiledFdPlan& plan) {
  int floor = 3;
  for (const auto& op : plan.ops) {
    floor = std::max({floor, op.dst_fd + 1, op.scratch_fd + 1});
  }
  return floor;
}

// Parent-side: waits for the exec pipe to close (success) or deliver an
// ExecFailure (failure; the dead child is reaped before returning the error).
Status AwaitExec(int read_fd, pid_t pid) {
  ExecFailure f;
  auto n = ReadFull(read_fd, &f, sizeof(f));
  if (!n.ok()) {
    // The read failed but the child may be alive (possibly already exec'd).
    // Returning without reclaiming it would leak a running process AND a
    // zombie entry — the caller has no pid to clean up with. Kill and reap
    // before surfacing the error.
    (void)::kill(pid, SIGKILL);
    (void)WaitPid(pid);
    return Err(n.error());
  }
  if (*n == 0) {
    return Status::Ok();  // pipe closed by exec: success
  }
  // The child failed before exec; reap it so no zombie leaks, then report.
  (void)WaitPid(pid);
  if (*n != sizeof(f)) {
    return LogicalError("exec pipe: short failure record");
  }
  f.stage[sizeof(f.stage) - 1] = '\0';
  errno = f.err;
  return ErrnoError(std::string("child ") + f.stage);
}

}  // namespace

void ChildExec(const ChildExecArgs& args) {
  const SpawnRequest& req = *args.req;
  int err_fd = args.err_fd;

  // Move the exec pipe out of the plan's reach (it stays CLOEXEC, so it
  // disappears on exec). Failing here is reported before the plan runs,
  // while the pipe is still intact.
  const int floor = ExecPipeFloor(req.fd_plan);
  if (err_fd < floor) {
    int high = ::fcntl(err_fd, F_DUPFD_CLOEXEC, floor);
    if (high < 0) {
      Fail(err_fd, errno, "relocate exec pipe");
    }
    ::close(err_fd);
    err_fd = high;
  }

  // Every signal is blocked (LaunchForked). Drop the parent's handlers before
  // any can be delivered: a caught signal would run parent code in the child,
  // and for the vfork and clone engines on the parent's own memory. SIG_IGN
  // survives unless the request resets everything. SIGKILL/SIGSTOP (and
  // libc's internal signals) refuse with EINVAL; that is fine.
  struct sigaction dfl;
  std::memset(&dfl, 0, sizeof(dfl));
  dfl.sa_handler = SIG_DFL;
  for (int sig = 1; sig < NSIG; ++sig) {
    if (!req.reset_signal_handlers) {
      struct sigaction cur;
      if (::sigaction(sig, nullptr, &cur) < 0 || cur.sa_handler == SIG_DFL ||
          cur.sa_handler == SIG_IGN) {
        continue;
      }
    }
    ::sigaction(sig, &dfl, nullptr);
  }

  if (req.new_session) {
    if (::setsid() < 0) {
      Fail(err_fd, errno, "setsid");
    }
  }
  if (req.process_group.has_value()) {
    if (::setpgid(0, *req.process_group) < 0) {
      Fail(err_fd, errno, "setpgid");
    }
  }
  if (req.umask_value.has_value()) {
    ::umask(*req.umask_value);
  }
  if (req.nice_value.has_value()) {
    if (::setpriority(PRIO_PROCESS, 0, *req.nice_value) < 0) {
      Fail(err_fd, errno, "setpriority");
    }
  }
  for (const auto& rl : req.rlimits) {
    if (::setrlimit(rl.resource, &rl.limit) < 0) {
      Fail(err_fd, errno, "setrlimit");
    }
  }
  if (req.cwd.has_value()) {
    if (::chdir(req.cwd->c_str()) < 0) {
      Fail(err_fd, errno, "chdir");
    }
  }

  int max_target = 2;
  for (const auto& op : req.fd_plan.ops) {
    switch (op.kind) {
      case CompiledFdOp::Kind::kDupToScratch: {
        if (::dup2(op.src_fd, op.scratch_fd) < 0) {
          Fail(err_fd, errno, "dup2(scratch)");
        }
        break;
      }
      case CompiledFdOp::Kind::kDup2: {
        if (op.src_fd == op.dst_fd) {
          int flags = ::fcntl(op.dst_fd, F_GETFD);
          if (flags < 0 || ::fcntl(op.dst_fd, F_SETFD, flags & ~FD_CLOEXEC) < 0) {
            Fail(err_fd, errno, "fcntl(inherit)");
          }
        } else if (::dup2(op.src_fd, op.dst_fd) < 0) {
          Fail(err_fd, errno, "dup2");
        }
        if (op.dst_fd > max_target) {
          max_target = op.dst_fd;
        }
        break;
      }
      case CompiledFdOp::Kind::kOpen: {
        int fd = ::open(op.path.c_str(), op.flags, op.mode);
        if (fd < 0) {
          Fail(err_fd, errno, "open");
        }
        if (fd != op.dst_fd) {
          if (::dup2(fd, op.dst_fd) < 0) {
            Fail(err_fd, errno, "dup2(open)");
          }
          ::close(fd);
        }
        if (op.dst_fd > max_target) {
          max_target = op.dst_fd;
        }
        break;
      }
      case CompiledFdOp::Kind::kClose: {
        if (::close(op.dst_fd) < 0 && errno != EBADF) {
          Fail(err_fd, errno, "close");
        }
        break;
      }
      case CompiledFdOp::Kind::kCloseScratch: {
        ::close(op.scratch_fd);
        break;
      }
    }
  }

#ifdef __linux__
  if (req.close_other_fds) {
    // Everything above the plan's highest target is forfeit, except the error
    // pipe (which is CLOEXEC and must survive until exec).
    unsigned int from = static_cast<unsigned int>(max_target) + 1;
    if (static_cast<int>(from) < err_fd) {
      ::syscall(SYS_close_range, from, static_cast<unsigned int>(err_fd - 1), 0u);
    }
    ::syscall(SYS_close_range, static_cast<unsigned int>(err_fd + 1), ~0u, 0u);
  }
#endif

  // Last step before exec, with every handler already SIG_DFL: the caller's
  // mask, or none at all.
  sigset_t empty;
  sigemptyset(&empty);
  if (::sigprocmask(SIG_SETMASK, req.reset_signal_mask ? &empty : &args.caller_mask, nullptr) <
      0) {
    Fail(err_fd, errno, "sigprocmask");
  }

  int last_err = ENOENT;
  for (const char* const* p = args.exec_paths; *p != nullptr; ++p) {
    ::execve(*p, req.argv.data(), req.envp.data());
    // Keep searching on "not here" errors; report anything else immediately.
    if (errno != ENOENT && errno != ENOTDIR && errno != EACCES) {
      Fail(err_fd, errno, "execve");
    }
    last_err = errno;
  }
  Fail(err_fd, last_err, "execve");
}

Result<pid_t> LaunchForked(const SpawnRequest& req, const char* what, StartChildFn start) {
  FORKLIFT_ASSIGN_OR_RETURN(std::vector<std::string> targets, ResolveExecTargets(req));
  std::vector<const char*> target_ptrs;
  target_ptrs.reserve(targets.size() + 1);
  for (const auto& t : targets) {
    target_ptrs.push_back(t.c_str());
  }
  target_ptrs.push_back(nullptr);

  FORKLIFT_ASSIGN_OR_RETURN(Pipe exec_pipe, MakePipe());

  ChildExecArgs args;
  args.req = &req;
  args.exec_paths = target_ptrs.data();
  args.err_fd = exec_pipe.write_end.get();
  // Block every signal across the creation, so none is delivered to the
  // child before ChildExec has reset the handlers it inherited.
  sigset_t all;
  sigfillset(&all);
  ::pthread_sigmask(SIG_SETMASK, &all, &args.caller_mask);
  pid_t pid = start(args);
  const int start_errno = errno;
  ::pthread_sigmask(SIG_SETMASK, &args.caller_mask, nullptr);
  if (pid < 0) {
    errno = start_errno;
    return ErrnoError(what);
  }
  exec_pipe.write_end.Reset();
  FORKLIFT_RETURN_IF_ERROR(AwaitExec(exec_pipe.read_end.get(), pid));
  return pid;
}

}  // namespace internal
}  // namespace forklift
