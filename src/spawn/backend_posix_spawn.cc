// The posix_spawn(3) backend — the replacement the paper recommends. The
// request's compiled fd plan lowers 1:1 onto posix_spawn file-actions; the
// attributes map onto spawn attrs where POSIX (plus glibc extensions) provide
// them, and produce a clean "unsupported" error where they do not — that gap
// is itself one of the paper's observations (spawn APIs lag fork's
// flexibility), and bench/tab1_api_matrix reports it as data.
#include <signal.h>
#include <spawn.h>
#include <unistd.h>

#include <vector>

#include "src/spawn/backend.h"

namespace forklift {

namespace {

class ScopedFileActions {
 public:
  ScopedFileActions() { posix_spawn_file_actions_init(&fa_); }
  ~ScopedFileActions() { posix_spawn_file_actions_destroy(&fa_); }
  ScopedFileActions(const ScopedFileActions&) = delete;
  ScopedFileActions& operator=(const ScopedFileActions&) = delete;

  posix_spawn_file_actions_t* get() { return &fa_; }

 private:
  posix_spawn_file_actions_t fa_;
};

class ScopedSpawnAttr {
 public:
  ScopedSpawnAttr() { posix_spawnattr_init(&attr_); }
  ~ScopedSpawnAttr() { posix_spawnattr_destroy(&attr_); }
  ScopedSpawnAttr(const ScopedSpawnAttr&) = delete;
  ScopedSpawnAttr& operator=(const ScopedSpawnAttr&) = delete;

  posix_spawnattr_t* get() { return &attr_; }

 private:
  posix_spawnattr_t attr_;
};

class PosixSpawnEngine : public SpawnBackend {
 public:
  Result<pid_t> Launch(const SpawnRequest& req) override {
    // Capability gaps, reported rather than silently dropped.
    if (!req.rlimits.empty()) {
      return LogicalError("posix_spawn backend: rlimits are not expressible in posix_spawn");
    }
    if (req.umask_value.has_value()) {
      return LogicalError("posix_spawn backend: umask is not expressible in posix_spawn");
    }
    if (req.nice_value.has_value()) {
      return LogicalError("posix_spawn backend: niceness is not expressible in posix_spawn");
    }

    ScopedFileActions fa;
    for (const auto& op : req.fd_plan.ops) {
      int rc = 0;
      switch (op.kind) {
        case CompiledFdOp::Kind::kDupToScratch:
          rc = posix_spawn_file_actions_adddup2(fa.get(), op.src_fd, op.scratch_fd);
          break;
        case CompiledFdOp::Kind::kDup2:
          // src == dst is the POSIX-specified "clear CLOEXEC" idiom.
          rc = posix_spawn_file_actions_adddup2(fa.get(), op.src_fd, op.dst_fd);
          break;
        case CompiledFdOp::Kind::kOpen:
          rc = posix_spawn_file_actions_addopen(fa.get(), op.dst_fd, op.path.c_str(), op.flags,
                                                op.mode);
          break;
        case CompiledFdOp::Kind::kClose:
          rc = posix_spawn_file_actions_addclose(fa.get(), op.dst_fd);
          break;
        case CompiledFdOp::Kind::kCloseScratch:
          rc = posix_spawn_file_actions_addclose(fa.get(), op.scratch_fd);
          break;
      }
      if (rc != 0) {
        errno = rc;
        return ErrnoError("posix_spawn_file_actions");
      }
    }

#if defined(__GLIBC__)
    if (req.cwd.has_value()) {
      int rc = posix_spawn_file_actions_addchdir_np(fa.get(), req.cwd->c_str());
      if (rc != 0) {
        errno = rc;
        return ErrnoError("posix_spawn_file_actions_addchdir_np");
      }
    }
    if (req.close_other_fds) {
      int max_target = 2;
      for (const auto& op : req.fd_plan.ops) {
        if (op.dst_fd > max_target) {
          max_target = op.dst_fd;
        }
      }
      int rc = posix_spawn_file_actions_addclosefrom_np(fa.get(), max_target + 1);
      if (rc != 0) {
        errno = rc;
        return ErrnoError("posix_spawn_file_actions_addclosefrom_np");
      }
    }
#else
    if (req.cwd.has_value()) {
      return LogicalError("posix_spawn backend: chdir requires glibc");
    }
    if (req.close_other_fds) {
      return LogicalError("posix_spawn backend: closefrom requires glibc");
    }
#endif

    ScopedSpawnAttr attr;
    short flags = 0;  // NOLINT(runtime/int): posix_spawnattr_setflags takes short
    if (req.reset_signal_mask) {
      sigset_t empty;
      sigemptyset(&empty);
      posix_spawnattr_setsigmask(attr.get(), &empty);
      flags |= POSIX_SPAWN_SETSIGMASK;
    }
    if (req.reset_signal_handlers) {
      sigset_t all;
      sigfillset(&all);
      posix_spawnattr_setsigdefault(attr.get(), &all);
      flags |= POSIX_SPAWN_SETSIGDEF;
    }
#ifdef POSIX_SPAWN_SETSID
    if (req.new_session) {
      flags |= POSIX_SPAWN_SETSID;
    }
#else
    if (req.new_session) {
      return LogicalError("posix_spawn backend: setsid not supported by this libc");
    }
#endif
    if (req.process_group.has_value()) {
      posix_spawnattr_setpgroup(attr.get(), *req.process_group);
      flags |= POSIX_SPAWN_SETPGROUP;
    }
    posix_spawnattr_setflags(attr.get(), flags);

    pid_t pid = -1;
    int rc;
    if (req.use_path_search) {
      rc = ::posix_spawnp(&pid, req.program.c_str(), fa.get(), attr.get(), req.argv.data(),
                          req.envp.data());
    } else {
      rc = ::posix_spawn(&pid, req.program.c_str(), fa.get(), attr.get(), req.argv.data(),
                         req.envp.data());
    }
    if (rc != 0) {
      errno = rc;
      return ErrnoError("posix_spawn");
    }
    return pid;
  }

  const char* Name() const override { return "posix_spawn"; }
};

}  // namespace

SpawnBackend& PosixSpawnBackend() {
  static PosixSpawnEngine engine;
  return engine;
}

}  // namespace forklift
