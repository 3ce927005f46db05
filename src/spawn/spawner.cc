#include "src/spawn/spawner.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/spawn/metrics.h"

extern char** environ;

namespace forklift {

Spawner::Spawner(std::string program) : program_(std::move(program)) {}

Spawner& Spawner::Arg(std::string arg) {
  args_.push_back(std::move(arg));
  return *this;
}

Spawner& Spawner::Args(const std::vector<std::string>& args) {
  for (const auto& a : args) {
    args_.push_back(a);
  }
  return *this;
}

Spawner& Spawner::Argv0(std::string argv0) {
  argv0_ = std::move(argv0);
  return *this;
}

Spawner& Spawner::ClearEnv() {
  inherit_env_ = false;
  explicit_env_.reset();
  return *this;
}

Spawner& Spawner::SetEnv(std::string_view key, std::string_view value) {
  env_overrides_.Set(key, value);
  return *this;
}

Spawner& Spawner::UnsetEnv(std::string_view key) {
  env_unsets_.emplace(key);
  return *this;
}

Spawner& Spawner::SetEnvMap(EnvMap env) {
  explicit_env_ = std::move(env);
  inherit_env_ = false;
  return *this;
}

Spawner& Spawner::SetStdin(Stdio spec) {
  stdin_spec_ = spec;
  return *this;
}

Spawner& Spawner::SetStdout(Stdio spec) {
  stdout_spec_ = spec;
  return *this;
}

Spawner& Spawner::SetStderr(Stdio spec) {
  stderr_spec_ = spec;
  return *this;
}

Spawner& Spawner::PassFd(int parent_fd, int child_fd) {
  extra_fds_.Dup2(parent_fd, child_fd);
  return *this;
}

Result<UniqueFd> Spawner::PassPipeToChild(int child_fd) {
  FORKLIFT_ASSIGN_OR_RETURN(Pipe p, MakePipe());
  extra_fds_.Dup2(p.read_end.get(), child_fd);
  owned_child_fds_.push_back(std::make_shared<UniqueFd>(std::move(p.read_end)));
  return std::move(p.write_end);
}

Result<UniqueFd> Spawner::PassPipeFromChild(int child_fd) {
  FORKLIFT_ASSIGN_OR_RETURN(Pipe p, MakePipe());
  extra_fds_.Dup2(p.write_end.get(), child_fd);
  owned_child_fds_.push_back(std::make_shared<UniqueFd>(std::move(p.write_end)));
  return std::move(p.read_end);
}

Spawner& Spawner::CloseOtherFds() {
  close_other_fds_ = true;
  return *this;
}

Spawner& Spawner::SetCwd(std::string cwd) {
  cwd_ = std::move(cwd);
  return *this;
}

Spawner& Spawner::SetUmask(mode_t mask) {
  umask_ = mask;
  return *this;
}

Spawner& Spawner::ResetSignals(bool reset) {
  reset_signals_ = reset;
  return *this;
}

Spawner& Spawner::NewSession() {
  new_session_ = true;
  return *this;
}

Spawner& Spawner::SetProcessGroup(pid_t pgid) {
  process_group_ = pgid;
  return *this;
}

Spawner& Spawner::SetNice(int nice_value) {
  nice_value_ = nice_value;
  return *this;
}

Spawner& Spawner::AddRlimit(int resource, rlim_t soft, rlim_t hard) {
  RlimitSpec spec;
  spec.resource = resource;
  spec.limit.rlim_cur = soft;
  spec.limit.rlim_max = hard;
  rlimits_.push_back(spec);
  return *this;
}

Spawner& Spawner::SetBackend(SpawnBackendKind kind) {
  backend_kind_ = kind;
  return *this;
}

namespace {

// The child's environment in one block: the SetEnvMap map, or `environ` when
// inheriting, with the SetEnv overrides on top and the UnsetEnv keys removed.
// Byte for byte what EnvMap's FromBlock, Set, Unset and ToBlock give: sorted
// by key, the first of duplicate `environ` keys kept, entries without a key
// dropped. Every variable is viewed where it lives and copied once, into the
// block's one reservation.
ArgvBlock EnvBlock(bool inherit, const std::optional<EnvMap>& explicit_env,
                   const EnvMap& overrides, const std::set<std::string, std::less<>>& unsets) {
  struct Var {
    std::string_view key;
    std::string_view value;
  };
  char* const* inherited = inherit && !explicit_env.has_value() ? environ : nullptr;
  size_t count = overrides.size() + (explicit_env.has_value() ? explicit_env->size() : 0);
  for (char* const* p = inherited; p != nullptr && *p != nullptr; ++p) {
    ++count;
  }
  // Overrides go first, so after the stable sort each key's first entry is
  // the one that wins.
  std::vector<Var> vars;
  vars.reserve(count);
  for (const auto& [k, v] : overrides.vars()) {
    vars.push_back({k, v});
  }
  if (explicit_env.has_value()) {
    for (const auto& [k, v] : explicit_env->vars()) {
      vars.push_back({k, v});
    }
  }
  for (char* const* p = inherited; p != nullptr && *p != nullptr; ++p) {
    std::string_view entry(*p);
    size_t eq = entry.find('=');
    if (eq != std::string_view::npos && eq != 0) {
      vars.push_back({entry.substr(0, eq), entry.substr(eq + 1)});
    }
  }
  std::stable_sort(vars.begin(), vars.end(),
                   [](const Var& a, const Var& b) { return a.key < b.key; });
  vars.erase(std::unique(vars.begin(), vars.end(),
                         [](const Var& a, const Var& b) { return a.key == b.key; }),
             vars.end());

  size_t chars = 0;
  for (const auto& var : vars) {
    chars += var.key.size() + 1 + var.value.size();
  }
  ArgvBlock block;
  block.Reserve(vars.size(), chars);
  for (const auto& var : vars) {
    if (!unsets.contains(var.key)) {
      block.AddKeyValue(var.key, var.value);
    }
  }
  return block;
}

SpawnBackend& BackendFor(SpawnBackendKind kind) {
  switch (kind) {
    case SpawnBackendKind::kVfork:
      return VforkBackend();
    case SpawnBackendKind::kPosixSpawn:
      return PosixSpawnBackend();
    case SpawnBackendKind::kCloneVm:
      return CloneVmBackend();
    case SpawnBackendKind::kForkExec:
      break;
  }
  return ForkExecBackend();
}

}  // namespace

Result<SpawnRequest> Spawner::AssembleRequest(FdPlan stdio) const {
  SpawnRequest req;
  req.program = program_;
  req.use_path_search = program_.find('/') == std::string::npos;

  const std::string& argv0 = argv0_.has_value() ? *argv0_ : program_;
  size_t argv_chars = argv0.size();
  for (const auto& a : args_) {
    argv_chars += a.size();
  }
  req.argv.Reserve(args_.size() + 1, argv_chars);
  req.argv.Add(argv0);
  for (const auto& a : args_) {
    req.argv.Add(a);
  }
  req.envp = EnvBlock(inherit_env_, explicit_env_, env_overrides_, env_unsets_);

  for (const auto& a : extra_fds_.actions()) {
    switch (a.kind) {
      case FdAction::Kind::kDup2:
        stdio.Dup2(a.src_fd, a.child_fd);
        break;
      case FdAction::Kind::kOpen:
        stdio.Open(a.path, a.flags, a.mode, a.child_fd);
        break;
      case FdAction::Kind::kClose:
        stdio.Close(a.child_fd);
        break;
      case FdAction::Kind::kInherit:
        stdio.Inherit(a.child_fd);
        break;
    }
  }
  FORKLIFT_ASSIGN_OR_RETURN(req.fd_plan, stdio.Compile());

  req.cwd = cwd_;
  req.umask_value = umask_;
  req.reset_signal_mask = reset_signals_;
  req.reset_signal_handlers = reset_signals_;
  req.new_session = new_session_;
  req.process_group = process_group_;
  req.nice_value = nice_value_;
  req.rlimits = rlimits_;
  req.close_other_fds = close_other_fds_;
  return req;
}

Result<SpawnRequest> Spawner::BuildRequest() const {
  // Nothing is opened in the parent here: a wire route ships only
  // descriptors, so Null and Path specs lower to child-side opens and the
  // dup2 sources name the caller's own fds.
  FdPlan plan;
  int stdout_src = stdout_spec_.kind() == Stdio::Kind::kFd ? stdout_spec_.fd() : 1;
  auto lower = [&](const Stdio& spec, int target) -> Status {
    switch (spec.kind()) {
      case Stdio::Kind::kInherit:
        return Status::Ok();
      case Stdio::Kind::kNull: {
        int flags = target == 0 ? O_RDONLY : O_WRONLY;
        plan.Open("/dev/null", flags, 0, target);
        return Status::Ok();
      }
      case Stdio::Kind::kFd:
        plan.Dup2(spec.fd(), target);
        return Status::Ok();
      case Stdio::Kind::kPath: {
        int flags = target == 0 ? O_RDONLY : (O_WRONLY | O_CREAT | O_TRUNC);
        plan.Open(spec.path(), flags, 0644, target);
        return Status::Ok();
      }
      case Stdio::Kind::kAppendPath:
        plan.Open(spec.path(), O_WRONLY | O_CREAT | O_APPEND, 0644, target);
        return Status::Ok();
      case Stdio::Kind::kMergeStdout:
        if (target != 2) {
          return LogicalError("MergeStdout is only valid for stderr");
        }
        switch (stdout_spec_.kind()) {
          case Stdio::Kind::kNull:
            // stdout's open happens child-side, so fd 1 here would be the
            // caller's own stdout: discard stderr with a second open.
            plan.Open("/dev/null", O_WRONLY, 0, 2);
            return Status::Ok();
          case Stdio::Kind::kPath:
          case Stdio::Kind::kAppendPath:
            // A second open of the path would not share stdout's offset, and
            // "fd 1 after the open" has no parent-side name: reject rather
            // than silently mis-share.
            return LogicalError("BuildRequest: MergeStdout with Path stdout requires Spawn()");
          default:
            plan.Dup2(stdout_src, 2);
            return Status::Ok();
        }
      case Stdio::Kind::kPipe:
        return LogicalError("BuildRequest: pipe stdio requires Spawn(), not BuildRequest()");
    }
    return LogicalError("unknown stdio kind");
  };
  FORKLIFT_RETURN_IF_ERROR(lower(stdin_spec_, 0));
  FORKLIFT_RETURN_IF_ERROR(lower(stdout_spec_, 1));
  FORKLIFT_RETURN_IF_ERROR(lower(stderr_spec_, 2));
  return AssembleRequest(std::move(plan));
}

Result<ProcessHandle> Spawner::Spawn() {
  SpawnTimeline timeline;
  timeline.submit_ns = MonotonicNanos();

  // Stdio plumbing. Files are opened in the parent so open failures surface as
  // clean errors before any process exists; pipes keep their parent ends
  // until launch succeeds.
  FdPlan plan;
  std::vector<UniqueFd> temps;     // parent-held fds that die after launch
  UniqueFd pipe_in_parent;         // write end of the stdin pipe
  UniqueFd pipe_out_parent;        // read end of the stdout pipe
  UniqueFd pipe_err_parent;        // read end of the stderr pipe

  // Resolved parent-side source fd for each stream (for MergeStdout).
  int stdout_src = -1;

  auto lower = [&](const Stdio& spec, int target) -> Status {
    switch (spec.kind()) {
      case Stdio::Kind::kInherit:
        if (target == 1) {
          stdout_src = 1;
        }
        return Status::Ok();
      case Stdio::Kind::kNull: {
        int flags = (target == 0 ? O_RDONLY : O_WRONLY) | O_CLOEXEC;
        auto fd = OpenFd("/dev/null", flags);
        if (!fd.ok()) {
          return Err(fd.error());
        }
        if (target == 1) {
          stdout_src = fd->get();
        }
        plan.Dup2(fd->get(), target);
        temps.push_back(std::move(fd).value());
        return Status::Ok();
      }
      case Stdio::Kind::kPipe: {
        auto p = MakePipe();
        if (!p.ok()) {
          return Err(p.error());
        }
        if (target == 0) {
          plan.Dup2(p->read_end.get(), 0);
          pipe_in_parent = std::move(p->write_end);
          temps.push_back(std::move(p->read_end));
        } else {
          plan.Dup2(p->write_end.get(), target);
          if (target == 1) {
            stdout_src = p->write_end.get();
            pipe_out_parent = std::move(p->read_end);
          } else {
            pipe_err_parent = std::move(p->read_end);
          }
          temps.push_back(std::move(p->write_end));
        }
        return Status::Ok();
      }
      case Stdio::Kind::kFd:
        if (target == 1) {
          stdout_src = spec.fd();
        }
        plan.Dup2(spec.fd(), target);
        return Status::Ok();
      case Stdio::Kind::kPath:
      case Stdio::Kind::kAppendPath: {
        int flags;
        if (target == 0) {
          flags = O_RDONLY | O_CLOEXEC;
        } else if (spec.kind() == Stdio::Kind::kAppendPath) {
          flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
        } else {
          flags = O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC;
        }
        auto fd = OpenFd(spec.path(), flags, 0644);
        if (!fd.ok()) {
          return Err(fd.error());
        }
        if (target == 1) {
          stdout_src = fd->get();
        }
        plan.Dup2(fd->get(), target);
        temps.push_back(std::move(fd).value());
        return Status::Ok();
      }
      case Stdio::Kind::kMergeStdout:
        if (target != 2) {
          return LogicalError("MergeStdout is only valid for stderr");
        }
        if (stdout_src < 0) {
          return LogicalError("MergeStdout: stdout has no resolvable source");
        }
        plan.Dup2(stdout_src, 2);
        return Status::Ok();
    }
    return LogicalError("unknown stdio kind");
  };

  FORKLIFT_RETURN_IF_ERROR(lower(stdin_spec_, 0));
  FORKLIFT_RETURN_IF_ERROR(lower(stdout_spec_, 1));
  FORKLIFT_RETURN_IF_ERROR(lower(stderr_spec_, 2));

  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, AssembleRequest(std::move(plan)));
  FORKLIFT_ASSIGN_OR_RETURN(pid_t pid, BackendFor(backend_kind_).Launch(req));
  timeline.exec_confirmed_ns = MonotonicNanos();
  SpawnMetrics::Global().RecordSpawn(timeline);

  ProcessHandle handle =
      ProcessHandle::FromLocalSpawn(pid, timeline, LocalRouteName(backend_kind_));
  handle.stdin_fd() = std::move(pipe_in_parent);
  handle.stdout_fd() = std::move(pipe_out_parent);
  handle.stderr_fd() = std::move(pipe_err_parent);
  return handle;
}

}  // namespace forklift
