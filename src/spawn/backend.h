// forklift/spawn: the backend interface — a fully-resolved spawn request and
// the engines that can launch it.
//
// The paper compares fork+exec, vfork+exec, and posix_spawn; forklift makes
// them interchangeable engines behind one API so every experiment can hold the
// workload constant and vary only the creation primitive.
#ifndef SRC_SPAWN_BACKEND_H_
#define SRC_SPAWN_BACKEND_H_

#include <sys/resource.h>
#include <sys/types.h>

#include <optional>
#include <string>
#include <vector>

#include "src/common/env.h"
#include "src/common/result.h"
#include "src/spawn/fd_actions.h"

namespace forklift {

enum class SpawnBackendKind {
  kForkExec,    // fork(2) + execve(2): the API under indictment
  kVfork,       // vfork(2) + execve(2): shares the AS, parent suspended
  kPosixSpawn,  // posix_spawn(3): the paper's recommended replacement
  kCloneVm,     // clone(CLONE_VM|CLONE_VFORK): glibc posix_spawn's own engine
};

const char* SpawnBackendKindName(SpawnBackendKind kind);
// The route name a handle from this engine reports ("local:forkexec", ...).
const char* LocalRouteName(SpawnBackendKind kind);

struct RlimitSpec {
  int resource;  // RLIMIT_*
  rlimit limit;
};

// Everything a backend needs, pre-resolved into stable storage. Nothing in
// here requires allocation to use, so the child side of fork/vfork can consume
// it async-signal-safely.
struct SpawnRequest {
  std::string program;          // path, or bare name if use_path_search
  bool use_path_search = false;
  ArgvBlock argv;               // argv[0] included
  ArgvBlock envp;               // full environment block
  CompiledFdPlan fd_plan;

  std::optional<std::string> cwd;
  std::optional<mode_t> umask_value;
  bool reset_signal_mask = true;      // unblock everything in the child
  bool reset_signal_handlers = true;  // restore SIG_DFL for caught signals
  bool new_session = false;           // setsid()
  std::optional<pid_t> process_group; // setpgid(0, value); 0 = own new group
  std::optional<int> nice_value;      // setpriority(PRIO_PROCESS, 0, value)
  std::vector<RlimitSpec> rlimits;
  // Close every fd > max(plan targets, stderr) in the child via close_range(2)
  // — the paper's fd-leak hazard, fixed wholesale.
  bool close_other_fds = false;
};

// A launch engine. Implementations must be thread-safe: Spawner is documented
// as callable from multiple threads concurrently (unlike fork+globals idioms).
class SpawnBackend {
 public:
  virtual ~SpawnBackend() = default;

  // Launches `req`; on success the child's exec has been confirmed (or the
  // backend documents it cannot confirm, cf. posix_spawn) and the pid is
  // returned. The caller owns reaping.
  virtual Result<pid_t> Launch(const SpawnRequest& req) = 0;

  virtual const char* Name() const = 0;
};

// The built-in engines. Stateless and reusable.
SpawnBackend& ForkExecBackend();
SpawnBackend& VforkBackend();
SpawnBackend& PosixSpawnBackend();
SpawnBackend& CloneVmBackend();  // clone(CLONE_VM|CLONE_VFORK); vfork fallback off-Linux

}  // namespace forklift

#endif  // SRC_SPAWN_BACKEND_H_
