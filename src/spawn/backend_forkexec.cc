// The fork(2)+execve(2) backend — the primitive the paper indicts. Kept
// faithful (a full COW address-space clone per spawn) so experiments measure
// the real thing; the only deviation from naive fork+exec is the exec pipe for
// error reporting, which adds two descriptors and no memory work.
#include <unistd.h>

#include "src/spawn/backend.h"
#include "src/spawn/backend_common.h"

namespace forklift {

namespace {

pid_t StartFork(const internal::ChildExecArgs& args) {
  pid_t pid = ::fork();
  if (pid == 0) {
    // Child. Only async-signal-safe work from here to exec.
    internal::ChildExec(args);
  }
  return pid;
}

class ForkExecEngine : public SpawnBackend {
 public:
  Result<pid_t> Launch(const SpawnRequest& req) override {
    return internal::LaunchForked(req, "fork", StartFork);
  }

  const char* Name() const override { return "fork+exec"; }
};

}  // namespace

SpawnBackend& ForkExecBackend() {
  static ForkExecEngine engine;
  return engine;
}

const char* SpawnBackendKindName(SpawnBackendKind kind) {
  switch (kind) {
    case SpawnBackendKind::kForkExec:
      return "fork+exec";
    case SpawnBackendKind::kVfork:
      return "vfork+exec";
    case SpawnBackendKind::kPosixSpawn:
      return "posix_spawn";
    case SpawnBackendKind::kCloneVm:
      return "clone_vm";
  }
  return "?";
}

const char* LocalRouteName(SpawnBackendKind kind) {
  switch (kind) {
    case SpawnBackendKind::kForkExec:
      return "local:forkexec";
    case SpawnBackendKind::kVfork:
      return "local:vfork";
    case SpawnBackendKind::kPosixSpawn:
      return "local:posix_spawn";
    case SpawnBackendKind::kCloneVm:
      return "local:clone_vm";
  }
  return "local:?";
}

}  // namespace forklift
