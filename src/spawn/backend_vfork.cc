// The vfork(2)+execve(2) backend. vfork shares the parent's address space and
// suspends the parent until the child execs or exits, so process creation cost
// is independent of parent memory size (the paper's Figure 1 shows it flat
// where fork grows linearly). The price is the API's notorious fragility: the
// child runs on the parent's stack, so everything it touches must be dead by
// the time the parent resumes. LaunchForked resolves everything before the
// vfork and blocks every signal across it; the child only calls ChildExec,
// whose frames sit below the vfork frame and which terminates only via exec
// or _exit — the same discipline glibc's posix_spawn uses internally.
#include <unistd.h>

#include "src/spawn/backend.h"
#include "src/spawn/backend_common.h"

namespace forklift {

namespace {

// Compilers emit no sibling calls in a function that calls a returns_twice
// function like vfork, so the child enters ChildExec (another translation
// unit) by a real call, below this frame.
pid_t StartVfork(const internal::ChildExecArgs& args) {
  pid_t pid = ::vfork();
  if (pid == 0) {
    internal::ChildExec(args);
  }
  return pid;
}

class VforkEngine : public SpawnBackend {
 public:
  Result<pid_t> Launch(const SpawnRequest& req) override {
    return internal::LaunchForked(req, "vfork", StartVfork);
  }

  const char* Name() const override { return "vfork+exec"; }
};

}  // namespace

SpawnBackend& VforkBackend() {
  static VforkEngine engine;
  return engine;
}

}  // namespace forklift
