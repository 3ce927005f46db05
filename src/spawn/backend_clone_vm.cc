// The clone(2) CLONE_VM|CLONE_VFORK backend — fork's flag-proliferation
// endpoint (§5 of the paper: "fork now takes a growing matrix of flags"),
// and also the engine glibc's own posix_spawn uses internally: CLONE_VM
// shares the address space (vfork-speed creation, nothing copied), a
// caller-provided stack removes vfork's stack-aliasing fragility, and
// CLONE_VFORK suspends the parent until exec so the shared memory is
// race-free. It is also the fork server's launch engine: a zygote's spawn
// then costs the same whatever the zygote's size. Signal-handler reset is
// done by ChildExec as with the other fork-family engines
// (CLONE_CLEAR_SIGHAND needs clone3, whose raw syscall cannot be used safely
// through libc's syscall() wrapper — the child would resume on an empty stack
// inside a C frame; the clone() wrapper does the necessary assembly for us).
#include <sched.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <memory>

#include "src/faultinject/faultinject.h"
#include "src/spawn/backend.h"
#include "src/spawn/backend_common.h"

// ThreadSanitizer's clone interceptor treats every clone as a fork: it runs
// fork's child-side bookkeeping inside the CLONE_VM child, in memory the
// parent shares, and corrupts the parent's race-detector state. Under it this
// engine is vfork, which TSan turns into a real fork.
#if defined(__linux__) && !defined(__SANITIZE_THREAD__)
#define FORKLIFT_CLONE_VM 1
#else
#define FORKLIFT_CLONE_VM 0
#endif

namespace forklift {

namespace {

#if FORKLIFT_CLONE_VM

// A modest dedicated stack: ChildExec's frames are shallow and the exec
// replaces everything. 128 KiB leaves slack for libc path buffers.
constexpr size_t kStackBytes = 128 * 1024;

// Entry point on the dedicated child stack. Shares the parent's address
// space (CLONE_VM) but not its stack; the parent is suspended (CLONE_VFORK)
// until exec or _exit, so reads of the arguments are race-free. Not
// address-sanitized, like ChildExec.
[[gnu::no_sanitize("address")]] int CloneChildMain(void* raw) {
  internal::ChildExec(*static_cast<const internal::ChildExecArgs*>(raw));
}

pid_t StartCloneVm(const internal::ChildExecArgs& args) {
  auto inj = fault::Check("spawn.clone_vm", fault::Op::kCreateProcess);
  if (inj.is_errno()) {
    errno = inj.err;
    return -1;
  }
  // Not value-initialised: the child touches only the top few pages, and
  // zeroing all 32 would fault them in and keep them resident in the heap.
  auto stack = std::make_unique_for_overwrite<char[]>(kStackBytes);
  // Stacks grow down on every architecture we target: pass the top.
  return ::clone(CloneChildMain, stack.get() + kStackBytes, CLONE_VM | CLONE_VFORK | SIGCHLD,
                 const_cast<internal::ChildExecArgs*>(&args));
}

class CloneVmEngine : public SpawnBackend {
 public:
  Result<pid_t> Launch(const SpawnRequest& req) override {
    return internal::LaunchForked(req, "clone(CLONE_VM|CLONE_VFORK)", StartCloneVm);
  }

  const char* Name() const override { return "clone(CLONE_VM|CLONE_VFORK)"; }
};

#endif  // FORKLIFT_CLONE_VM

}  // namespace

SpawnBackend& CloneVmBackend() {
#if FORKLIFT_CLONE_VM
  static CloneVmEngine engine;
  return engine;
#else
  return VforkBackend();  // closest semantics (off Linux, or under TSan)
#endif
}

}  // namespace forklift
