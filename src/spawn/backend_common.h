// forklift/spawn: shared machinery for the fork- and vfork-based backends.
//
// The child side between fork()/vfork() and execve() may only use
// async-signal-safe primitives (the paper's thread-safety complaint §4: any
// other library code may observe a snapshot of locks held by threads that do
// not exist in the child). ChildExec therefore performs raw syscalls on
// pre-resolved, stable-storage inputs and reports failure through the classic
// CLOEXEC "exec pipe": if exec succeeds the pipe closes silently; if any stage
// fails the child writes {errno, stage-tag} and _exit(127)s, and the parent
// converts that to a clean Result error with the failing stage named.
//
// LaunchForked is the parent half every fork-family engine shares; an engine
// supplies only the call that creates the child.
#ifndef SRC_SPAWN_BACKEND_COMMON_H_
#define SRC_SPAWN_BACKEND_COMMON_H_

#include <signal.h>
#include <sys/types.h>

#include "src/common/result.h"
#include "src/spawn/backend.h"

namespace forklift {
namespace internal {

// Everything a child needs, resolved by the parent before the child exists.
struct ChildExecArgs {
  const SpawnRequest* req = nullptr;
  const char* const* exec_paths = nullptr;  // NULL-terminated, in try-order
  int err_fd = -1;                          // write end of the exec pipe
  sigset_t caller_mask;  // the spawning thread's mask before LaunchForked blocked all
};

// Child-side: applies the request, then execve()s each exec path until one
// sticks. On any failure, reports through the exec pipe and _exit(127)s.
// Never returns. Async-signal-safe.
//
// The child starts with every signal blocked (LaunchForked's doing). It
// resets every caught handler to SIG_DFL — every handler at all when the
// request resets signals — and only then restores the caller's mask (or
// empties it), right before exec, as glibc's posix_spawn does: a child that
// shares the parent's memory must never run one of the parent's handlers.
// The exec pipe is first moved above every descriptor the fd plan writes.
//
// Not address-sanitized: under the clone engine it runs on a heap stack
// ASan does not know, sharing the parent thread's sanitizer state, and every
// noreturn call there would make ASan warn of false positives.
[[noreturn, gnu::no_sanitize("address")]] void ChildExec(const ChildExecArgs& args);

// Creates one child that runs ChildExec(args) and returns its pid, or -1
// with errno set.
using StartChildFn = pid_t (*)(const ChildExecArgs& args);

// Parent-side launch shared by the fork-family engines: resolves the exec
// targets, opens the exec pipe, calls `start` with every signal blocked, and
// waits for the pipe to close (exec succeeded) or to deliver the child's
// failure (the dead child is reaped before the error returns). `what` names
// the creation primitive in errors.
Result<pid_t> LaunchForked(const SpawnRequest& req, const char* what, StartChildFn start);

}  // namespace internal
}  // namespace forklift

#endif  // SRC_SPAWN_BACKEND_COMMON_H_
