// forklift/spawn: classic daemonization, with a readiness handshake.
//
// The double-fork dance is fork's most ritualized use: fork, setsid (escape
// the controlling terminal), fork again (never reacquire one), detach stdio
// onto /dev/null, chdir("/") (never pin the launch directory's filesystem),
// umask 027. It is also where naive implementations race: the launcher exits
// before the daemon is actually serving. Daemonize() keeps a pipe between the
// generations — the original process does not exit until the daemon calls
// NotifyReady() (or dies), so "the command returned 0" means "the service is
// up", not "a fork happened".
//
// Call once, early, from a single-threaded process (the usual fork-vs-threads
// rules apply — ForkGuard::CheckNow can vouch). Returns ONLY in the daemon.
#ifndef SRC_SPAWN_DAEMONIZE_H_
#define SRC_SPAWN_DAEMONIZE_H_

#include "src/common/result.h"
#include "src/common/unique_fd.h"

namespace forklift {

// One-shot token the daemon uses to release its launcher.
class ReadyNotifier {
 public:
  ReadyNotifier() = default;
  explicit ReadyNotifier(UniqueFd fd) : fd_(std::move(fd)) {}

  // Unblocks the original process, which then exits 0. Idempotent.
  Status NotifyReady();

  // If the daemon dies (or drops the notifier) without notifying, the
  // launcher sees EOF and exits 1 — startup failure is visible at the shell.
  bool armed() const { return fd_.valid(); }

 private:
  UniqueFd fd_;
};

// Forks twice; the intermediate generations _exit. Returns, in the DAEMON
// ONLY, the notifier to call once initialization succeeds. The original
// caller never sees a return: it waits for readiness (exit 0) or EOF (exit 1).
Result<ReadyNotifier> Daemonize();

}  // namespace forklift

#endif  // SRC_SPAWN_DAEMONIZE_H_
