#include "src/spawn/daemonize.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdlib>

#include "src/common/pipe.h"
#include "src/common/syscall.h"

namespace forklift {

Status ReadyNotifier::NotifyReady() {
  if (!fd_.valid()) {
    return Status::Ok();  // already notified (or never armed)
  }
  char ok = 'R';
  FORKLIFT_RETURN_IF_ERROR(WriteFull(fd_.get(), &ok, 1));
  fd_.Reset();
  return Status::Ok();
}

Result<ReadyNotifier> Daemonize() {
  FORKLIFT_ASSIGN_OR_RETURN(Pipe ready, MakePipe());

  // No reap obligation: the original process _exits below and both children
  // re-parent to init, which collects them. forklint:ignore(R6)
  pid_t first = ::fork();
  if (first < 0) {
    return ErrnoError("fork (daemonize, first)");
  }
  if (first > 0) {
    // Original process: block until the (grand)child reports readiness.
    ready.write_end.Reset();
    char buf = 0;
    auto n = ReadFull(ready.read_end.get(), &buf, 1);
    _exit(n.ok() && *n == 1 && buf == 'R' ? 0 : 1);
  }

  // First child: new session, then fork again so the daemon can never
  // reacquire a controlling terminal.
  ready.read_end.Reset();
  if (::setsid() < 0) {
    return ErrnoError("setsid (daemonize)");
  }
  pid_t second = ::fork();  // forklint:ignore(R6) — intermediate _exits, init reaps
  if (second < 0) {
    return ErrnoError("fork (daemonize, second)");
  }
  if (second > 0) {
    // Intermediate: vanish quietly, keeping the ready pipe OPEN in the
    // grandchild only (CLOEXEC fds survive fork; we just exit).
    _exit(0);
  }

  // The daemon.
  ::umask(027);
  if (::chdir("/") < 0) {
    return ErrnoError("chdir / (daemonize)");
  }
  // CLOEXEC on the source fd: the dup2'd stdio copies stay inheritable.
  FORKLIFT_ASSIGN_OR_RETURN(UniqueFd devnull, OpenFd("/dev/null", O_RDWR | O_CLOEXEC));
  FORKLIFT_RETURN_IF_ERROR(Dup2(devnull.get(), 0));
  FORKLIFT_RETURN_IF_ERROR(Dup2(devnull.get(), 1));
  FORKLIFT_RETURN_IF_ERROR(Dup2(devnull.get(), 2));
  return ReadyNotifier(std::move(ready.write_end));
}

}  // namespace forklift
