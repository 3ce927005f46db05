// forklift/spawn: ProcessHandle — the one owning handle for a spawned process.
//
// The paper's complaint is not only that fork is the wrong creation API; it
// is that every creation mechanism grows its own handle type, and callers
// hardwire one. ProcessHandle erases the mechanism: whether the child came
// from a local backend (fork+exec, vfork, posix_spawn, clone) or from a fork
// server across a socket, the caller holds the same value type with the same
// contract — pid, blocking/deadline/non-blocking wait, kill, stdio pipe ends,
// Communicate. Mechanism-specific behavior lives behind the small Impl
// vtable: locally a wait is waitpid (reactor/pidfd for deadlines), remotely
// it is a pipelined request-id completion on the server channel.
//
// Wait() is idempotent at this layer: the first reap (from any of Wait,
// TryWait, WaitDeadline, KillAndWait, Communicate) caches the ExitStatus on
// the handle, and every later wait returns the cache instead of ECHILD or a
// protocol error — the same guarantee on both the local and remote paths.
#ifndef SRC_SPAWN_PROCESS_HANDLE_H_
#define SRC_SPAWN_PROCESS_HANDLE_H_

#include <sys/types.h>

#include <csignal>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/spawn/metrics.h"

namespace forklift {

class ProcessHandle {
 public:
  // The mechanism behind a handle. Implementations are single-owner (the
  // handle) and need not be thread-safe; idempotent-wait caching is the
  // handle's job, so a second wait never reaches a spent Impl.
  class Impl {
   public:
    virtual ~Impl() = default;
    virtual pid_t pid() const = 0;
    virtual Result<ExitStatus> Wait() = 0;
    virtual Result<std::optional<ExitStatus>> TryWait() = 0;
    virtual Result<std::optional<ExitStatus>> WaitDeadline(double timeout_seconds) = 0;
    virtual Status Kill(int sig) = 0;
  };

  ProcessHandle() = default;
  ~ProcessHandle() = default;
  ProcessHandle(const ProcessHandle&) = delete;
  ProcessHandle& operator=(const ProcessHandle&) = delete;
  ProcessHandle(ProcessHandle&&) noexcept = default;
  ProcessHandle& operator=(ProcessHandle&&) noexcept = default;

  // Adopts a child this process just launched (Spawner::Spawn). Waits are
  // waitpid, deadline waits park on a pidfd (and fail with pidfd_open's
  // error where a policy denies it), and the first reap stamps `timeline`'s
  // exit-observed phase into SpawnMetrics. Dropping the handle unreaped logs
  // a warning and leaves the zombie: a dropped handle must not turn into a
  // silent SIGKILL. `route` names the local engine (LocalRouteName).
  static ProcessHandle FromLocalSpawn(pid_t pid, SpawnTimeline timeline, std::string route);

  // Wraps any mechanism. `route` names the transport that produced the
  // process (e.g. "local:posix_spawn", "forkserver", "sharded") — it is
  // diagnostic, surfaced by route().
  static ProcessHandle FromImpl(std::unique_ptr<Impl> impl, std::string route);

  pid_t pid() const { return impl_ == nullptr ? -1 : impl_->pid(); }
  bool valid() const { return impl_ != nullptr && impl_->pid() > 0; }
  // Which transport produced this process ("" for a default-constructed
  // handle).
  const std::string& route() const { return route_; }

  // The request/trace id the spawn ran under (0 when not routed through
  // SpawnService). Keys this process's spans in obs::Tracer; on the wire
  // routes it equals the protocol-v2 request_id.
  uint64_t trace_id() const { return trace_id_; }
  void set_trace_id(uint64_t id) { trace_id_ = id; }

  // Blocks until the child exits. Idempotent: later calls return the cached
  // status.
  Result<ExitStatus> Wait();

  // Non-blocking: nullopt while still running.
  Result<std::optional<ExitStatus>> TryWait();

  // Blocks until exit or deadline; nullopt on timeout (the process keeps
  // running, and the wait — including an in-flight remote wait request —
  // remains collectable by a later Wait/TryWait/WaitDeadline).
  Result<std::optional<ExitStatus>> WaitDeadline(double timeout_seconds);

  // kill(2)-equivalent (remote pids are in our namespace even though
  // parentage is not).
  Status Kill(int sig = SIGTERM);

  // SIGKILL then reap; Ok if already reaped.
  Status KillAndWait();

  // Pipe ends owned by this handle when the spawn configured Stdio::kPipe.
  // stdin_fd is the write end; stdout/stderr are read ends. Remote transports
  // cannot ship pipe stdio, so these are only populated on local routes.
  UniqueFd& stdin_fd() { return stdin_fd_; }
  UniqueFd& stdout_fd() { return stdout_fd_; }
  UniqueFd& stderr_fd() { return stderr_fd_; }

  // Writes `input` to the child's stdin (then closes it), drains stdout and
  // stderr concurrently, and reaps the child. Stdio draining and exit
  // detection share one Reactor epoll set, so output and the exit
  // notification arrive from a single wait — deadlock-free even when the
  // child interleaves output on both streams.
  struct Outcome {
    ExitStatus status;
    std::string stdout_data;
    std::string stderr_data;
  };
  Result<Outcome> Communicate(std::string_view input = "");

 private:
  // First fill of the idempotent-wait cache: records the exit_observed trace
  // event exactly once, however the reap arrived.
  void FillCache(ExitStatus st);

  std::unique_ptr<Impl> impl_;
  std::string route_;
  uint64_t trace_id_ = 0;
  // The idempotent-wait cache: set by the first successful reap on any path.
  std::optional<ExitStatus> cached_;
  UniqueFd stdin_fd_;
  UniqueFd stdout_fd_;
  UniqueFd stderr_fd_;
};

}  // namespace forklift

#endif  // SRC_SPAWN_PROCESS_HANDLE_H_
