#include "src/forkserver/pool.h"

#include <sys/random.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <string_view>
#include <utility>

#include "src/common/syscall.h"
#include "src/spawn/spawner.h"

namespace forklift {

ShellWorkerPool::~ShellWorkerPool() {
  if (started_) {
    (void)Stop();
  }
}

Status ShellWorkerPool::Start(const Options& opts) {
  if (started_) {
    return LogicalError("ShellWorkerPool::Start called twice");
  }
  if (opts.workers == 0) {
    return LogicalError("ShellWorkerPool: need at least one worker");
  }
  if (::getrandom(&nonce_, sizeof(nonce_), 0) != static_cast<ssize_t>(sizeof(nonce_))) {
    return ErrnoError("getrandom (worker pool sentinel)");
  }
  if (!reactor_.has_value()) {
    FORKLIFT_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Create());
    reactor_.emplace(std::move(reactor));
  }
  Spawner worker_template = Spawner("/bin/sh")
                                .Arg("-s")
                                .SetStdin(Stdio::Pipe())
                                .SetStdout(Stdio::Pipe())
                                .SetStderr(Stdio::Null());
  for (size_t i = 0; i < opts.workers; ++i) {
    auto child = worker_template.Spawn();
    if (!child.ok()) {
      (void)Stop();
      return Err(child.error());
    }
    Worker w;
    w.child = std::move(child).value();
    workers_.push_back(std::move(w));
  }
  // Arm the watches only once workers_ has its final size: the callbacks
  // index into the vector, so no reallocation may follow. A worker that
  // cannot be watched fails the start: its death would go unnoticed.
  for (size_t i = 0; i < workers_.size(); ++i) {
    auto watch = ChildWatch::Arm(*reactor_, workers_[i].child.pid(), [this, i] {
      workers_[i].healthy = false;
      (void)workers_[i].child.TryWait();
    });
    if (!watch.ok()) {
      (void)Stop();
      return Err(watch.error());
    }
    workers_[i].watch = std::move(*watch);
  }
  started_ = true;
  return Status::Ok();
}

Result<ShellWorkerPool::TaskResult> ShellWorkerPool::ExecuteOn(Worker& w,
                                                               const std::string& command) {
  // Refuse to write into a dead worker (avoids an EPIPE — or, if the caller
  // has not ignored SIGPIPE, a fatal signal — for the common crash case; a
  // worker dying mid-write is still reported as an error by WriteFull, so
  // callers should ignore SIGPIPE process-wide as with any pipe-heavy
  // library).
  auto exited = w.child.TryWait();
  if (!exited.ok()) {
    return Err(exited.error());
  }
  if (exited->has_value()) {
    w.healthy = false;
    return LogicalError("worker exited before task dispatch");
  }

  // The worker ends its reply with one line of its own: a newline (so the
  // line starts fresh even when the task's output did not end in one), then
  // the sentinel and the task's exit code. The sentinel carries the pool's
  // random nonce, so no task output can forge it, and it is honoured only as
  // the final complete line of what the worker has written.
  char sentinel_buf[64];
  std::snprintf(sentinel_buf, sizeof(sentinel_buf), "__FORKLIFT_DONE_%016" PRIx64 "_%" PRIu64 "_",
                nonce_, ++task_seq_);
  const std::string_view sentinel(sentinel_buf);
  // The task runs in a subshell so `exit`, cd, and variable changes cannot
  // alter (or kill) the persistent worker.
  std::string script = "(\n" + command + "\n)\nprintf '\\n%s%d\\n' '" +
                       std::string(sentinel) + "' \"$?\"\n";
  FORKLIFT_RETURN_IF_ERROR(
      WriteFull(w.child.stdin_fd().get(), script.data(), script.size()));

  std::string acc;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(w.child.stdout_fd().get(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      w.healthy = false;
      return ErrnoError("worker stdout read");
    }
    if (n == 0) {
      w.healthy = false;
      return LogicalError("worker exited mid-task");
    }
    acc.append(buf, static_cast<size_t>(n));
    // The sentinel line is complete only once the output ends in '\n', and
    // it must be preceded by the newline the worker printed before it.
    if (acc.size() < 2 || acc.back() != '\n') {
      continue;
    }
    size_t before = acc.rfind('\n', acc.size() - 2);
    if (before == std::string::npos) {
      continue;
    }
    std::string_view last(acc.data() + before + 1, acc.size() - before - 2);
    if (last.substr(0, sentinel.size()) != sentinel) {
      continue;
    }
    std::string_view code = last.substr(sentinel.size());
    TaskResult result;
    auto [end, ec] = std::from_chars(code.data(), code.data() + code.size(), result.exit_code);
    if (ec != std::errc() || end != code.data() + code.size()) {
      w.healthy = false;
      return LogicalError("worker reply has a malformed exit code: '" + std::string(code) + "'");
    }
    result.output = acc.substr(0, before);
    ++tasks_executed_;
    return result;
  }
}

Result<ShellWorkerPool::TaskResult> ShellWorkerPool::Execute(const std::string& command) {
  if (!started_) {
    return LogicalError("ShellWorkerPool: not started");
  }
  // Drain pending exit notifications (pidfd events) so workers that died
  // since the last call are already unhealthy when the round-robin runs.
  if (reactor_.has_value()) {
    (void)reactor_->PollOnce(0);
  }
  for (size_t attempts = 0; attempts < workers_.size(); ++attempts) {
    Worker& w = workers_[next_];
    next_ = (next_ + 1) % workers_.size();
    if (!w.healthy) {
      continue;
    }
    return ExecuteOn(w, command);
  }
  return LogicalError("ShellWorkerPool: no healthy workers");
}

Status ShellWorkerPool::Stop() {
  Status first_error;
  for (auto& w : workers_) {
    if (!w.child.valid()) {
      continue;
    }
    w.watch.Disarm();            // we reap explicitly below
    w.child.stdin_fd().Reset();  // EOF: sh -s exits
    auto st = w.child.WaitDeadline(5.0);
    if (!st.ok() || !st->has_value()) {
      (void)w.child.KillAndWait();
      if (first_error.ok() && !st.ok()) {
        first_error = Err(st.error());
      }
    }
  }
  workers_.clear();
  started_ = false;
  return first_error;
}

}  // namespace forklift
