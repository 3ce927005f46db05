#include "src/spawn/process_handle.h"

#include <signal.h>
#include <sys/epoll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <functional>
#include <utility>

#include "src/common/clock.h"
#include "src/common/log.h"
#include "src/common/reactor.h"
#include "src/obs/trace.h"

namespace forklift {

namespace {

// The local mechanism: this process is the parent, so a wait is waitpid and
// a deadline wait parks a pidfd in a reactor.
// The handle caches the first reap, so each wait here runs at most once
// successfully.
class LocalProcessImpl final : public ProcessHandle::Impl {
 public:
  LocalProcessImpl(pid_t pid, SpawnTimeline timeline) : pid_(pid), timeline_(timeline) {}

  ~LocalProcessImpl() override {
    if (timeline_.exit_observed_ns == 0) {
      FORKLIFT_WARN("ProcessHandle for pid %d dropped without Wait(); process not reaped",
                    static_cast<int>(pid_));
    }
  }

  pid_t pid() const override { return pid_; }

  Result<ExitStatus> Wait() override {
    FORKLIFT_ASSIGN_OR_RETURN(ExitStatus st, WaitForExit(pid_));
    MarkReaped();
    return st;
  }

  Result<std::optional<ExitStatus>> TryWait() override {
    for (;;) {
      int status = 0;
      pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == 0) {
        return std::optional<ExitStatus>();
      }
      if (r == pid_) {
        MarkReaped();
        return std::optional<ExitStatus>(DecodeWaitStatus(status));
      }
      if (errno != EINTR) {
        return ErrnoError("waitpid(WNOHANG)");
      }
    }
  }

  Result<std::optional<ExitStatus>> WaitDeadline(double timeout_seconds) override {
    // Fast path: already exited.
    FORKLIFT_ASSIGN_OR_RETURN(std::optional<ExitStatus> st, TryWait());
    if (st.has_value()) {
      return st;
    }
    // Park in a reactor until the pidfd reports the exit or the deadline
    // timer fires — no sleep loop.
    FORKLIFT_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Create());
    bool exited = false;
    bool expired = false;
    FORKLIFT_ASSIGN_OR_RETURN(ChildWatch watch,
                              ChildWatch::Arm(reactor, pid_, [&exited] { exited = true; }));
    reactor.AddTimerAfter(timeout_seconds, [&expired] { expired = true; });
    while (!exited && !expired) {
      FORKLIFT_RETURN_IF_ERROR(reactor.PollOnce(-1));
    }
    if (!exited) {
      return std::optional<ExitStatus>();
    }
    return TryWait();
  }

  Status Kill(int sig) override {
    if (::kill(pid_, sig) < 0) {
      return ErrnoError("kill");
    }
    return Status::Ok();
  }

 private:
  // Stamps exit-observed and feeds SpawnMetrics; every local reap funnels
  // here.
  void MarkReaped() {
    timeline_.exit_observed_ns = MonotonicNanos();
    SpawnMetrics::Global().RecordExitObserved(timeline_);
  }

  pid_t pid_;
  SpawnTimeline timeline_;
};

// The reactor-multiplexed stdio pump behind Communicate: writes `input` to
// `stdin_fd` (then closes it), drains `stdout_fd`/`stderr_fd` to EOF, and
// keeps an exit watch on `pid` armed so `poll_exit` reaps the process the
// instant it becomes waitable — while streams are still draining, from the
// same epoll set. The final blocking reap, and so the Outcome's status, is
// the caller's job.
Result<ProcessHandle::Outcome> DrainStdioUntilClosed(UniqueFd& stdin_fd, UniqueFd& stdout_fd,
                                                     UniqueFd& stderr_fd, std::string_view input,
                                                     pid_t pid,
                                                     const std::function<void()>& poll_exit) {
  // Non-blocking everywhere so a child that stalls on one stream can't wedge
  // us on another; one reactor multiplexes all three streams plus the child's
  // exit, so output and the exit notification arrive from a single wait.
  struct Stream {
    UniqueFd* fd;
    std::string data;
    bool open;
  };
  Stream out{&stdout_fd, {}, stdout_fd.valid()};
  Stream err{&stderr_fd, {}, stderr_fd.valid()};
  if (out.open) {
    FORKLIFT_RETURN_IF_ERROR(SetNonBlocking(out.fd->get(), true));
  }
  if (err.open) {
    FORKLIFT_RETURN_IF_ERROR(SetNonBlocking(err.fd->get(), true));
  }

  size_t in_off = 0;
  bool in_open = stdin_fd.valid();
  if (!in_open && !input.empty()) {
    return LogicalError("Communicate: input given but stdin was not piped");
  }
  if (in_open && input.empty()) {
    stdin_fd.Reset();  // nothing to write: give the child EOF immediately
    in_open = false;
  }
  if (in_open) {
    FORKLIFT_RETURN_IF_ERROR(SetNonBlocking(stdin_fd.get(), true));
  }

  FORKLIFT_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Create());
  Status stream_error;

  auto close_stdin = [&] {
    (void)reactor.RemoveFd(stdin_fd.get());
    stdin_fd.Reset();
    in_open = false;
  };

  if (in_open) {
    FORKLIFT_RETURN_IF_ERROR(reactor.AddFd(stdin_fd.get(), EPOLLOUT, [&](uint32_t revents) {
      if ((revents & (EPOLLERR | EPOLLHUP)) != 0 && (revents & EPOLLOUT) == 0) {
        // Child closed its stdin (EPIPE side); stop writing.
        close_stdin();
        return;
      }
      ssize_t w = ::write(stdin_fd.get(), input.data() + in_off, input.size() - in_off);
      if (w < 0) {
        if (errno == EPIPE) {
          close_stdin();
        } else if (errno != EINTR && errno != EAGAIN) {
          stream_error = ErrnoError("write to child stdin");
        }
        return;
      }
      in_off += static_cast<size_t>(w);
      if (in_off == input.size()) {
        close_stdin();  // EOF to the child
      }
    }));
  }

  auto drain = [&](Stream& s) {
    char buf[16384];
    for (;;) {
      ssize_t r = ::read(s.fd->get(), buf, sizeof(buf));
      if (r > 0) {
        s.data.append(buf, static_cast<size_t>(r));
        if (static_cast<size_t>(r) < sizeof(buf)) {
          return;
        }
        continue;
      }
      if (r == 0) {
        (void)reactor.RemoveFd(s.fd->get());
        s.fd->Reset();
        s.open = false;
        return;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      if (errno != EINTR) {
        stream_error = ErrnoError("read from child");
        return;
      }
    }
  };
  if (out.open) {
    FORKLIFT_RETURN_IF_ERROR(
        reactor.AddFd(out.fd->get(), EPOLLIN, [&](uint32_t) { drain(out); }));
  }
  if (err.open) {
    FORKLIFT_RETURN_IF_ERROR(
        reactor.AddFd(err.fd->get(), EPOLLIN, [&](uint32_t) { drain(err); }));
  }

  // Exit detection shares the epoll set: the instant the child becomes
  // waitable it is reaped (stamping exit-observed), even while streams are
  // still draining.
  FORKLIFT_ASSIGN_OR_RETURN(ChildWatch watch, ChildWatch::Arm(reactor, pid, poll_exit));

  while (in_open || out.open || err.open) {
    FORKLIFT_RETURN_IF_ERROR(reactor.PollOnce(-1));
    if (!stream_error.ok()) {
      return Err(stream_error.error());
    }
  }
  watch.Disarm();

  ProcessHandle::Outcome drained;
  drained.stdout_data = std::move(out.data);
  drained.stderr_data = std::move(err.data);
  return drained;
}

}  // namespace

ProcessHandle ProcessHandle::FromLocalSpawn(pid_t pid, SpawnTimeline timeline,
                                            std::string route) {
  ProcessHandle handle;
  handle.impl_ = std::make_unique<LocalProcessImpl>(pid, timeline);
  handle.route_ = std::move(route);
  return handle;
}

ProcessHandle ProcessHandle::FromImpl(std::unique_ptr<Impl> impl, std::string route) {
  ProcessHandle handle;
  handle.impl_ = std::move(impl);
  handle.route_ = std::move(route);
  return handle;
}

void ProcessHandle::FillCache(ExitStatus st) {
  cached_ = st;
  // Tracer drops trace_id 0, so unrouted handles cost one branch here.
  obs::Tracer::Global().Event(trace_id_, "exit_observed", route_);
}

Result<ExitStatus> ProcessHandle::Wait() {
  if (cached_.has_value()) {
    return *cached_;
  }
  if (impl_ == nullptr) {
    return LogicalError("Wait on invalid ProcessHandle");
  }
  FORKLIFT_ASSIGN_OR_RETURN(ExitStatus st, impl_->Wait());
  FillCache(st);
  return st;
}

Result<std::optional<ExitStatus>> ProcessHandle::TryWait() {
  if (cached_.has_value()) {
    return std::optional<ExitStatus>(*cached_);
  }
  if (impl_ == nullptr) {
    return LogicalError("TryWait on invalid ProcessHandle");
  }
  FORKLIFT_ASSIGN_OR_RETURN(std::optional<ExitStatus> st, impl_->TryWait());
  if (st.has_value()) {
    FillCache(*st);
  }
  return st;
}

Result<std::optional<ExitStatus>> ProcessHandle::WaitDeadline(double timeout_seconds) {
  if (cached_.has_value()) {
    return std::optional<ExitStatus>(*cached_);
  }
  if (impl_ == nullptr) {
    return LogicalError("WaitDeadline on invalid ProcessHandle");
  }
  FORKLIFT_ASSIGN_OR_RETURN(std::optional<ExitStatus> st, impl_->WaitDeadline(timeout_seconds));
  if (st.has_value()) {
    FillCache(*st);
  }
  return st;
}

Status ProcessHandle::Kill(int sig) {
  if (impl_ == nullptr) {
    return LogicalError("Kill on invalid ProcessHandle");
  }
  if (cached_.has_value()) {
    return LogicalError("Kill on already-reaped ProcessHandle");
  }
  return impl_->Kill(sig);
}

Status ProcessHandle::KillAndWait() {
  if (cached_.has_value()) {
    return Status::Ok();
  }
  FORKLIFT_RETURN_IF_ERROR(Kill(SIGKILL));
  auto res = Wait();
  if (!res.ok()) {
    return Err(res.error());
  }
  return Status::Ok();
}

Result<ProcessHandle::Outcome> ProcessHandle::Communicate(std::string_view input) {
  if (impl_ == nullptr) {
    return LogicalError("Communicate on invalid ProcessHandle");
  }
  // The shared drain engine is mechanism-independent: the exit watch needs
  // only the pid (pidfd works for non-children too), and the reap routes
  // through TryWait/Wait — waitpid locally, the server protocol remotely.
  FORKLIFT_ASSIGN_OR_RETURN(Outcome oc,
                            DrainStdioUntilClosed(stdin_fd_, stdout_fd_, stderr_fd_, input,
                                                  impl_->pid(), [this] { (void)TryWait(); }));
  FORKLIFT_ASSIGN_OR_RETURN(oc.status, Wait());
  return oc;
}

}  // namespace forklift
