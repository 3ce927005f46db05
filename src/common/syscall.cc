#include "src/common/syscall.h"

#include <fcntl.h>
#include <limits.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

#include <cerrno>
#include <cstring>

#include "src/faultinject/faultinject.h"

namespace forklift {

Status WaitFdReadable(int fd) {
  struct pollfd pfd = {fd, POLLIN, 0};
  for (;;) {
    int r = ::poll(&pfd, 1, -1);
    if (r >= 0) {
      return Status::Ok();
    }
    if (errno != EINTR) {
      return ErrnoError("poll(POLLIN)");
    }
  }
}

Status WaitFdWritable(int fd) {
  struct pollfd pfd = {fd, POLLOUT, 0};
  for (;;) {
    int r = ::poll(&pfd, 1, -1);
    if (r >= 0) {
      return Status::Ok();
    }
    if (errno != EINTR) {
      return ErrnoError("poll(POLLOUT)");
    }
  }
}

Result<UniqueFd> OpenFd(const std::string& path, int flags, mode_t mode) {
  for (;;) {
    int fd;
    auto inj = fault::Check("syscall.open", fault::Op::kOpen);
    if (inj.is_errno()) {
      fd = -1;
      errno = inj.err;
    } else {
      fd = ::open(path.c_str(), flags, mode);
    }
    if (fd >= 0) {
      return UniqueFd(fd);
    }
    if (errno != EINTR) {
      return ErrnoError("open " + path);
    }
  }
}

Result<size_t> ReadFull(int fd, void* buf, size_t len) {
  size_t done = 0;
  auto* p = static_cast<char*>(buf);
  while (done < len) {
    ssize_t n;
    auto inj = fault::Check("syscall.read_full", fault::Op::kRead);
    if (inj.is_errno()) {
      n = -1;
      errno = inj.err;
    } else {
      size_t want = len - done;
      if (inj.is_short() && want > 1) want = 1;
      n = ::read(fd, p + done, want);
    }
    if (n == 0) {
      break;  // EOF
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with no data yet. This is not EOF and not an
        // error: wait for readability, keeping the `done` bytes already
        // banked, then resume.
        FORKLIFT_RETURN_IF_ERROR(WaitFdReadable(fd));
        continue;
      }
      return ErrnoError("read");
    }
    done += static_cast<size_t>(n);
  }
  return done;
}

Status WriteFull(int fd, const void* buf, size_t len) {
  size_t done = 0;
  const auto* p = static_cast<const char*>(buf);
  while (done < len) {
    ssize_t n;
    auto inj = fault::Check("syscall.write_full", fault::Op::kWrite);
    if (inj.is_errno()) {
      n = -1;
      errno = inj.err;
    } else {
      size_t want = len - done;
      if (inj.is_short() && want > 1) want = 1;
      n = ::write(fd, p + done, want);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Non-blocking fd with a full buffer: wait for space and resume the
        // partial write instead of reporting a bogus failure.
        FORKLIFT_RETURN_IF_ERROR(WaitFdWritable(fd));
        continue;
      }
      return ErrnoError("write");
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Result<std::string> ReadAll(int fd, size_t max_bytes) {
  std::string out;
  char buf[16384];
  for (;;) {
    ssize_t n;
    auto inj = fault::Check("syscall.read_all", fault::Op::kRead);
    if (inj.is_errno()) {
      n = -1;
      errno = inj.err;
    } else {
      size_t want = sizeof(buf);
      if (inj.is_short()) want = 1;
      n = ::read(fd, buf, want);
    }
    if (n == 0) {
      return out;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        FORKLIFT_RETURN_IF_ERROR(WaitFdReadable(fd));
        continue;
      }
      return ErrnoError("read");
    }
    if (out.size() + static_cast<size_t>(n) > max_bytes) {
      // The error must say how much real data is being thrown away — a bare
      // "cap exceeded" silently discards everything read so far.
      return LogicalError("ReadAll: output exceeds max_bytes cap (" +
                          std::to_string(out.size() + static_cast<size_t>(n)) +
                          "+ bytes read, cap " + std::to_string(max_bytes) +
                          "; all read bytes discarded)");
    }
    out.append(buf, static_cast<size_t>(n));
  }
}

Result<uint64_t> WritevFull(int fd, struct iovec* iov, size_t iovcnt) {
  uint64_t syscalls = 0;
  size_t idx = 0;
  // Gathered writes to a socket must go through sendmsg(MSG_NOSIGNAL): a peer
  // that died mid-flush turns plain writev into fatal SIGPIPE, not EPIPE.
  // ENOTSOCK on the first attempt downgrades to writev for pipes and files.
  bool plain_writev = false;
  while (idx < iovcnt) {
    // Skip exhausted (or empty) entries so the active window always starts at
    // a non-empty iovec — a short write must resume at the interrupted byte.
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    size_t window = std::min(iovcnt - idx, static_cast<size_t>(IOV_MAX));
    ssize_t n;
    auto inj = fault::Check("syscall.writev_full", fault::Op::kWrite);
    if (inj.is_errno()) {
      n = -1;
      errno = inj.err;
    } else if (inj.is_short()) {
      // A short kernel write delivers a prefix; emulate the worst case — one
      // byte of the first pending iovec — and let the resume logic take over.
      n = plain_writev ? ::write(fd, iov[idx].iov_base, 1)
                       : ::send(fd, iov[idx].iov_base, 1, MSG_NOSIGNAL);
      if (n < 0 && errno == ENOTSOCK) {
        plain_writev = true;
        n = ::write(fd, iov[idx].iov_base, 1);
      }
      if (n > 0) ++syscalls;
    } else {
      if (!plain_writev) {
        struct msghdr msg;
        std::memset(&msg, 0, sizeof(msg));
        msg.msg_iov = iov + idx;
        msg.msg_iovlen = window;
        n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK) {
          plain_writev = true;
        }
      }
      if (plain_writev) {
        n = ::writev(fd, iov + idx, static_cast<int>(window));
      }
      if (n > 0) ++syscalls;
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        FORKLIFT_RETURN_IF_ERROR(WaitFdWritable(fd));
        continue;
      }
      return ErrnoError("writev");
    }
    size_t done = static_cast<size_t>(n);
    while (done > 0 && idx < iovcnt) {
      if (done >= iov[idx].iov_len) {
        done -= iov[idx].iov_len;
        iov[idx].iov_len = 0;
        ++idx;
      } else {
        iov[idx].iov_base = static_cast<char*>(iov[idx].iov_base) + done;
        iov[idx].iov_len -= done;
        done = 0;
      }
    }
  }
  return syscalls;
}

Result<int> WaitPid(pid_t pid, int options) {
  for (;;) {
    int status = 0;
    pid_t r;
    auto inj = fault::Check("syscall.waitpid", fault::Op::kWait);
    if (inj.is_errno()) {
      r = -1;
      errno = inj.err;
    } else {
      r = ::waitpid(pid, &status, options);
    }
    if (r >= 0) {
      // r == 0 only with WNOHANG and no state change; report status 0 — callers
      // using WNOHANG should use ProcessHandle::TryWait which interprets this.
      return status;
    }
    if (errno != EINTR) {
      return ErrnoError("waitpid");
    }
  }
}

std::string ExitStatus::ToString() const {
  if (exited) {
    return "exit(" + std::to_string(exit_code) + ")";
  }
  if (signaled) {
    return "signal(" + std::to_string(term_signal) + ")";
  }
  return "unknown";
}

ExitStatus DecodeWaitStatus(int raw_status) {
  ExitStatus s;
  if (WIFEXITED(raw_status)) {
    s.exited = true;
    s.exit_code = WEXITSTATUS(raw_status);
  } else if (WIFSIGNALED(raw_status)) {
    s.signaled = true;
    s.term_signal = WTERMSIG(raw_status);
  }
  return s;
}

Result<ExitStatus> WaitForExit(pid_t pid) {
  FORKLIFT_ASSIGN_OR_RETURN(int raw, WaitPid(pid));
  return DecodeWaitStatus(raw);
}

Status SetCloexec(int fd, bool enabled) {
  auto inj = fault::Check("syscall.set_cloexec", fault::Op::kFcntl);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("fcntl(F_GETFD)");
  }
  int flags = ::fcntl(fd, F_GETFD);
  if (flags < 0) {
    return ErrnoError("fcntl(F_GETFD)");
  }
  int want = enabled ? (flags | FD_CLOEXEC) : (flags & ~FD_CLOEXEC);
  if (want != flags && ::fcntl(fd, F_SETFD, want) < 0) {
    return ErrnoError("fcntl(F_SETFD)");
  }
  return Status::Ok();
}

Result<bool> GetCloexec(int fd) {
  int flags = ::fcntl(fd, F_GETFD);
  if (flags < 0) {
    return ErrnoError("fcntl(F_GETFD)");
  }
  return (flags & FD_CLOEXEC) != 0;
}

Status SetNonBlocking(int fd, bool enabled) {
  auto inj = fault::Check("syscall.set_nonblocking", fault::Op::kFcntl);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("fcntl(F_GETFL)");
  }
  int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0) {
    return ErrnoError("fcntl(F_GETFL)");
  }
  int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return ErrnoError("fcntl(F_SETFL)");
  }
  return Status::Ok();
}

Status Dup2(int oldfd, int newfd) {
  for (;;) {
    int r;
    auto inj = fault::Check("syscall.dup2", fault::Op::kDup);
    if (inj.is_errno()) {
      r = -1;
      errno = inj.err;
    } else {
      r = ::dup2(oldfd, newfd);
    }
    if (r >= 0) {
      return Status::Ok();
    }
    if (errno != EINTR && errno != EBUSY) {
      return ErrnoError("dup2");
    }
  }
}

}  // namespace forklift
