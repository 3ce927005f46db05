#include "src/forkserver/fd_transfer.h"

#include <limits.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/obs/registry.h"

namespace forklift {

namespace {

// Wire syscall accounting. One counter per op so the bench can compute
// write-side syscalls per spawn; handles resolve once and the arena is shared
// across forked shards, so client- and server-side calls land in the same
// slots.
obs::Counter& WritevOps() {
  static obs::Counter c = obs::MetricsRegistry::Global().GetCounter(
      "forklift_wire_syscalls_total{op=\"writev\"}");
  return c;
}
obs::Counter& SendmsgOps() {
  static obs::Counter c = obs::MetricsRegistry::Global().GetCounter(
      "forklift_wire_syscalls_total{op=\"sendmsg\"}");
  return c;
}
obs::Counter& RecvmsgOps() {
  static obs::Counter c = obs::MetricsRegistry::Global().GetCounter(
      "forklift_wire_syscalls_total{op=\"recvmsg\"}");
  return c;
}

}  // namespace

Result<uint64_t> SendGathered(int sock, struct iovec* iov, size_t iovcnt,
                              const std::vector<int>& fds) {
  if (fds.size() > kMaxFdsPerFrame) {
    return LogicalError("SendGathered: too many fds (" + std::to_string(fds.size()) + ")");
  }
  size_t total = 0;
  for (size_t i = 0; i < iovcnt; ++i) total += iov[i].iov_len;
  if (total == 0) {
    if (!fds.empty()) {
      return LogicalError("SendGathered: fds require at least one byte");
    }
    return static_cast<uint64_t>(0);
  }

  if (fds.empty()) {
    auto r = WritevFull(sock, iov, iovcnt);
    if (!r.ok()) {
      return Err(r.error());
    }
    WritevOps().Increment(*r);
    return *r;
  }

  // Descriptor-carrying run: sendmsg so the ancillary data attaches to the
  // first bytes that make it out (which, because the caller puts the carrying
  // frame first, are that frame's own first bytes).
  uint64_t syscalls = 0;
  size_t idx = 0;
  bool fds_pending = true;
  while (idx < iovcnt) {
    if (iov[idx].iov_len == 0) {
      ++idx;
      continue;
    }
    auto inj = fault::Check("wire.sendmsg_fds", fault::Op::kSendmsg);

    msghdr msg{};
    iovec short_iov{};
    if (inj.is_short()) {
      // Worst case: one byte goes out — the fds still ride it.
      short_iov.iov_base = iov[idx].iov_base;
      short_iov.iov_len = 1;
      msg.msg_iov = &short_iov;
      msg.msg_iovlen = 1;
    } else {
      msg.msg_iov = iov + idx;
      msg.msg_iovlen = static_cast<size_t>(
          std::min(iovcnt - idx, static_cast<size_t>(IOV_MAX)));
    }

    alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int) * kMaxFdsPerFrame)];
    if (fds_pending) {
      msg.msg_control = cbuf;
      msg.msg_controllen = CMSG_SPACE(sizeof(int) * fds.size());
      cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
      cmsg->cmsg_level = SOL_SOCKET;
      cmsg->cmsg_type = SCM_RIGHTS;
      cmsg->cmsg_len = CMSG_LEN(sizeof(int) * fds.size());
      std::memcpy(CMSG_DATA(cmsg), fds.data(), sizeof(int) * fds.size());
    }

    ssize_t n;
    if (inj.is_errno()) {
      n = -1;
      errno = inj.err;
    } else {
      n = ::sendmsg(sock, &msg, MSG_NOSIGNAL);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        FORKLIFT_RETURN_IF_ERROR(WaitFdWritable(sock));
        continue;
      }
      return ErrnoError("sendmsg");
    }
    SendmsgOps().Increment();
    ++syscalls;
    fds_pending = false;
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

Status SendFrame(int sock, std::string_view payload, const std::vector<int>& fds) {
  if (payload.empty() && !fds.empty()) {
    return LogicalError("SendFrame: fds require a non-empty payload");
  }
  uint32_t len = static_cast<uint32_t>(payload.size());
  iovec iov[2];
  iov[0].iov_base = &len;
  iov[0].iov_len = sizeof(len);
  iov[1].iov_base = const_cast<char*>(payload.data());
  iov[1].iov_len = payload.size();
  auto sent = SendGathered(sock, iov, payload.empty() ? 1 : 2, fds);
  if (!sent.ok()) {
    return Err(sent.error());
  }
  return Status::Ok();
}

void FrameBuffer::Append(const char* data, size_t n, std::vector<UniqueFd> fds) {
  if (!fds.empty() && n > 0) {
    // Stamp the fds with the gulp's LAST byte, not its first. recvmsg merges
    // plain segments from the same sender into the gulp AHEAD of the
    // fd-carrying segment and stops right after it, so the gulp may begin
    // before the carrier frame — but its last byte always lies inside the
    // carrier (the fds are delivered by the gulp that reads the carrying
    // segment's first chunk, and nothing follows it in that gulp).
    uint64_t off = base_off_ + buf_.size() + n - 1;
    for (auto& fd : fds) {
      fds_.push_back(Arrival{off, std::move(fd)});
    }
  }
  buf_.append(data, n);
}

Result<bool> FrameBuffer::Next(Frame* out, size_t max_payload) {
  size_t avail = buf_.size() - pos_;
  if (avail < sizeof(uint32_t)) {
    CompactIfWorthwhile();
    return false;
  }
  uint32_t len = 0;
  std::memcpy(&len, buf_.data() + pos_, sizeof(len));
  if (len > max_payload) {
    return LogicalError("FrameBuffer: payload length " + std::to_string(len) +
                        " exceeds cap");
  }
  if (avail < sizeof(uint32_t) + len) {
    CompactIfWorthwhile();
    return false;
  }
  uint64_t frame_end = base_off_ + pos_ + sizeof(uint32_t) + len;
  out->payload.assign(buf_.data() + pos_ + sizeof(uint32_t), len);
  out->fds.clear();
  while (!fds_.empty() && fds_.front().off < frame_end) {
    out->fds.push_back(std::move(fds_.front().fd));
    fds_.pop_front();
  }
  if (out->fds.size() > kMaxFdsPerFrame) {
    return LogicalError("FrameBuffer: frame carries too many fds (" +
                        std::to_string(out->fds.size()) + ")");
  }
  pos_ += sizeof(uint32_t) + len;
  if (pos_ == buf_.size()) {
    base_off_ += pos_;
    buf_.clear();
    pos_ = 0;
  }
  return true;
}

void FrameBuffer::CompactIfWorthwhile() {
  // Drop the consumed prefix when it dominates the buffer, so a long-lived
  // channel doesn't accumulate dead bytes while partial frames trickle in.
  if (pos_ >= (64u << 10) && pos_ >= buf_.size() / 2) {
    base_off_ += pos_;
    buf_.erase(0, pos_);
    pos_ = 0;
  }
}

Result<DrainStatus> DrainSocketInto(int sock, FrameBuffer* fb, size_t max_bytes) {
  DrainStatus st;
  char buf[64 << 10];
  size_t want = std::min(max_bytes, sizeof(buf));
  if (want == 0) want = 1;
  std::vector<UniqueFd> fds;
  for (;;) {
    auto inj = fault::Check("wire.recvmsg_drain", fault::Op::kRecvmsg);

    msghdr msg{};
    iovec iov{};
    iov.iov_base = buf;
    iov.iov_len = inj.is_short() ? 1 : want;
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(cmsghdr) char cbuf[CMSG_SPACE(sizeof(int) * kMaxFdsPerFrame)];
    msg.msg_control = cbuf;
    msg.msg_controllen = sizeof(cbuf);

    ssize_t n;
    if (inj.is_errno()) {
      n = -1;
      errno = inj.err;
    } else {
      n = ::recvmsg(sock, &msg, MSG_CMSG_CLOEXEC);
    }
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        st.would_block = true;
        return st;
      }
      return ErrnoError("recvmsg");
    }
    RecvmsgOps().Increment();
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&msg, cmsg)) {
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS) {
        size_t nfds = (cmsg->cmsg_len - CMSG_LEN(0)) / sizeof(int);
        const int* cfds = reinterpret_cast<const int*>(CMSG_DATA(cmsg));
        for (size_t i = 0; i < nfds; ++i) {
          fds.emplace_back(cfds[i]);
        }
      }
    }
    if ((msg.msg_flags & MSG_CTRUNC) != 0) {
      return LogicalError("recvmsg: ancillary data truncated (too many fds?)");
    }
    if (n == 0) {
      st.eof = true;
      return st;
    }
    fb->Append(buf, static_cast<size_t>(n), std::move(fds));
    st.bytes = static_cast<size_t>(n);
    return st;
  }
}

Result<bool> RecvFrame(int sock, FrameBuffer* fb, Frame* out) {
  for (;;) {
    FORKLIFT_ASSIGN_OR_RETURN(bool has, fb->Next(out));
    if (has) {
      return true;
    }
    FORKLIFT_ASSIGN_OR_RETURN(DrainStatus drained, DrainSocketInto(sock, fb));
    if (drained.eof) {
      if (fb->buffered() != 0) {
        return LogicalError("RecvFrame: peer closed mid-frame");
      }
      return false;
    }
    if (drained.would_block) {
      // An O_NONBLOCK socket: park until readable rather than spinning.
      FORKLIFT_RETURN_IF_ERROR(WaitFdReadable(sock));
    }
  }
}

}  // namespace forklift
