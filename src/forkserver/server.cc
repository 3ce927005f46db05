#include "src/forkserver/server.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/log.h"
#include "src/common/pipe.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/wire.h"
#include "src/obs/export.h"
#include "src/obs/registry.h"
#include "src/spawn/backend.h"

namespace forklift {

namespace {

// Received descriptors are renumbered here so they can never collide with the
// request's plan targets (< CompiledFdPlan::kScratchBase) or its scratch range.
constexpr int kTransferFdFloor = 600;

// Bind + listen a non-blocking AF_UNIX stream socket at `path`, unlinking any
// stale file first. Shared by the spawn and metrics listeners.
Result<UniqueFd> BindUnixListener(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return LogicalError("ForkServer: socket path too long");
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return ErrnoError("socket (forkserver listener)");
  }
  UniqueFd listener(fd);
  // Non-blocking: in shard mode several processes accept(2) on one listener,
  // and a connection raced away by a sibling must not park a shard inside a
  // blocking accept. OnListenerReadable already treats EAGAIN as "someone
  // else got it".
  int flags = ::fcntl(fd, F_GETFL);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return ErrnoError("fcntl O_NONBLOCK (forkserver listener)");
  }
  ::unlink(path.c_str());  // clear a stale socket from a previous run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoError("bind " + path);
  }
  if (::listen(fd, 64) < 0) {
    return ErrnoError("listen " + path);
  }
  return listener;
}

// The reply to a spawn that launched nothing.
SpawnReply FailedSpawn(const Error& error) {
  SpawnReply reply;
  reply.ok = false;
  reply.err = error.code();
  reply.context = error.ToString();
  return reply;
}

// Replies per coalesced burst write: the only batching on the wire.
obs::Histogram& FramesPerFlush() {
  static obs::Histogram h =
      obs::MetricsRegistry::Global().GetHistogram("forklift_wire_frames_per_flush");
  return h;
}

}  // namespace

ForkServer::ForkServer(UniqueFd sock) { channels_[sock.get()].sock = std::move(sock); }

Result<ForkServer> ForkServer::Listen(const std::string& path) {
  FORKLIFT_ASSIGN_OR_RETURN(UniqueFd fd, BindUnixListener(path));
  ForkServer server;
  server.listeners_.push_back(Listener{std::move(fd), path});
  return server;
}

Status ForkServer::ListenMetrics(const std::string& path) {
  FORKLIFT_ASSIGN_OR_RETURN(UniqueFd fd, BindUnixListener(path));
  listeners_.push_back(Listener{std::move(fd), path});
  return Status::Ok();
}

Status ForkServer::AdoptChannel(UniqueFd sock) {
  const int fd = sock.get();
  channels_[fd].sock = std::move(sock);
  return WatchChannel(fd);
}

Status ForkServer::WatchChannel(int fd) {
  // Non-blocking so the drain loop can empty the socket and stop on EAGAIN
  // instead of guessing how much one event is worth. (AF_UNIX fd passing
  // means each end is its own file description; this never flips the peer.)
  FORKLIFT_RETURN_IF_ERROR(SetNonBlocking(fd, true));
  return reactor_->AddFd(fd, EPOLLIN, [this, fd](uint32_t) { OnChannelReadable(fd); });
}

void ForkServer::CloseChannel(int fd) {
  (void)reactor_->RemoveFd(fd);
  channels_.erase(fd);
  // Its parked waits die with it (its fd number may be reused by the next
  // accept, and a reply there would reach a stranger), and so do its reaped
  // children's statuses; its live children are marked to go at reap.
  for (auto it = children_.begin(); it != children_.end();) {
    Child& child = it->second;
    std::erase_if(child.waits, [fd](const ParkedWait& w) { return w.sock == fd; });
    if (child.channel == fd) {
      child.channel = -1;
      if (child.status) {
        it = children_.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void ForkServer::OnListenerReadable(int listener_fd) {
  int client = ::accept4(listener_fd, nullptr, nullptr, SOCK_CLOEXEC);
  if (client < 0) {
    if (errno != EINTR && errno != EAGAIN && errno != ECONNABORTED) {
      serve_error_ = ErrnoError("accept (forkserver)");
    }
    return;
  }
  Status registered = AdoptChannel(UniqueFd(client));
  if (!registered.ok()) {
    serve_error_ = registered;
  }
}

void ForkServer::QueueReply(int sock, std::string_view payload) {
  auto it = channels_.find(sock);
  if (it == channels_.end()) {
    return;  // the channel closed under a parked wait: nobody is left to answer
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[sizeof(len)];
  std::memcpy(prefix, &len, sizeof(len));
  it->second.out.append(prefix, sizeof(len));
  it->second.out.append(payload);
  ++it->second.out_frames;
}

Status ForkServer::FlushReplies(int sock) {
  auto it = channels_.find(sock);
  if (it == channels_.end() || it->second.out.empty()) {
    return Status::Ok();
  }
  // Move the burst out before writing: the write can yield (EAGAIN park) and
  // by the time it finishes a parked-wait completion may queue more.
  std::string out = std::move(it->second.out);
  const size_t frames = it->second.out_frames;
  it->second.out.clear();
  it->second.out_frames = 0;
  struct iovec iov;
  iov.iov_base = out.data();
  iov.iov_len = out.size();
  auto sent = SendGathered(sock, &iov, 1, {});
  FramesPerFlush().Observe(frames);
  if (!sent.ok()) {
    return Err(sent.error());
  }
  // Hand the (now empty) buffer's capacity back to the channel if nothing
  // else was queued meanwhile.
  it = channels_.find(sock);
  if (it != channels_.end() && it->second.out.empty()) {
    out.clear();
    it->second.out = std::move(out);
  }
  return Status::Ok();
}

void ForkServer::OnChannelReadable(int fd) {
  // Stale-event guard: a callback earlier in this epoll batch may have closed
  // a channel whose fd number was immediately reused by something that is not
  // a channel (a spawned child's pipe). Only registered channels are read.
  if (channels_.find(fd) == channels_.end()) {
    return;
  }
  // Drain everything the socket holds and handle every complete frame per
  // wakeup — replies accumulate in the channel's out-buffer and leave in one
  // writev below. The channel iterator is re-found per frame: a handler can
  // close channels (parked-wait completion to a broken peer) or adopt new
  // ones mid-burst. A failure confined to this channel — a drain error, a
  // framing error, EOF, a reply flush its peer cannot take — ends the burst:
  // its replies are flushed and only this channel closes. (A flush to a peer
  // that is alive but never reads still blocks the reactor; see server.h.)
  Status cause;  // set when a failure of this channel alone must close it
  bool at_eof = false;
  for (;;) {
    auto it = channels_.find(fd);
    if (it == channels_.end()) {
      return;  // closed by a handler mid-burst
    }
    auto drained = DrainSocketInto(fd, &it->second.in);
    if (!drained.ok()) {
      cause = Err(drained.error());
      break;
    }
    at_eof = drained->eof;
    for (;;) {
      it = channels_.find(fd);
      if (it == channels_.end()) {
        return;
      }
      Frame frame;
      auto has = it->second.in.Next(&frame);
      if (!has.ok()) {
        cause = Err(has.error());
        break;
      }
      if (!*has) {
        break;
      }
      auto keep_running = HandleFrame(fd, std::move(frame));
      if (!keep_running.ok()) {
        serve_error_ = Err(keep_running.error());
        return;
      }
      if (!*keep_running) {
        stop_serving_ = true;
        Status flushed = FlushReplies(fd);
        if (!flushed.ok()) {
          serve_error_ = flushed;
        }
        return;
      }
    }
    if (!cause.ok() || at_eof || drained->would_block) {
      break;
    }
    // Full gulp with neither EAGAIN nor EOF: the socket may hold more.
  }
  auto it = channels_.find(fd);
  if (cause.ok() && at_eof && it != channels_.end() && it->second.in.buffered() != 0) {
    cause = LogicalError("forkserver: peer closed mid-frame");
  }
  if (cause.ok() && !at_eof) {
    cause = FlushReplies(fd);
    if (cause.ok()) {
      return;
    }
  }
  CloseAfterFlush(fd, cause);
}

void ForkServer::CloseAfterFlush(int fd, Status cause) {
  if (channels_.find(fd) == channels_.end()) {
    return;
  }
  Status flushed = FlushReplies(fd);
  if (cause.ok()) {
    cause = flushed;  // a clean EOF is worth a line only if its replies were lost
  }
  if (!cause.ok()) {
    FORKLIFT_WARN("forkserver: closing channel %d: %s", fd, cause.error().ToString().c_str());
  }
  CloseChannel(fd);
}

void ForkServer::OnChildExit(pid_t pid) {
  // Reaped the instant the pidfd signals, so the zombie is short-lived and
  // parked waits are answered out of order with the channels' other work.
  auto it = children_.find(pid);  // present: the firing watch lives in it
  Child& child = it->second;
  child.watch.Disarm();  // fired: release its pidfd now
  int raw = 0;
  const pid_t reaped = ::waitpid(pid, &raw, WNOHANG);
  WaitReply reply;
  reply.ok = reaped == pid;
  if (reply.ok) {
    reply.status = DecodeWaitStatus(raw);
    if (child.waits.empty() && child.channel >= 0) {
      child.status = reply.status;
      return;
    }
  } else {
    // The watch fired, so the child was waitable: only an error leaves it
    // unreaped (ECHILD when something else reaped it), and its status is lost.
    const Error error(reaped < 0 ? errno : ECHILD, "forkserver: waitpid");
    reply.err = error.code();
    reply.context = error.ToString();
  }
  // Erase before answering: a failed flush closes that waiter's channel, and
  // CloseChannel walks the table.
  std::vector<ParkedWait> waits = std::move(child.waits);
  children_.erase(it);
  for (const auto& w : waits) {
    QueueReply(w.sock, EncodeWaitReply(reply, w.meta));
    if (Status sent = FlushReplies(w.sock); !sent.ok()) {
      // The waiter's channel broke while its wait was parked: that client is
      // gone, not the server — drop the channel and keep serving.
      CloseAfterFlush(w.sock, sent);
    }
  }
}

Result<uint64_t> ForkServer::Serve() {
  FORKLIFT_ASSIGN_OR_RETURN(Reactor reactor, Reactor::Create());
  reactor_.emplace(std::move(reactor));
  stop_serving_ = false;
  serve_error_ = Status::Ok();

  Status error;
  for (const Listener& l : listeners_) {
    if (!error.ok()) {
      break;
    }
    const int fd = l.fd.get();
    error = reactor_->AddFd(fd, EPOLLIN, [this, fd](uint32_t) { OnListenerReadable(fd); });
  }
  if (error.ok() && sigusr1_dump_) {
    // Dump-on-signal: block SIGUSR1 and route it through the reactor so the
    // dump happens on the serve thread, not in async-signal context.
    sigset_t mask;
    ::sigemptyset(&mask);
    ::sigaddset(&mask, SIGUSR1);
    ::sigprocmask(SIG_BLOCK, &mask, nullptr);
    int sfd = ::signalfd(-1, &mask, SFD_CLOEXEC | SFD_NONBLOCK);
    if (sfd < 0) {
      error = ErrnoError("signalfd (forkserver stats dump)");
    } else {
      sigusr1_fd_ = UniqueFd(sfd);
      error = reactor_->AddFd(sfd, EPOLLIN, [this, sfd](uint32_t) {
        signalfd_siginfo info;
        while (::read(sfd, &info, sizeof(info)) == static_cast<ssize_t>(sizeof(info))) {
        }
        (void)obs::WriteExportToFd(STDERR_FILENO, obs::RenderPrometheus());
      });
    }
  }
  for (const auto& [fd, channel] : channels_) {
    if (!error.ok()) {
      break;
    }
    error = WatchChannel(fd);
  }

  // One epoll set multiplexes channels, the listeners, and child pidfds; the
  // loop parks here until any of them has work.
  while (error.ok() && !stop_serving_ && (!listeners_.empty() || !channels_.empty())) {
    auto dispatched = reactor_->PollOnce(-1);
    if (!dispatched.ok()) {
      error = Err(dispatched.error());
      break;
    }
    if (!serve_error_.ok()) {
      error = serve_error_;
      break;
    }
  }

  // Drop every registration (the children's watches first — they deregister
  // against the reactor) so no callback capturing `this` outlives Serve.
  // Waits still parked die with their channels; their clients see EOF.
  children_.clear();
  channels_.clear();
  reactor_.reset();
  if (sigusr1_fd_.valid()) {
    sigusr1_fd_.Reset();
    sigset_t mask;
    ::sigemptyset(&mask);
    ::sigaddset(&mask, SIGUSR1);
    ::sigprocmask(SIG_UNBLOCK, &mask, nullptr);
  }
  for (const Listener& l : listeners_) {
    if (!l.path.empty()) {
      ::unlink(l.path.c_str());
    }
  }
  if (!error.ok()) {
    return Err(error.error());
  }
  return spawns_handled_;
}

Result<bool> ForkServer::HandleFrame(int sock, Frame frame) {
  WireReader reader(frame.payload);
  auto hdr = DecodeHeader(reader);
  if (!hdr.ok()) {
    // Unparseable header (bad magic, a version other than 2, an unknown
    // type): there is no request_id to echo, so the error reply goes out
    // under request_id 0, which no request can claim — the client treats it
    // as channel death.
    SpawnReply reply;
    reply.ok = false;
    reply.context = hdr.error().ToString();
    QueueReply(sock, EncodeSpawnReply(reply));
    return true;
  }

  // Every reply echoes the request's request_id.
  const FrameMeta reply_meta = hdr->meta;
  switch (hdr->type) {
    case MsgType::kSpawn: {
      FORKLIFT_RETURN_IF_ERROR(HandleSpawn(sock, frame.payload, std::move(frame.fds), reply_meta));
      return true;
    }
    case MsgType::kWait: {
      FORKLIFT_RETURN_IF_ERROR(HandleWait(sock, frame.payload, reply_meta));
      return true;
    }
    case MsgType::kStats: {
      FORKLIFT_RETURN_IF_ERROR(HandleStats(sock, frame.payload, reply_meta));
      return true;
    }
    case MsgType::kPing: {
      QueueReply(sock, EncodeControl(MsgType::kPong, reply_meta));
      return true;
    }
    case MsgType::kNewChannel: {
      if (frame.fds.size() != 1) {
        SpawnReply reply;
        reply.ok = false;
        reply.context = "forkserver: kNewChannel must carry exactly one socket";
        QueueReply(sock, EncodeSpawnReply(reply, reply_meta));
        return true;
      }
      FORKLIFT_RETURN_IF_ERROR(AdoptChannel(std::move(frame.fds[0])));
      QueueReply(sock, EncodeControl(MsgType::kNewChannelAck, reply_meta));
      return true;
    }
    case MsgType::kShutdown: {
      QueueReply(sock, EncodeControl(MsgType::kShutdownAck, reply_meta));
      return false;
    }
    default: {
      SpawnReply reply;
      reply.ok = false;
      reply.context = "forkserver: unexpected message type";
      QueueReply(sock, EncodeSpawnReply(reply, reply_meta));
      return true;
    }
  }
}

Result<std::vector<UniqueFd>> ForkServer::RelocateFds(std::vector<UniqueFd> fds) {
  // Renumber every received descriptor above the plan's reachable range.
  std::vector<UniqueFd> high_fds;
  high_fds.reserve(fds.size());
  for (auto& fd : fds) {
    int high;
    auto inj = fault::Check("forkserver.relocate_fd", fault::Op::kDupFd);
    if (inj.is_errno()) {
      high = -1;
      errno = inj.err;
    } else {
      high = ::fcntl(fd.get(), F_DUPFD_CLOEXEC, kTransferFdFloor);
    }
    if (high < 0) {
      return ErrnoError("forkserver: relocating transferred fd");
    }
    high_fds.emplace_back(high);
    fd.Reset();
  }
  return high_fds;
}

SpawnReply ForkServer::LaunchDecoded(int sock, const SpawnRequest& req) {
  // The zygote's only engine: nothing of the zygote is copied (server.h).
  auto pid = CloneVmBackend().Launch(req);
  if (!pid.ok()) {
    return FailedSpawn(pid.error());
  }
  auto watch = ChildWatch::Arm(*reactor_, *pid, [this, p = *pid] { OnChildExit(p); });
  if (!watch.ok()) {
    // Nothing would wake the reactor on this child's exit, so nothing would
    // reap it or answer its waits: kill and reap it now, and fail the spawn.
    (void)::kill(*pid, SIGKILL);
    (void)WaitForExit(*pid);
    return FailedSpawn(watch.error());
  }
  // Assign, never emplace: a record already under this pid can only be a
  // reaped child nobody waited for (a live or zombie child holds its pid),
  // and its status must not answer for this one.
  children_[*pid] = Child{sock, std::move(*watch), std::nullopt, {}};
  ++spawns_handled_;
  // Server-side view in the shared arena: with shards forked after the
  // registry arena exists, every shard's spawns land in one counter.
  obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_spawns_total").Increment();
  SpawnReply reply;
  reply.ok = true;
  reply.pid = static_cast<int32_t>(*pid);
  return reply;
}

Status ForkServer::HandleSpawn(int sock, const std::string& payload,
                               std::vector<UniqueFd> fds, const FrameMeta& reply_meta) {
  auto high_fds = RelocateFds(std::move(fds));
  SpawnReply reply;
  if (!high_fds.ok()) {
    reply = FailedSpawn(high_fds.error());
  } else if (auto req = DecodeSpawnRequest(payload, *high_fds); !req.ok()) {
    reply = FailedSpawn(req.error());
  } else {
    reply = LaunchDecoded(sock, *req);
  }
  QueueReply(sock, EncodeSpawnReply(reply, reply_meta));
  return Status::Ok();
}

Status ForkServer::HandleStats(int sock, const std::string& payload,
                               const FrameMeta& reply_meta) {
  obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_stats_requests_total")
      .Increment();
  StatsReply reply;
  auto format = DecodeStatsRequest(payload);
  if (!format.ok()) {
    reply.ok = false;
    reply.context = format.error().ToString();
  } else if (*format > static_cast<uint8_t>(obs::StatsFormat::kJson)) {
    reply.ok = false;
    reply.context = "forkserver: unknown stats format " + std::to_string(*format);
  } else {
    // The export gate sits in front of the render so an injected export
    // fault degrades to a clean error reply instead of a torn body.
    Status gate = obs::ExportGate();
    if (!gate.ok()) {
      reply.ok = false;
      reply.err = gate.error().code();
      reply.context = gate.error().ToString();
    } else {
      reply.ok = true;
      reply.body = obs::Render(static_cast<obs::StatsFormat>(*format));
    }
  }
  QueueReply(sock, EncodeStatsReply(reply, reply_meta));
  return Status::Ok();
}

Status ForkServer::HandleWait(int sock, const std::string& payload, const FrameMeta& reply_meta) {
  auto pid = DecodeWait(payload);
  auto it = pid.ok() ? children_.find(*pid) : children_.end();
  WaitReply reply;
  if (!pid.ok()) {
    reply.ok = false;
    reply.context = pid.error().ToString();
  } else if (it == children_.end()) {
    reply.ok = false;
    reply.err = ECHILD;
    reply.context = "forkserver: pid " + std::to_string(*pid) + " is not a live child";
  } else if (it->second.status) {
    // The reactor already observed the exit and reaped: answer immediately.
    reply.ok = true;
    reply.status = *it->second.status;
    children_.erase(it);
  } else {
    // Not yet exited: park the wait on the child's record and keep the
    // channel moving. OnChildExit sends the reply when the pidfd fires.
    it->second.waits.push_back(ParkedWait{sock, reply_meta});
    return Status::Ok();
  }
  QueueReply(sock, EncodeWaitReply(reply, reply_meta));
  return Status::Ok();
}

Result<ForkServerHandle> StartForkServerProcess() {
  FORKLIFT_ASSIGN_OR_RETURN(SocketPair sp, MakeSocketPair());
  // The one sanctioned raw fork outside src/spawn/: the zygote *is* the
  // fork-server substrate, and must clone itself before any threads exist —
  // which also answers R12: thread creations elsewhere in the program happen
  // after (and in processes other than) this early clone.
  pid_t pid = ::fork();  // forklint:ignore(R7,R12)
  if (pid < 0) {
    return ErrnoError("fork (starting fork server)");
  }
  if (pid == 0) {
    // Server process. Drop the client end; serve; die quietly. The zygote
    // inherits the parent's current (ideally small) address space — starting
    // it early is the documented contract.
    sp.first.Reset();
    // fork also copied every descriptor the caller had open (the §5.1 leak):
    // a pipe end created before a lazily-started server would hold a
    // sibling's stdin open forever, so close everything beyond stdio and the
    // channel. Descriptors a client wants the server to hold are passed
    // explicitly via SCM_RIGHTS, never inherited.
    int sock = sp.second.Release();
    if (sock != 3) {
      ::dup2(sock, 3);
      ::close(sock);
      sock = 3;
    }
    // dup2 strips FD_CLOEXEC: restore it, or every child this server execs
    // would inherit the channel socket and keep it open past our death —
    // clients would never see EOF on a dead server. Raw fcntl, like the rest
    // of this child bootstrap: fault plans inherited from the parent must not
    // fire here (a silently-skipped restore IS the hang it prevents).
    int fdflags = ::fcntl(sock, F_GETFD);
    if (fdflags >= 0) {
      ::fcntl(sock, F_SETFD, fdflags | FD_CLOEXEC);
    }
    ::syscall(SYS_close_range, 4u, ~0u, 0u);
    ForkServer server{UniqueFd(sock)};
    // Serve() allocates freely — legal here because the zygote contract
    // guarantees the parent was single-threaded at fork time, so the child's
    // heap locks cannot be held by a vanished thread.
    auto served = server.Serve();  // forklint:ignore(R10)
    if (!served.ok()) {
      FORKLIFT_ERROR("fork server terminating on transport error: %s",
                     served.error().ToString().c_str());
      _exit(1);
    }
    _exit(0);
  }
  ForkServerHandle handle;
  handle.client_sock = std::move(sp.first);
  handle.server_pid = pid;
  return handle;
}

Result<pid_t> SpawnShardProcess(ForkServer& server) {
  // The shard is the same zygote clone as StartForkServerProcess — forked
  // small, before the supervisor grows (or threads: R12) — it just inherits
  // a shared listener instead of a private socketpair.
  pid_t pid = ::fork();  // forklint:ignore(R7,R12)
  if (pid < 0) {
    return ErrnoError("fork (forkserver shard)");
  }
  if (pid == 0) {
    // The supervisor collects SIGTERM/SIGINT/SIGCHLD with a blocked mask and
    // sigwait; both the mask and any handlers are inherited across fork and
    // would make the forwarded SIGTERM a no-op here, wedging supervised
    // shutdown. The shard never execs, so R8's reset-on-exec concern does
    // not apply.
    sigset_t none;
    ::sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    ::signal(SIGTERM, SIG_DFL);  // forklint:ignore(R8)
    ::signal(SIGINT, SIG_DFL);   // forklint:ignore(R8)
    server.DisownListenPath();
    // Allocation in Serve() is safe for the same reason as the zygote child:
    // the supervisor is single-threaded when shards are cloned.
    auto served = server.Serve();  // forklint:ignore(R10)
    if (!served.ok()) {
      FORKLIFT_ERROR("fork-server shard terminating on transport error: %s",
                     served.error().ToString().c_str());
      _exit(1);
    }
    _exit(0);
  }
  return pid;
}

}  // namespace forklift
