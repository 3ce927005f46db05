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

#include <algorithm>
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

// Counts a kStats request and renders the export its payload asks for.
Result<std::string> RenderStats(std::string_view payload) {
  obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_stats_requests_total")
      .Increment();
  FORKLIFT_ASSIGN_OR_RETURN(uint8_t format, DecodeStatsRequest(payload));
  if (format > static_cast<uint8_t>(obs::StatsFormat::kJson)) {
    return LogicalError("forkserver: unknown stats format " + std::to_string(format));
  }
  // The export gate sits in front of the render so an injected export
  // fault degrades to a clean error reply instead of a torn body.
  FORKLIFT_RETURN_IF_ERROR(obs::ExportGate());
  return obs::Render(static_cast<obs::StatsFormat>(format));
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

void ForkServer::QueueReply(int sock, WireWriter& reply) {
  auto it = channels_.find(sock);
  if (it != channels_.end()) {  // else the channel closed under a parked wait
    const uint32_t len = static_cast<uint32_t>(reply.size());
    char prefix[sizeof(len)];
    std::memcpy(prefix, &len, sizeof(len));
    it->second.out.append(prefix, sizeof(len));
    it->second.out.append(reply.data());
    ++it->second.out_frames;
  }
  reply.Clear();
}

Status ForkServer::FlushReplies(int sock) {
  auto it = channels_.find(sock);
  if (it == channels_.end() || it->second.out.empty()) {
    return Status::Ok();
  }
  // Written in place: the write runs on the reactor's only thread and calls
  // nothing back (an EAGAIN parks in poll), so nothing is queued meanwhile.
  Channel& channel = it->second;
  struct iovec iov;
  iov.iov_base = channel.out.data();
  iov.iov_len = channel.out.size();
  auto sent = SendGathered(sock, &iov, 1, {});
  FramesPerFlush().Observe(channel.out_frames);
  channel.out.clear();
  channel.out_frames = 0;
  if (!sent.ok()) {
    return Err(sent.error());
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
  // The watch fired, so the child was waitable: only an error leaves it
  // unreaped (ECHILD when something else reaped it), and its status is lost.
  const Result<ExitStatus> status =
      reaped == pid ? Result<ExitStatus>(DecodeWaitStatus(raw))
                    : Err(Error(reaped < 0 ? errno : ECHILD, "forkserver: waitpid"));
  if (status.ok() && child.waits.empty() && child.channel >= 0) {
    child.status = *status;
    return;
  }
  // Erase before answering: a failed flush closes that waiter's channel, and
  // CloseChannel walks the table.
  std::vector<ParkedWait> waits = std::move(child.waits);
  children_.erase(it);
  for (const auto& w : waits) {
    EncodeWaitReplyInto(reply_, status, w.meta);
    QueueReply(w.sock, reply_);
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
    // type): there is no request_id to echo, so the refusal goes out under
    // request_id 0, which no request can claim — the client treats it as
    // channel death.
    EncodeSpawnReplyInto(reply_, Err(hdr.error()), FrameMeta{});
    QueueReply(sock, reply_);
    return true;
  }

  // Every reply echoes the request's request_id.
  const FrameMeta& meta = hdr->meta;
  bool keep_serving = true;
  switch (hdr->type) {
    case MsgType::kSpawn:
      EncodeSpawnReplyInto(reply_, Spawn(sock, frame.payload, std::move(frame.fds)), meta);
      break;
    case MsgType::kWait:
      HandleWait(sock, frame.payload, meta);  // answers now, or parks the wait
      return true;
    case MsgType::kStats:
      EncodeStatsReplyInto(reply_, RenderStats(frame.payload), meta);
      break;
    case MsgType::kPing:
      EncodeAckInto(reply_, MsgType::kPong, DecodeBareRequest(frame.payload, hdr->type), meta);
      break;
    case MsgType::kNewChannel: {
      Status adopt = DecodeBareRequest(frame.payload, hdr->type);
      if (adopt.ok() && frame.fds.size() != 1) {
        adopt = LogicalError("forkserver: kNewChannel must carry exactly one socket");
      }
      if (adopt.ok()) {
        FORKLIFT_RETURN_IF_ERROR(AdoptChannel(std::move(frame.fds[0])));
      }
      EncodeAckInto(reply_, MsgType::kNewChannelAck, adopt, meta);
      break;
    }
    case MsgType::kShutdown: {
      // A malformed kShutdown is refused, and the zygote keeps serving.
      Status shutdown = DecodeBareRequest(frame.payload, hdr->type);
      EncodeAckInto(reply_, MsgType::kShutdownAck, shutdown, meta);
      keep_serving = !shutdown.ok();
      break;
    }
    default:  // a reply type sent as a request
      EncodeSpawnReplyInto(reply_, LogicalError("forkserver: unexpected message type"), meta);
      break;
  }
  QueueReply(sock, reply_);
  return keep_serving;
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

Result<pid_t> ForkServer::Spawn(int sock, std::string_view payload, std::vector<UniqueFd> fds) {
  FORKLIFT_ASSIGN_OR_RETURN(std::vector<UniqueFd> high_fds, RelocateFds(std::move(fds)));
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, DecodeSpawnRequest(payload, high_fds));
  // The zygote's only engine: nothing of the zygote is copied (server.h).
  FORKLIFT_ASSIGN_OR_RETURN(pid_t pid, CloneVmBackend().Launch(req));
  auto watch = ChildWatch::Arm(*reactor_, pid, [this, pid] { OnChildExit(pid); });
  if (!watch.ok()) {
    // Nothing would wake the reactor on this child's exit, so nothing would
    // reap it or answer its waits: kill and reap it now, and fail the spawn.
    (void)::kill(pid, SIGKILL);
    (void)WaitForExit(pid);
    return Err(watch.error());
  }
  // Assign, never emplace: a record already under this pid can only be a
  // reaped child nobody waited for (a live or zombie child holds its pid),
  // and its status must not answer for this one.
  children_[pid] = Child{sock, std::move(*watch), std::nullopt, {}};
  ++spawns_handled_;
  // Server-side view in the shared arena: with shards forked after the
  // registry arena exists, every shard's spawns land in one counter.
  obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_spawns_total").Increment();
  return pid;
}

void ForkServer::HandleWait(int sock, std::string_view payload, const FrameMeta& meta) {
  auto pid = DecodeWaitRequest(payload);
  if (!pid.ok()) {
    EncodeWaitReplyInto(reply_, Err(pid.error()), meta);
  } else if (auto it = children_.find(*pid); it == children_.end()) {
    EncodeWaitReplyInto(reply_,
                        Err(Error(ECHILD, "forkserver: pid " + std::to_string(*pid) +
                                              " is not a live child")),
                        meta);
  } else if (it->second.status) {
    // The reactor already observed the exit and reaped: answer immediately.
    EncodeWaitReplyInto(reply_, *it->second.status, meta);
    children_.erase(it);
  } else {
    // Not yet exited: park the wait on the child's record and keep the
    // channel moving. OnChildExit sends the reply when the pidfd fires.
    it->second.waits.push_back(ParkedWait{sock, meta});
    return;
  }
  QueueReply(sock, reply_);
}

Result<pid_t> ForkZygote(ForkServer& server) {
  // The descriptors the zygote keeps, sorted here so the child need not allocate.
  std::vector<int> keep;
  for (const ForkServer::Listener& l : server.listeners_) {
    keep.push_back(l.fd.get());
  }
  for (const auto& [fd, channel] : server.channels_) {
    keep.push_back(fd);
  }
  std::sort(keep.begin(), keep.end());
  // The one sanctioned raw fork outside src/spawn/: the zygote *is* the
  // fork-server substrate, and must clone itself before any threads exist —
  // which also answers R12: thread creations elsewhere in the program happen
  // after (and in processes other than) this early clone.
  pid_t pid = ::fork();  // forklint:ignore(R7,R12)
  if (pid < 0) {
    return ErrnoError("fork (starting zygote)");
  }
  if (pid == 0) {
    // fork copied the starter's signal state and descriptors (§4); undo both
    // with raw calls, so that no inherited fault plan fires here. A blocked
    // or handled SIGTERM (forkliftd's supervisor blocks it for sigwait) would
    // not stop the zygote. It never execs, so R8's exec concern is moot.
    sigset_t none;
    ::sigemptyset(&none);
    ::sigprocmask(SIG_SETMASK, &none, nullptr);
    ::signal(SIGTERM, SIG_DFL);  // forklint:ignore(R8)
    ::signal(SIGINT, SIG_DFL);   // forklint:ignore(R8)
    // An inherited pipe end would hold a sibling's stdin open for the
    // zygote's life; a client passes what it needs via SCM_RIGHTS.
    unsigned int next = 3;
    for (int fd : keep) {
      if (static_cast<unsigned int>(fd) > next) {
        ::syscall(SYS_close_range, next, fd - 1u, 0u);
      }
      next = std::max(next, fd + 1u);
    }
    ::syscall(SYS_close_range, next, ~0u, 0u);
    for (ForkServer::Listener& l : server.listeners_) {
      l.path.clear();  // the starter owns the socket files
    }
    // Serve() allocates freely — legal here because the zygote contract
    // guarantees the parent was single-threaded at fork time, so the child's
    // heap locks cannot be held by a vanished thread.
    auto served = server.Serve();  // forklint:ignore(R10)
    if (!served.ok()) {
      FORKLIFT_ERROR("zygote terminating on transport error: %s",
                     served.error().ToString().c_str());
      _exit(1);
    }
    _exit(0);
  }
  return pid;
}

Result<ForkServerHandle> StartForkServerProcess() {
  FORKLIFT_ASSIGN_OR_RETURN(SocketPair sp, MakeSocketPair());
  ForkServer server(std::move(sp.second));  // closes our copy of the zygote's end
  FORKLIFT_ASSIGN_OR_RETURN(pid_t pid, ForkZygote(server));
  return ForkServerHandle{std::move(sp.first), pid};
}

}  // namespace forklift
