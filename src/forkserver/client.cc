#include "src/forkserver/client.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>

#include <algorithm>
#include <chrono>
#include <utility>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/server.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace forklift {

namespace {

// Encodes a header-only request frame (kPing, kShutdown, kNewChannel),
// carrying `fd` when one is given.
auto HeaderOnly(MsgType type, int fd = -1) {
  return [type, fd](WireWriter& w, const FrameMeta& meta, std::vector<int>* fds) {
    EncodeHeaderInto(w, type, meta);
    if (fd >= 0) {
      fds->push_back(fd);
    }
    return Status::Ok();
  };
}

// The socket-connect path (and the fault site the sweep drives to prove a
// refused/failed connect degrades cleanly).
Result<UniqueFd> ConnectUnixSocket(const std::string& path, const char* who) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return LogicalError(std::string(who) + ": socket path too long");
  }
  int fd;
  auto inj = fault::Check("client.connect_socket", fault::Op::kCreateFd);
  if (inj.is_errno()) {
    fd = -1;
    errno = inj.err;
  } else {
    fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  }
  if (fd < 0) {
    return ErrnoError("socket (forkserver client)");
  }
  UniqueFd sock(fd);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return ErrnoError("connect " + path);
  }
  return sock;
}

}  // namespace

// A completion slot. Lifetime: acquired (registered in pending_) at submit,
// filled by the receiver, released back to free_ by the awaiting caller — or
// by the receiver itself if the caller dropped the handle first. All fields
// are guarded by mu_.
struct ForkServerClient::Slot {
  uint64_t id = 0;
  bool done = false;
  bool abandoned = false;      // handle destroyed before the reply arrived
  Status transport = Status::Ok();
  std::string reply;           // the raw reply frame, decoded by its Await*
};

ForkServerClient::ForkServerClient(UniqueFd sock) : sock_(std::move(sock)) {
  receiver_ = std::thread([this] { ReceiverLoop(); });
}

ForkServerClient::~ForkServerClient() {
  // Wake the receiver out of recvmsg; it marks the channel dead (failing any
  // still-pending requests) and exits.
  if (receiver_.joinable()) {
    ::shutdown(sock_.get(), SHUT_RDWR);
    receiver_.join();
  }
}

Result<std::unique_ptr<ForkServerClient>> ForkServerClient::ConnectPath(
    const std::string& path) {
  FORKLIFT_ASSIGN_OR_RETURN(UniqueFd sock,
                            ConnectUnixSocket(path, "ForkServerClient::ConnectPath"));
  return std::make_unique<ForkServerClient>(std::move(sock));
}

ForkServerClient::Slot* ForkServerClient::AcquireSlotLocked(uint64_t* id_out,
                                                            uint64_t explicit_id) {
  Slot* slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slots_.push_back(std::make_unique<Slot>());
    slot = slots_.back().get();
  }
  *id_out = explicit_id != 0 ? explicit_id : obs::NextRequestId();
  slot->id = *id_out;
  slot->done = false;
  slot->abandoned = false;
  slot->transport = Status::Ok();
  pending_.emplace(*id_out, slot);
  outstanding_.store(pending_.size(), std::memory_order_relaxed);
  return slot;
}

void ForkServerClient::FreeSlotLocked(Slot* slot) {
  slot->reply.clear();
  free_.push_back(slot);
}

Result<ForkServerClient::PendingReply> ForkServerClient::Submit(uint64_t request_id,
                                                                const FrameEncoder& encode) {
  std::lock_guard<std::mutex> send(send_mu_);
  uint64_t id;
  Slot* slot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) {
      // Also how a sender queued behind one whose write failed mid-frame
      // fails without writing.
      return Err(death_.error());
    }
    slot = AcquireSlotLocked(&id, request_id);
  }
  out_.Clear();
  fds_.clear();
  Status st = encode(out_, FrameMeta{kForkServerProtocolV2, id}, &fds_);
  if (st.ok()) {
    st = out_.status();
  }
  const bool encoded = st.ok();
  if (encoded) {
    st = SendFrame(sock_.get(), out_.data(), fds_);
  }
  if (st.ok()) {
    return PendingReply(this, slot);
  }
  {
    // Nothing whole reached the wire, so no reply can come: recycle the slot
    // (a concurrent Die may already have completed it; nobody holds a handle).
    std::lock_guard<std::mutex> lock(mu_);
    pending_.erase(id);
    outstanding_.store(pending_.size(), std::memory_order_relaxed);
    FreeSlotLocked(slot);
  }
  if (encoded) {
    Die(st);  // before send_mu_ is released: no sender may write behind a torn frame
  }
  return Err(st.error());
}

Result<ForkServerClient::PendingReply> ForkServerClient::LaunchAsync(const SpawnRequest& req,
                                                                     uint64_t request_id) {
  if (request_id == 0) {
    request_id = obs::NextRequestId();
  }
  const uint64_t send_start = MonotonicNanos();
  auto pending =
      Submit(request_id, [&req](WireWriter& w, const FrameMeta& meta, std::vector<int>* fds) {
        return EncodeSpawnRequestInto(w, req, fds, meta);
      });
  if (pending.ok()) {
    // The id on the wire IS the trace id, so the encode+send span correlates
    // with the service's submit/route spans without any plumbing.
    obs::Tracer::Global().Record(request_id, "wire.send", send_start, MonotonicNanos());
  }
  return pending;
}

Result<ForkServerClient::PendingReply> ForkServerClient::WaitAsync(pid_t pid) {
  return Submit(0, [pid](WireWriter& w, const FrameMeta& meta, std::vector<int>*) {
    EncodeWaitRequestInto(w, pid, meta);
    return Status::Ok();
  });
}

Result<ForkServerClient::PendingReply> ForkServerClient::PingAsync() {
  return Submit(0, HeaderOnly(MsgType::kPing));
}

Result<ForkServerClient::PendingReply> ForkServerClient::StatsAsync(obs::StatsFormat format) {
  return Submit(0, [format](WireWriter& w, const FrameMeta& meta, std::vector<int>*) {
    EncodeStatsRequestInto(w, static_cast<uint8_t>(format), meta);
    return Status::Ok();
  });
}

Result<std::optional<std::string>> ForkServerClient::Collect(
    Slot* slot, std::optional<double> timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  auto done = [slot] { return slot->done; };
  if (!timeout_seconds.has_value()) {
    cv_.wait(lock, done);
  } else if (!cv_.wait_for(lock, std::chrono::duration<double>(*timeout_seconds), done)) {
    // Leave the slot registered: the server still owes exactly one reply for
    // this request_id, and a later Await* collects it.
    return std::optional<std::string>();
  }
  Status transport = slot->transport;
  std::string reply = std::move(slot->reply);
  FreeSlotLocked(slot);
  lock.unlock();
  FORKLIFT_RETURN_IF_ERROR(transport);
  return std::optional<std::string>(std::move(reply));
}

void ForkServerClient::DiscardSlot(Slot* slot) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot->done) {
    FreeSlotLocked(slot);
  } else {
    // Still in flight: the receiver recycles it when the reply arrives.
    slot->abandoned = true;
  }
}

void ForkServerClient::Die(const Status& cause) {
  std::lock_guard<std::mutex> lock(mu_);
  dead_ = true;
  death_ = cause;
  for (auto& [id, slot] : pending_) {
    slot->done = true;
    slot->transport = cause;
    if (slot->abandoned) {
      FreeSlotLocked(slot);
    }
  }
  pending_.clear();
  outstanding_.store(0, std::memory_order_relaxed);
  cv_.notify_all();
}

void ForkServerClient::DispatchFrame(Frame* frame) {
  WireReader reader(frame->payload);
  auto hdr = DecodeHeader(reader);
  if (!hdr.ok()) {
    Die(Err(hdr.error()));
    return;
  }
  if (hdr->meta.request_id == 0) {
    // An uncorrelated reply: the server's answer to a frame whose header it
    // could not parse. No request can claim it, and the stream it came from
    // is broken, so fail pending requests rather than hang them.
    Die(LogicalError("forkserver client: uncorrelated reply (server could not parse a frame)"));
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_.find(hdr->meta.request_id);
  if (it == pending_.end()) {
    return;  // the channel died under the request, which is already failed
  }
  Slot* slot = it->second;
  pending_.erase(it);
  outstanding_.store(pending_.size(), std::memory_order_relaxed);
  slot->reply.swap(frame->payload);
  slot->done = true;
  if (slot->abandoned) {
    FreeSlotLocked(slot);
  }
  cv_.notify_all();
}

void ForkServerClient::ReceiverLoop() {
  // The buffer lives for the life of the channel, so it carries coalesced
  // replies across recvmsg gulps; each reply's payload moves to its awaiter.
  FrameBuffer fb;
  Frame frame;
  for (;;) {
    auto got = RecvFrame(sock_.get(), &fb, &frame);
    if (!got.ok()) {
      Die(Err(got.error()));
      return;
    }
    if (!*got) {
      Die(LogicalError("forkserver client: server closed the channel"));
      return;
    }
    DispatchFrame(&frame);
  }
}

bool ForkServerClient::dead() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dead_;
}

Result<pid_t> ForkServerClient::LaunchRequest(const SpawnRequest& req) {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, LaunchAsync(req));
  return pending.AwaitPid();
}

Result<ExitStatus> ForkServerClient::WaitRemote(pid_t pid) {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, WaitAsync(pid));
  return pending.AwaitExit();
}

Status ForkServerClient::Ping() {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, PingAsync());
  return pending.AwaitAck(MsgType::kPong);
}

Result<std::string> ForkServerClient::Stats(obs::StatsFormat format) {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, StatsAsync(format));
  return pending.AwaitStats();
}

Status ForkServerClient::Shutdown() {
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending, Submit(0, HeaderOnly(MsgType::kShutdown)));
  return pending.AwaitAck(MsgType::kShutdownAck);
}

Result<std::unique_ptr<ForkServerClient>> ForkServerClient::NewChannel() {
  FORKLIFT_ASSIGN_OR_RETURN(SocketPair sp, MakeSocketPair());
  FORKLIFT_ASSIGN_OR_RETURN(PendingReply pending,
                            Submit(0, HeaderOnly(MsgType::kNewChannel, sp.second.get())));
  FORKLIFT_RETURN_IF_ERROR(pending.AwaitAck(MsgType::kNewChannelAck));
  return std::make_unique<ForkServerClient>(std::move(sp.first));
}

// --- PendingReply ---

ForkServerClient::PendingReply::PendingReply(PendingReply&& other) noexcept
    : client_(other.client_), slot_(other.slot_) {
  other.client_ = nullptr;
  other.slot_ = nullptr;
}

ForkServerClient::PendingReply& ForkServerClient::PendingReply::operator=(
    PendingReply&& other) noexcept {
  if (this != &other) {
    if (client_ != nullptr) {
      client_->DiscardSlot(slot_);
    }
    client_ = other.client_;
    slot_ = other.slot_;
    other.client_ = nullptr;
    other.slot_ = nullptr;
  }
  return *this;
}

ForkServerClient::PendingReply::~PendingReply() {
  if (client_ != nullptr) {
    client_->DiscardSlot(slot_);
  }
}

Result<std::optional<std::string>> ForkServerClient::PendingReply::Collect(
    std::optional<double> timeout_seconds) {
  if (!valid()) {
    return LogicalError("PendingReply: await on an empty handle");
  }
  auto frame = client_->Collect(slot_, timeout_seconds);
  if (!frame.ok() || frame->has_value()) {
    // Completed (reply or transport failure): the slot is recycled, so the
    // handle is consumed on both paths.
    client_ = nullptr;
    slot_ = nullptr;
  }
  return frame;
}

Result<std::string> ForkServerClient::PendingReply::Take() {
  FORKLIFT_ASSIGN_OR_RETURN(std::optional<std::string> frame, Collect(std::nullopt));
  return std::move(frame).value_or(std::string());  // untimed: always a frame
}

Result<pid_t> ForkServerClient::PendingReply::AwaitPid() {
  FORKLIFT_ASSIGN_OR_RETURN(std::string frame, Take());
  return DecodeSpawnReply(frame);
}

Result<ExitStatus> ForkServerClient::PendingReply::AwaitExit() {
  FORKLIFT_ASSIGN_OR_RETURN(std::string frame, Take());
  return DecodeWaitReply(frame);
}

Result<std::optional<ExitStatus>> ForkServerClient::PendingReply::AwaitExitFor(
    double timeout_seconds) {
  FORKLIFT_ASSIGN_OR_RETURN(std::optional<std::string> frame,
                            Collect(std::max(timeout_seconds, 0.0)));
  if (!frame.has_value()) {
    return std::optional<ExitStatus>();  // timed out: handle stays valid, the wait stays parked
  }
  FORKLIFT_ASSIGN_OR_RETURN(ExitStatus status, DecodeWaitReply(*frame));
  return std::optional<ExitStatus>(status);
}

Result<std::string> ForkServerClient::PendingReply::AwaitStats() {
  FORKLIFT_ASSIGN_OR_RETURN(std::string frame, Take());
  return DecodeStatsReply(frame);
}

Status ForkServerClient::PendingReply::AwaitAck(MsgType type) {
  FORKLIFT_ASSIGN_OR_RETURN(std::string frame, Take());
  return DecodeAck(frame, type);
}

// --- OwnedZygote ---

OwnedZygote::OwnedZygote(ForkServerHandle handle)
    : channel_(std::make_shared<ForkServerClient>(std::move(handle.client_sock))),
      pid_(handle.server_pid) {}

OwnedZygote::~OwnedZygote() { (void)Stop(); }

Status OwnedZygote::Stop() {
  if (pid_ <= 0) {
    return Status::Ok();
  }
  const bool acked = channel_->Shutdown().ok();
  channel_.reset();
  if (!acked) {
    (void)::kill(pid_, SIGKILL);  // before the blocking reap, which it would wedge
  }
  auto reaped = WaitForExit(pid_);
  pid_ = -1;
  if (!reaped.ok()) {
    return Err(reaped.error());
  }
  return Status::Ok();
}

}  // namespace forklift
