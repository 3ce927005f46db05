// forklift/forkserver: the client side — talk to a zygote.
//
// ForkServerClient is the one client: requests are tagged with a request_id
// and many may be in flight on one channel at once; a dedicated receiver
// thread matches out-of-order replies back to their issuers, so a slow kWait
// never head-of-line-blocks the other callers sharing the socket. The pids it
// returns name processes that are NOT our children (the server is their
// parent), so waiting is a protocol round trip instead of waitpid. Callers
// outside this subsystem reach it through SpawnService (service_adapters.h),
// which wraps each pid in a ProcessHandle.
//
// OwnedZygote owns a zygote the library started for itself, and stops it.
#ifndef SRC_FORKSERVER_CLIENT_H_
#define SRC_FORKSERVER_CLIENT_H_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/wire.h"
#include "src/obs/export.h"
#include "src/spawn/backend.h"

namespace forklift {

struct ForkServerHandle;

// The pipelined client. Thread-safe: any number of threads may issue
// requests concurrently; each request gets a fresh request_id and a
// completion slot, and the receiver thread completes slots as replies
// arrive — in whatever order the server answers. Completed slots are
// recycled.
//
// One way onto the wire: each submitter sends its own frame. Under one send
// lock it registers its slot, encodes the frame with its request type's one
// encoder (protocol.h) into the channel's reused writer and writes it with
// one SendFrame; descriptors ride the same sendmsg. The lock orders frames,
// so an fd-carrying frame is never split by another thread's bytes. One way
// off it: the receiver thread reads frames with RecvFrame and parks each raw
// reply frame in its slot; the awaiting PendingReply decodes it.
class ForkServerClient {
  struct Slot;

 public:
  // Takes ownership of the client end of the server's socket and starts the
  // receiver thread.
  explicit ForkServerClient(UniqueFd sock);
  ~ForkServerClient();
  ForkServerClient(const ForkServerClient&) = delete;
  ForkServerClient& operator=(const ForkServerClient&) = delete;

  // Connects to a daemon listening on an AF_UNIX path (ForkServer::Listen /
  // the forkliftd tool).
  static Result<std::unique_ptr<ForkServerClient>> ConnectPath(const std::string& path);

  // A single in-flight request. Await* blocks until the reply (or channel
  // death) and consumes the handle; destroying an un-awaited handle is safe —
  // the reply is discarded when it arrives.
  class PendingReply {
   public:
    PendingReply() = default;
    PendingReply(PendingReply&& other) noexcept;
    PendingReply& operator=(PendingReply&& other) noexcept;
    PendingReply(const PendingReply&) = delete;
    PendingReply& operator=(const PendingReply&) = delete;
    ~PendingReply();

    bool valid() const { return client_ != nullptr; }
    // Each decodes its reply with protocol.h's decoder for the type: the
    // server's error comes back as it was raised.
    Result<pid_t> AwaitPid();            // kSpawnReply
    Result<ExitStatus> AwaitExit();      // kWaitReply
    Result<std::string> AwaitStats();    // kStatsReply; returns the export
    Status AwaitAck(MsgType type);       // kPong / kShutdownAck / kNewChannelAck

    // Timed variant of AwaitExit. Timeout returns nullopt and KEEPS the
    // handle valid: the server answers each parked kWait exactly once, so
    // abandoning the request on timeout would lose the exit status — the
    // same in-flight wait stays collectable by a later Await*. Completion
    // (value or transport death) consumes the handle as usual.
    Result<std::optional<ExitStatus>> AwaitExitFor(double timeout_seconds);

   private:
    friend class ForkServerClient;
    PendingReply(ForkServerClient* client, Slot* slot) : client_(client), slot_(slot) {}
    // Collects the raw reply frame (ForkServerClient::Collect) and consumes
    // the handle unless the wait timed out.
    Result<std::optional<std::string>> Collect(std::optional<double> timeout_seconds);
    Result<std::string> Take();  // Collect without a timeout

    ForkServerClient* client_ = nullptr;
    Slot* slot_ = nullptr;
  };

  // --- pipelined API: submit without waiting, await later ---
  // `request_id` 0 allocates a fresh process-wide id (obs::NextRequestId);
  // a routed caller passes its trace id so the frame on the wire carries it.
  Result<PendingReply> LaunchAsync(const SpawnRequest& req, uint64_t request_id = 0);
  Result<PendingReply> WaitAsync(pid_t pid);
  Result<PendingReply> PingAsync();
  Result<PendingReply> StatsAsync(obs::StatsFormat format);

  // --- synchronous API (submit + await) ---

  // Ships an already-resolved request (Spawner::BuildRequest); returns the
  // remote pid. Pipe stdio is not supported over the wire (create pipes
  // locally and use Stdio::Fd / PassFd — the descriptors are transferred via
  // SCM_RIGHTS).
  Result<pid_t> LaunchRequest(const SpawnRequest& req);

  // Blocks until the child exits. The wait parks server-side on the child's
  // pidfd watch, so it blocks only the calling thread, not the channel. The
  // server answers each child's exit exactly once.
  Result<ExitStatus> WaitRemote(pid_t pid);

  // Round-trip liveness probe.
  Status Ping();

  // Fetches the server's rendered metrics export (kStats round trip).
  Result<std::string> Stats(obs::StatsFormat format);

  // Asks the server to exit after acknowledging. Ok only for its
  // kShutdownAck: a channel that is dead, or dies first, returns its error,
  // and a caller that started the server must then kill it (a handle from
  // this channel can keep the socket open, so it may never see EOF).
  Status Shutdown();

  // Opens an additional private channel to the same server (the new socket
  // travels over this one via SCM_RIGHTS). With pipelining one channel rarely
  // needs company, but private channels still isolate fd-carrying spawns.
  Result<std::unique_ptr<ForkServerClient>> NewChannel();

  // Requests in flight (the sharded router's load metric). Lock-free: a
  // relaxed atomic mirror of pending_.size(), so routers polling every shard
  // per spawn never contend with completion traffic.
  size_t outstanding() const { return outstanding_.load(std::memory_order_relaxed); }

  // True once the transport failed or the server closed the channel; every
  // subsequent submit fails fast with the recorded cause.
  bool dead() const;

 private:
  // Encodes one request frame, header included, under `meta` into `w`, and
  // appends the descriptors the frame must carry to `fds`.
  using FrameEncoder =
      std::function<Status(WireWriter& w, const FrameMeta& meta, std::vector<int>* fds)>;

  // The one send path. Under send_mu_: registers a slot for `request_id` (0
  // allocates a fresh id), encodes the frame into out_ and writes it with one
  // SendFrame. Exact contract: an error means no whole frame reached the
  // wire, the slot is gone, and the request is safely retryable elsewhere
  // (ForkServerTransport and the sharded router rely on this). A failed write
  // kills the channel while still holding send_mu_, because the stream may
  // now end mid-frame: every later sender finds it dead and fails without
  // writing.
  Result<PendingReply> Submit(uint64_t request_id, const FrameEncoder& encode);

  // Registers a slot for the given id — 0 allocates a fresh one (mu_).
  Slot* AcquireSlotLocked(uint64_t* id_out, uint64_t explicit_id);
  void FreeSlotLocked(Slot* slot);

  // The one reply collector: waits for `slot` to complete — at most
  // `timeout_seconds` when given, returning nullopt with the slot still
  // registered — then recycles it and returns its raw reply frame or the
  // transport failure.
  Result<std::optional<std::string>> Collect(Slot* slot,
                                             std::optional<double> timeout_seconds);
  void DiscardSlot(Slot* slot);  // un-awaited handle destroyed

  void ReceiverLoop();
  // Parks a reply's raw frame in the slot its request_id names (swapping
  // payload buffers with `frame`).
  void DispatchFrame(struct Frame* frame);
  // Fails every pending request and marks the channel dead.
  void Die(const Status& cause);

  UniqueFd sock_;

  // Send side: serialises whole frames onto the wire. Lock order: send_mu_
  // before mu_.
  std::mutex send_mu_;
  WireWriter out_;         // reused encode buffer (send_mu_)
  std::vector<int> fds_;   // the frame's borrowed descriptors (send_mu_)

  // Completion state shared with the receiver thread. Request ids come from
  // the process-wide obs::NextRequestId counter (they double as trace ids),
  // so there is no per-channel id state.
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::unordered_map<uint64_t, Slot*> pending_;
  std::vector<std::unique_ptr<Slot>> slots_;  // owns every slot ever created
  std::vector<Slot*> free_;                   // completed slots ready for reuse
  std::atomic<size_t> outstanding_{0};        // mirrors pending_.size()
  bool dead_ = false;
  Status death_ = Status::Ok();

  std::thread receiver_;  // started last, joined first
};

// A zygote this process started (StartForkServerProcess): its channel and
// its pid. Stop sends kShutdown, SIGKILLs the zygote unless it acknowledged
// (a handle from its channel can hold the socket open, so it may never see
// EOF), then reaps it; on a dead channel kShutdown fails at once. Stop is
// idempotent and the destructor runs it. Its holder serialises the calls.
class OwnedZygote {
 public:
  explicit OwnedZygote(ForkServerHandle handle);  // opens the channel
  ~OwnedZygote();
  OwnedZygote(const OwnedZygote&) = delete;
  OwnedZygote& operator=(const OwnedZygote&) = delete;

  const std::shared_ptr<ForkServerClient>& channel() const { return channel_; }
  pid_t pid() const { return pid_; }  // -1 once stopped

  Status Stop();  // the reap's error, else Ok

 private:
  std::shared_ptr<ForkServerClient> channel_;
  pid_t pid_ = -1;
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_CLIENT_H_
