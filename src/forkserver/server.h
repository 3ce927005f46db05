// forklift/forkserver: the zygote process.
//
// A ForkServer serves one or more AF_UNIX stream channels: it decodes spawn
// requests, launches them, supervises the children, and answers wait
// requests. The launch engine is clone(CLONE_VM|CLONE_VFORK) (CloneVmBackend),
// not fork: the child borrows the zygote's address space until it execs, so
// no page table is copied and a spawn costs the same however large the
// zygote has grown (the paper's Fig. 1 flat line; §6's zygote pattern
// without fork's per-spawn copy). The zygote is suspended until the child's
// execve, and the exec pipe closes inside that same execve, so an
// asynchronous exec confirmation would have nothing left to overlap.
// Additional channels are adopted at runtime via kNewChannel frames
// carrying a socket (SCM_RIGHTS), so each client thread can own a private
// channel. One Reactor multiplexes everything Serve watches: client channels,
// the listeners, and a pidfd per live child, so a child's exit is observed
// without any polling tick. Single-threaded by design: a zygote must stay
// small and must not hold locks across its forks.
//
// Each child has one record, keyed by pid, from launch until a kWait
// collects its status: its channel, its exit watch, its status once reaped,
// and the waits parked on it. Any channel may wait for any child. A launch
// overwrites the record under its pid, so a reused pid never inherits a
// reaped, unwaited child's status. A closing channel takes its reaped
// children's records with it; its live ones go at reap unless another
// channel has a wait parked on them.
//
// Every child has an exit watch: a child whose pidfd cannot be opened or
// registered is killed and reaped at once, and its spawn is answered with
// that error (no record, not counted as a spawn). So a kWait never blocks:
// for a child that has not yet exited it parks on the record and is
// answered out of order when the exit is observed. Each wakeup drains a
// channel's whole burst and answers it in one coalesced write (the only
// batching on the wire: clients write one frame per request). A peer that
// hangs up mid-frame, sends a hostile length prefix, or leaves before its
// replies are written loses only its own channel. A peer that keeps sending
// but never reads its replies is not contained: once its socket buffer
// fills, the reply flush blocks the reactor, and with it every channel.
//
// Every zygote the library forks, private or a forkliftd shard, starts
// through one bootstrap, ForkZygote, which drops what fork handed it unasked.
#ifndef SRC_FORKSERVER_SERVER_H_
#define SRC_FORKSERVER_SERVER_H_

#include <sys/types.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/common/reactor.h"
#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/wire.h"

namespace forklift {

class ForkServer {
 public:
  // Takes ownership of the server end of a connected socket pair.
  explicit ForkServer(UniqueFd sock);

  // Daemon mode: bind + listen on an AF_UNIX socket at `path` (unlinking any
  // stale socket first). Accepted connections become channels; the server
  // runs until a client sends kShutdown (EOF of all clients does NOT stop a
  // listening server). The socket file is unlinked when Serve returns.
  static Result<ForkServer> Listen(const std::string& path);

  // Binds a second listener dedicated to metrics scrapes. Accepted
  // connections are ordinary protocol channels (scrapers send kStats frames);
  // the separate path just keeps observability traffic off the spawn socket.
  // Call before Serve. The file is unlinked when Serve returns, except in a
  // zygote ForkZygote started.
  Status ListenMetrics(const std::string& path);

  // Makes Serve watch SIGUSR1 (via signalfd) and dump the Prometheus export
  // to stderr when it arrives. Call before Serve.
  void EnableSigusr1StatsDump() { sigusr1_dump_ = true; }

  // Serves until a client sends kShutdown or the last channel closes.
  // Returns the number of spawn requests handled, or the reactor error that
  // ended the loop. Protocol errors on a single request are reported to that
  // client and do not end the loop; a channel that fails on its own — a
  // drain or framing error, EOF (mid-frame or not), a reply its peer cannot
  // take — has its burst's replies flushed and is closed alone.
  Result<uint64_t> Serve();

 private:
  friend Result<pid_t> ForkZygote(ForkServer& server);

  // A kWait for a live child, parked until its exit is observed.
  struct ParkedWait {
    int sock = -1;
    FrameMeta meta;
  };

  // The one record of a child, from launch until a kWait collects it.
  struct Child {
    int channel = -1;  // the spawning channel's fd; -1 once that channel closed
    ChildWatch watch;  // armed until the exit is observed
    std::optional<ExitStatus> status;  // reaped, not yet waited for
    std::vector<ParkedWait> waits;     // answered when the exit is observed
  };

  // One client channel: its socket, the receive-side reassembly buffer and
  // the send-side reply coalescing buffer (complete framed replies
  // accumulated during one wakeup's burst, flushed in one writev).
  struct Channel {
    UniqueFd sock;
    FrameBuffer in;
    std::string out;
    size_t out_frames = 0;
  };

  // A listening socket whose accepted connections become channels.
  struct Listener {
    UniqueFd fd;
    std::string path;  // unlinked when Serve returns; empty in a forked zygote
  };

  // Answers one frame on its reply type; returns true when the server should
  // keep running.
  Result<bool> HandleFrame(int sock, struct Frame frame);
  // A kSpawn: relocates its descriptors, decodes it, launches it with
  // clone_vm+exec and records the child with its exit watch. A child whose
  // watch cannot be armed is killed and reaped, and the spawn fails with the
  // watch's error.
  Result<pid_t> Spawn(int sock, std::string_view payload, std::vector<UniqueFd> fds);
  // A kWait: answers it at once (a bad frame, an unknown pid, a reaped
  // status), or parks it on a live child's record.
  void HandleWait(int sock, std::string_view payload, const FrameMeta& meta);
  // Dups every received descriptor above the plan-reachable range
  // (faultinject site `forkserver.relocate_fd`); errno error on failure.
  Result<std::vector<UniqueFd>> RelocateFds(std::vector<UniqueFd> fds);
  // The exit watch of `pid` fired: reaps it, then keeps the status for a
  // later kWait or answers the waits parked on it (with waitpid's error if
  // the reap fails, which forgets the child).
  void OnChildExit(pid_t pid);
  // Appends the reply encoded in `reply` to `sock`'s coalescing buffer
  // (dropped when the channel is already closed) and clears `reply`.
  void QueueReply(int sock, WireWriter& reply);
  // Writes the channel's queued replies in one gathered write.
  Status FlushReplies(int sock);
  // Flushes what `fd` has queued (best effort), then closes that channel
  // alone, logging `cause` — or, when it is ok, a failed flush.
  void CloseAfterFlush(int fd, Status cause);

  // Reactor plumbing for Serve: channel/listener registration and the
  // callbacks they dispatch to. Callbacks record reactor failures in
  // serve_error_ (and request shutdown via stop_serving_) for the Serve loop
  // to act on; a failure of one channel closes that channel instead.
  Status AdoptChannel(UniqueFd sock);
  Status WatchChannel(int fd);
  void OnChannelReadable(int fd);
  void OnListenerReadable(int listener_fd);
  void CloseChannel(int fd);

  ForkServer() = default;

  // Keyed by channel fd; entries live from adoption to CloseChannel.
  // std::map: handlers adopt channels (insert) mid-drain, and node-based
  // iterators stay valid across that.
  std::map<int, Channel> channels_;
  std::vector<Listener> listeners_;
  bool sigusr1_dump_ = false;
  uint64_t spawns_handled_ = 0;

  // Serve-scoped state. The reactor is declared before the children so their
  // watches (which deregister against it) are destroyed first.
  std::optional<Reactor> reactor_;
  UniqueFd sigusr1_fd_;  // signalfd for the stats dump, when enabled
  std::map<pid_t, Child> children_;
  WireWriter reply_;  // every reply is encoded here, then queued
  bool stop_serving_ = false;
  Status serve_error_;
};

// Forks a zygote that serves `server`, then _exits: 0 after a client's
// kShutdown, 1 on a reactor error. First it empties its signal mask, resets
// SIGTERM and SIGINT to SIG_DFL, closes every descriptor but stdio and the
// server's own, and forgets its listen paths (the caller owns the files).
// The caller keeps its copy of `server`. Call it early, while this process
// is small and single-threaded: the zygote clones its address space.
Result<pid_t> ForkZygote(ForkServer& server);

// Starts a private zygote over a socketpair and returns the client end of its
// socket and its pid. It serves until shutdown/EOF; OwnedZygote (client.h)
// stops it.
struct ForkServerHandle {
  UniqueFd client_sock;
  pid_t server_pid = -1;
};
Result<ForkServerHandle> StartForkServerProcess();

}  // namespace forklift

#endif  // SRC_FORKSERVER_SERVER_H_
