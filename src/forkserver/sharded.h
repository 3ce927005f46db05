// forklift/forkserver: the sharded zygote pool.
//
// One fork server serializes all fork work in a single process; under many
// spawner threads the zygote itself becomes the bottleneck the paper's §6
// pattern was meant to remove. ShardedForkServer is the front-end that fixes
// the fan-in: it launches N fork-server processes (default one per online
// CPU), routes each spawn to the shard with the fewest requests in flight
// (every shard channel is a pipelined ForkServerClient), keeps kWait
// affine to the shard that owns the child (only that shard is the parent),
// and transparently restarts a shard that crashes — busy or idle, found dead
// by a request, by routing or by Ping. In-flight requests on a crashed shard
// complete exactly once, with a clean error — never silently lost, never
// retried after the frame reached the wire (a retry could fork the child
// twice).
#ifndef SRC_FORKSERVER_SHARDED_H_
#define SRC_FORKSERVER_SHARDED_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/forkserver/client.h"

namespace forklift {

class ShardedForkServer {
 public:
  struct Options {
    size_t shards = 0;  // 0 → one shard per online CPU
  };

  // Forks the shard processes. Like StartForkServerProcess, call it early,
  // while this process is small — every shard clones the caller's address
  // space.
  static Result<std::unique_ptr<ShardedForkServer>> Start(const Options& options);
  static Result<std::unique_ptr<ShardedForkServer>> Start() { return Start(Options{}); }

  // Shuts every shard down (if not already done via Shutdown()).
  ~ShardedForkServer();
  ShardedForkServer(const ShardedForkServer&) = delete;
  ShardedForkServer& operator=(const ShardedForkServer&) = delete;

  // A routed in-flight spawn. AwaitPid() blocks for the reply and registers
  // the pid→shard ownership needed by WaitRemote.
  class PendingSpawn {
   public:
    PendingSpawn() = default;
    PendingSpawn(PendingSpawn&&) noexcept = default;
    PendingSpawn& operator=(PendingSpawn&&) noexcept = default;

    bool valid() const { return pool_ != nullptr; }
    Result<pid_t> AwaitPid();

    // The shard channel this spawn was routed to. Grab it BEFORE AwaitPid
    // (which releases the reference): a caller who wants per-channel waits
    // — e.g. a ProcessHandle parking a kWait on the same shard — needs the
    // channel to outlive the pool's routing bookkeeping.
    std::shared_ptr<ForkServerClient> channel() const { return channel_; }

   private:
    friend class ShardedForkServer;

    ShardedForkServer* pool_ = nullptr;
    // Keeps the channel alive across a concurrent shard restart.
    std::shared_ptr<ForkServerClient> channel_;
    ForkServerClient::PendingReply reply_;
    size_t shard_ = 0;
    uint64_t generation_ = 0;
  };

  // Routes to the least-loaded live shard and submits without waiting.
  // `trace_id` 0 allocates a fresh request id; a routed caller passes its
  // trace id so the wire frame and the shard.dispatch span carry it.
  Result<PendingSpawn> LaunchAsync(const SpawnRequest& req, uint64_t trace_id = 0);

  // Synchronous routed spawn, and the wait routed to the shard that owns the
  // child (only that shard is its parent).
  Result<pid_t> LaunchRequest(const SpawnRequest& req);
  Result<ExitStatus> WaitRemote(pid_t pid);

  // Replaces every shard found dead, then probes each.
  Status Ping();

  // Asks every shard to exit and reaps the shard processes, SIGKILLing each
  // one that did not acknowledge. Ok once every shard is reaped.
  Status Shutdown();

  // Drops the pid→shard ownership entry without waiting. For callers that
  // wait on the shard channel directly (via PendingSpawn::channel()) instead
  // of WaitRemote, so a reaped child does not leak a map entry.
  void ForgetChild(pid_t pid);

  size_t shard_count() const;
  // Server-process pids, one per shard (tests and the fault sweep kill
  // these to exercise crash recovery).
  std::vector<pid_t> shard_pids() const;
  // Number of shard restarts performed so far.
  uint64_t restarts() const;

 private:
  // The generation tells the zygote's children from its predecessors'.
  struct Shard {
    std::unique_ptr<OwnedZygote> zygote;  // null when dead and not restarted
    uint64_t generation = 0;
  };

  explicit ShardedForkServer(const Options& options) : options_(options) {}

  // Makes a forked zygote shards_[idx]'s OwnedZygote (mu_ held).
  void AdoptShardLocked(size_t idx, ForkServerHandle handle);
  // Stops shards_[idx]'s zygote, whose channel is dead, and forgets its
  // children (mu_ held).
  void CleanupShardLocked(size_t idx);
  // Records pid→shard ownership after a successful routed spawn.
  void RegisterChild(pid_t pid, size_t idx, uint64_t generation);
  // Retires shards_[idx] (CleanupShardLocked) and forks a fresh server in
  // its place; on failure the shard stays dead (mu_ held).
  Status RestartShardLocked(size_t idx);
  // Called when a request failed: replaces every shard whose channel is
  // dead (ReplaceDeadShardsLocked), unless the pool is shut down.
  void NoteShardFailure();
  // Restarts every shard whose channel is dead, whether or not a request
  // was in flight on it (mu_ held).
  void ReplaceDeadShardsLocked();
  // Replaces the dead shards, then picks the live shard with the fewest
  // requests in flight — retrying a failed restart only when no shard is
  // live (mu_ held).
  Result<size_t> RouteLocked();

  Options options_;
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  // child pid → owning {shard, generation}: kWait must go to the parent.
  std::map<pid_t, std::pair<size_t, uint64_t>> owner_;
  uint64_t restarts_ = 0;
  bool shut_down_ = false;
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_SHARDED_H_
