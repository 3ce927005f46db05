// forklift/forkserver: SpawnService adapters for the fork-server data plane.
//
// These bind the location-transparent spawn layer (src/spawn/service.h) to
// the zygote transports: a single pipelined channel (ForkServerTransport) and
// the sharded pool (ShardedTransport). Both hand back ProcessHandles whose
// waits are request-id completions on the owning shard channel, so a caller
// holding a handle never learns — or cares — that the child's parent is a
// server process.
//
// Failure classification (the exactly-once contract the router relies on):
//   * a spawn the wire cannot encode (EMSGSIZE) — nothing was sent and the
//     channel still serves, kUnsupported: the router tries the next route;
//   * connect/start failure, channel already dead, submit failure — the
//     frame never fully reached a healthy channel, so kTransportRetryable;
//   * server replied with an error — the request itself is bad, kRequest;
//   * channel died while the spawn was in flight — the server may have
//     forked before dying, kTransportIndeterminate: surface the error, let
//     the quarantine steer the NEXT request to a fallback route.
#ifndef SRC_FORKSERVER_SERVICE_ADAPTERS_H_
#define SRC_FORKSERVER_SERVICE_ADAPTERS_H_

#include <sys/types.h>

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "src/common/result.h"
#include "src/forkserver/client.h"
#include "src/forkserver/sharded.h"
#include "src/spawn/process_handle.h"
#include "src/spawn/service.h"

namespace forklift {

// Wraps a fork-server child in a ProcessHandle. Wait/TryWait/WaitDeadline
// park a single kWait on `channel` (submitted lazily on the first wait, kept
// in flight across deadline timeouts); Kill is a plain kill(2) since pids
// share our namespace. `on_reaped` (optional) runs exactly once when the
// exit status is collected — transports use it to drop routing bookkeeping.
ProcessHandle MakeRemoteProcessHandle(std::shared_ptr<ForkServerClient> channel, pid_t pid,
                                      std::string route,
                                      std::function<void(pid_t)> on_reaped = {});

// One pipelined zygote channel as a SpawnService route ("forkserver").
// Construction is cheap; the channel is established on first Launch/Probe
// and re-established after a death (each request decides retryability from
// where the failure struck).
class ForkServerTransport final : public SpawnTransport {
 public:
  // Connects to a daemon socket path on first use (forkliftd or
  // ForkServer::Listen).
  static std::unique_ptr<ForkServerTransport> ConnectLazy(std::string socket_path);

  // Starts a private zygote on first use (early — the zygote clones this
  // process's address space) and owns it as one OwnedZygote, which stops it
  // on destruction. A zygote whose channel died is replaced on the next
  // Launch/Probe: destroying its owner kills and reaps it.
  static std::unique_ptr<ForkServerTransport> StartInProcess();

  // Adopts an existing channel (tests, pre-connected daemons). No restart:
  // when the channel dies the route just stays unhealthy.
  static std::unique_ptr<ForkServerTransport> Adopt(std::shared_ptr<ForkServerClient> channel);

  const char* Name() const override { return "forkserver"; }
  bool SupportsPipeStdio() const override { return false; }
  Status Probe() override;
  Result<ProcessHandle> Launch(const Spawner& spawner, uint64_t trace_id,
                               SpawnFailureKind* failure) override;

 private:
  enum class Mode { kConnectPath, kStartProcess, kAdopted };

  explicit ForkServerTransport(Mode mode) : mode_(mode) {}

  // Returns a live channel, (re)establishing it per mode_. Takes mu_; the
  // returned shared_ptr keeps the channel alive outside the lock.
  Result<std::shared_ptr<ForkServerClient>> EnsureChannel();

  Mode mode_;
  std::string socket_path_;

  std::mutex mu_;
  std::shared_ptr<ForkServerClient> channel_;
  std::unique_ptr<OwnedZygote> zygote_;  // kStartProcess: owns channel_'s zygote
};

// The sharded zygote pool as a SpawnService route ("sharded"). The pool's
// own exactly-once routing (resubmit only when the frame never reached a
// healthy shard) runs underneath; this adapter only classifies what escapes
// it.
class ShardedTransport final : public SpawnTransport {
 public:
  // Forks the shard set on first use.
  static std::unique_ptr<ShardedTransport> StartLazy(ShardedForkServer::Options options);

  // Adopts a running pool (shared so handles can outlive the transport).
  static std::unique_ptr<ShardedTransport> Adopt(std::shared_ptr<ShardedForkServer> pool);

  const char* Name() const override { return "sharded"; }
  bool SupportsPipeStdio() const override { return false; }
  Status Probe() override;
  Result<ProcessHandle> Launch(const Spawner& spawner, uint64_t trace_id,
                               SpawnFailureKind* failure) override;

 private:
  ShardedTransport(std::shared_ptr<ShardedForkServer> pool, bool lazy_start)
      : pool_(std::move(pool)), lazy_start_(lazy_start) {}

  Result<std::shared_ptr<ShardedForkServer>> EnsurePool();

  std::mutex mu_;
  std::shared_ptr<ShardedForkServer> pool_;
  bool lazy_start_ = false;
  ShardedForkServer::Options start_options_;
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_SERVICE_ADAPTERS_H_
