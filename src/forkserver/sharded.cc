#include "src/forkserver/sharded.h"

#include <unistd.h>

#include <cerrno>
#include <utility>

#include "src/faultinject/faultinject.h"
#include "src/forkserver/server.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace forklift {

namespace {

size_t OnlineCpuCount() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

obs::Counter RestartCounter() {
  return obs::MetricsRegistry::Global().GetCounter("forklift_shard_restarts_total");
}

obs::Gauge LiveShardsGauge() {
  return obs::MetricsRegistry::Global().GetGauge("forklift_shards_live");
}

// Forks one shard's server process.
Result<ForkServerHandle> ForkShard() {
  // Models the socketpair/fork resources the shard start is about to claim;
  // the sweep drives this site to prove a failed shard start (initial or
  // restart) degrades cleanly instead of wedging the pool.
  auto inj = fault::Check("sharded.start_shard", fault::Op::kCreateFd);
  if (inj.is_errno()) {
    errno = inj.err;
    return ErrnoError("sharded forkserver: starting shard");
  }
  return StartForkServerProcess();
}

}  // namespace

Result<std::unique_ptr<ShardedForkServer>> ShardedForkServer::Start(const Options& options) {
  Options opts = options;
  if (opts.shards == 0) {
    opts.shards = OnlineCpuCount();
  }
  // Fork every shard before opening any channel. Each channel starts a
  // receiver thread, and a shard forked while that thread is inside the
  // allocator inherits an allocator lock nobody will release: the zygote
  // then hangs on its first allocation. (A restart still forks from a
  // threaded process.)
  std::vector<ForkServerHandle> handles;
  handles.reserve(opts.shards);
  for (size_t i = 0; i < opts.shards; ++i) {
    auto handle = ForkShard();
    if (!handle.ok()) {
      // Owning each shard already forked stops it, so a failed Start leaks
      // neither processes nor sockets.
      for (ForkServerHandle& forked : handles) {
        (void)OwnedZygote(std::move(forked)).Stop();
      }
      return Err(handle.error());
    }
    handles.push_back(std::move(*handle));
  }
  std::unique_ptr<ShardedForkServer> pool(new ShardedForkServer(opts));
  std::lock_guard<std::mutex> lock(pool->mu_);
  pool->shards_.resize(opts.shards);
  for (size_t i = 0; i < opts.shards; ++i) {
    pool->AdoptShardLocked(i, std::move(handles[i]));
  }
  return pool;
}

ShardedForkServer::~ShardedForkServer() { (void)Shutdown(); }

void ShardedForkServer::AdoptShardLocked(size_t idx, ForkServerHandle handle) {
  Shard& shard = shards_[idx];
  shard.zygote = std::make_unique<OwnedZygote>(std::move(handle));
  ++shard.generation;
  LiveShardsGauge().Add(1);
}

void ShardedForkServer::CleanupShardLocked(size_t idx) {
  Shard& shard = shards_[idx];
  if (shard.zygote != nullptr) {
    LiveShardsGauge().Add(-1);
  }
  // Its channel is dead — a failed send can kill it while the zygote still
  // serves — so its owner kills the zygote before the reap, never awaits it.
  shard.zygote.reset();
  // Children of the dead shard have no parent left to wait on them; forget
  // them so their waits fail fast with ECHILD instead of routing nowhere.
  std::erase_if(owner_, [idx, gen = shard.generation](const auto& entry) {
    return entry.second.first == idx && entry.second.second == gen;
  });
}

Status ShardedForkServer::RestartShardLocked(size_t idx) {
  CleanupShardLocked(idx);
  // Forking under mu_ is safe: the forked shard never takes it (it closes
  // every inherited descriptor and serves its own socket), so the callers
  // that hold mu_ suppress R9 with "see RestartShardLocked".
  FORKLIFT_ASSIGN_OR_RETURN(ForkServerHandle handle, ForkShard());
  AdoptShardLocked(idx, std::move(handle));
  ++restarts_;
  RestartCounter().Increment();
  return Status::Ok();
}

void ShardedForkServer::NoteShardFailure() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!shut_down_) {
    ReplaceDeadShardsLocked();  // forklint:ignore(R9) — see RestartShardLocked
  }
}

void ShardedForkServer::ReplaceDeadShardsLocked() {
  std::vector<size_t> dead;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].zygote != nullptr && shards_[i].zygote->channel()->dead()) {
      CleanupShardLocked(i);
      dead.push_back(i);
    }
  }
  // Retire every dead shard before forking any replacement, so that no shard
  // is forked while the pool still holds a dead channel and its finished
  // receiver thread.
  for (size_t i : dead) {
    (void)RestartShardLocked(i);
  }
}

Result<size_t> ShardedForkServer::RouteLocked() {
  ReplaceDeadShardsLocked();
  size_t best = shards_.size();
  size_t best_load = SIZE_MAX;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const Shard& shard = shards_[i];
    if (shard.zygote == nullptr) {
      continue;  // its restart failed
    }
    size_t load = shard.zygote->channel()->outstanding();
    if (load < best_load) {
      best = i;
      best_load = load;
    }
  }
  if (best < shards_.size()) {
    return best;
  }
  if (shards_.empty()) {
    return LogicalError("sharded forkserver: no live shard");
  }
  // No shard is live, each restart having failed: retry the first.
  FORKLIFT_RETURN_IF_ERROR(RestartShardLocked(0));
  return size_t{0};
}

Result<ShardedForkServer::PendingSpawn> ShardedForkServer::LaunchAsync(const SpawnRequest& req,
                                                                       uint64_t trace_id) {
  // Allocate once, up front: the retry below re-routes the SAME request, so
  // both attempts (and the trace spans) share one id.
  if (trace_id == 0) {
    trace_id = obs::NextRequestId();
  }
  Status last_error = Status::Ok();
  // One retry: a submit failure means the frame never fully reached a healthy
  // channel, so re-routing cannot double-spawn. Failures after the frame is
  // on the wire surface through AwaitPid and are never retried here.
  for (int attempt = 0; attempt < 2; ++attempt) {
    size_t idx;
    uint64_t generation;
    std::shared_ptr<ForkServerClient> client;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shut_down_) {
        return LogicalError("sharded forkserver: already shut down");
      }
      FORKLIFT_ASSIGN_OR_RETURN(size_t routed, RouteLocked());  // forklint:ignore(R9) — see RestartShardLocked
      idx = routed;
      generation = shards_[idx].generation;
      client = shards_[idx].zygote->channel();
    }
    auto pending = client->LaunchAsync(req, trace_id);
    if (pending.ok()) {
      obs::Tracer::Global().Event(trace_id, "shard.dispatch",
                                  "shard=" + std::to_string(idx));
      PendingSpawn spawn;
      spawn.pool_ = this;
      spawn.channel_ = std::move(client);
      spawn.reply_ = std::move(*pending);
      spawn.shard_ = idx;
      spawn.generation_ = generation;
      return spawn;
    }
    // A send that failed killed the channel, and the retry's route replaces
    // the dead shard. A spawn that failed to encode left the shard serving,
    // and no other shard could encode it either.
    if (!client->dead()) {
      return Err(pending.error());
    }
    last_error = Err(pending.error());
  }
  return Err(last_error.error());
}

Result<pid_t> ShardedForkServer::PendingSpawn::AwaitPid() {
  if (!valid()) {
    return LogicalError("PendingSpawn::AwaitPid on empty handle");
  }
  ShardedForkServer* pool = pool_;
  pool_ = nullptr;
  auto pid = reply_.AwaitPid();
  channel_.reset();
  if (!pid.ok()) {
    pool->NoteShardFailure();
    return Err(pid.error());
  }
  pool->RegisterChild(*pid, shard_, generation_);
  return *pid;
}

void ShardedForkServer::RegisterChild(pid_t pid, size_t idx, uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shut_down_ || shards_[idx].generation != generation) {
    return;  // the shard is already gone; its child is unwaitable
  }
  owner_[pid] = {idx, generation};
}

Result<pid_t> ShardedForkServer::LaunchRequest(const SpawnRequest& req) {
  FORKLIFT_ASSIGN_OR_RETURN(PendingSpawn pending, LaunchAsync(req));
  return pending.AwaitPid();
}

Result<ExitStatus> ShardedForkServer::WaitRemote(pid_t pid) {
  size_t idx;
  uint64_t generation;
  std::shared_ptr<ForkServerClient> client;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = owner_.find(pid);
    if (it == owner_.end()) {
      return Err(Error(ECHILD, "sharded forkserver: pid " + std::to_string(pid) +
                                   " is not owned by any live shard"));
    }
    idx = it->second.first;
    generation = it->second.second;
    if (shards_[idx].generation != generation || shards_[idx].zygote == nullptr) {
      owner_.erase(it);
      return Err(Error(ECHILD, "sharded forkserver: owning shard of pid " +
                                   std::to_string(pid) + " is gone"));
    }
    client = shards_[idx].zygote->channel();
  }
  auto status = client->WaitRemote(pid);
  client.reset();
  {
    std::lock_guard<std::mutex> lock(mu_);
    owner_.erase(pid);
  }
  if (!status.ok()) {
    NoteShardFailure();
  }
  return status;
}

Status ShardedForkServer::Ping() {
  std::vector<std::shared_ptr<ForkServerClient>> clients;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      return LogicalError("sharded forkserver: already shut down");
    }
    ReplaceDeadShardsLocked();  // forklint:ignore(R9) — see RestartShardLocked
    for (const Shard& shard : shards_) {
      if (shard.zygote != nullptr) {
        clients.push_back(shard.zygote->channel());
      }
    }
  }
  if (clients.empty()) {
    return LogicalError("sharded forkserver: no live shard");
  }
  for (auto& client : clients) {
    FORKLIFT_RETURN_IF_ERROR(client->Ping());
  }
  return Status::Ok();
}

Status ShardedForkServer::Shutdown() {
  std::vector<std::unique_ptr<OwnedZygote>> to_stop;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shut_down_) {
      return Status::Ok();
    }
    shut_down_ = true;
    for (Shard& shard : shards_) {
      if (shard.zygote != nullptr) {
        LiveShardsGauge().Add(-1);
        to_stop.push_back(std::move(shard.zygote));
      }
    }
    owner_.clear();
  }
  Status first_error = Status::Ok();
  for (auto& zygote : to_stop) {  // each kShutdown round trip outside mu_
    Status stopped = zygote->Stop();
    if (!stopped.ok() && first_error.ok()) {
      first_error = stopped;
    }
  }
  return first_error;
}

void ShardedForkServer::ForgetChild(pid_t pid) {
  std::lock_guard<std::mutex> lock(mu_);
  owner_.erase(pid);
}

size_t ShardedForkServer::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::vector<pid_t> ShardedForkServer::shard_pids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<pid_t> pids;
  pids.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    pids.push_back(shard.zygote != nullptr ? shard.zygote->pid() : -1);
  }
  return pids;
}

uint64_t ShardedForkServer::restarts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return restarts_;
}

}  // namespace forklift
