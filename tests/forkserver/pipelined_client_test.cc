// Protocol-v2 pipelining, end to end: many requests in flight on one
// channel, replies arriving out of order, a parked kWait that never blocks
// the channel, v1 and v2 clients negotiating against the same server, and a
// multi-threaded stress mix (the TSan target for the pipelined send/receive
// paths).
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/forkserver/client.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/server.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

// Runs a ForkServer on a background thread over a socketpair; returns the
// client. The thread joins at destruction (after Shutdown/EOF).
class InProcessServer {
 public:
  InProcessServer() {
    auto sp = MakeSocketPair();
    EXPECT_TRUE(sp.ok());
    client_ = std::make_unique<ForkServerClient>(std::move(sp->first));
    server_thread_ = std::thread([sock = std::move(sp->second)]() mutable {
      ForkServer server(std::move(sock));
      auto served = server.Serve();
      EXPECT_TRUE(served.ok()) << served.error().ToString();
    });
  }

  ~InProcessServer() {
    (void)client_->Shutdown();
    if (server_thread_.joinable()) {
      server_thread_.join();
    }
  }

  ForkServerClient& client() { return *client_; }

 private:
  std::unique_ptr<ForkServerClient> client_;
  std::thread server_thread_;
};

SpawnRequest TrueRequest() {
  auto req = Spawner("/bin/true").BuildRequest();
  EXPECT_TRUE(req.ok());
  return std::move(req).value();
}

TEST(PipelinedClientTest, BurstOfAsyncSpawnsAllComplete) {
  InProcessServer srv;
  SpawnRequest req = TrueRequest();

  constexpr int kDepth = 16;
  std::vector<ForkServerClient::PendingReply> pending;
  for (int i = 0; i < kDepth; ++i) {
    auto p = srv.client().LaunchAsync(req);
    ASSERT_TRUE(p.ok()) << p.error().ToString();
    pending.push_back(std::move(*p));
  }
  EXPECT_EQ(srv.client().outstanding(), static_cast<size_t>(kDepth));

  std::vector<pid_t> pids;
  for (auto& p : pending) {
    auto pid = p.AwaitPid();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    pids.push_back(*pid);
  }
  EXPECT_EQ(srv.client().outstanding(), 0u);
  for (pid_t pid : pids) {
    auto st = srv.client().WaitRemote(pid);
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
  }
}

// The head-of-line property the v2 protocol exists for: a kWait on a child
// that has not exited parks server-side and other traffic keeps flowing.
TEST(PipelinedClientTest, ParkedWaitDoesNotBlockTheChannel) {
  InProcessServer srv;
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());

  Spawner s("/bin/cat");  // runs until its stdin reaches EOF
  s.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  auto pending = srv.client().LaunchAsync(*req);
  ASSERT_TRUE(pending.ok());
  auto pid = pending->AwaitPid();
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();

  auto wait = srv.client().WaitAsync(*pid);
  ASSERT_TRUE(wait.ok());
  // While that wait is parked, the channel still answers pings and spawns.
  EXPECT_TRUE(srv.client().Ping().ok());
  auto quick = srv.client().LaunchRequest(TrueRequest());
  ASSERT_TRUE(quick.ok());
  auto quick_st = srv.client().WaitRemote(*quick);
  ASSERT_TRUE(quick_st.ok());
  EXPECT_TRUE(quick_st->Success());
  EXPECT_EQ(srv.client().outstanding(), 1u) << "only the parked wait remains";

  // Release the held child; the parked wait completes with its real status.
  hold->write_end.Reset();
  auto st = wait->AwaitExit();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
}

TEST(PipelinedClientTest, RepliesCompleteOutOfSubmissionOrder) {
  InProcessServer srv;
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());

  Spawner slow("/bin/cat");
  slow.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto slow_req = slow.BuildRequest();
  ASSERT_TRUE(slow_req.ok());
  auto slow_pid = srv.client().LaunchRequest(*slow_req);
  ASSERT_TRUE(slow_pid.ok());
  hold->read_end.Reset();

  // Submitted first, completes last.
  auto slow_wait = srv.client().WaitAsync(*slow_pid);
  ASSERT_TRUE(slow_wait.ok());

  auto fast_pid = srv.client().LaunchRequest(TrueRequest());
  ASSERT_TRUE(fast_pid.ok());
  auto fast_st = srv.client().WaitRemote(*fast_pid);
  ASSERT_TRUE(fast_st.ok());
  EXPECT_TRUE(fast_st->Success());

  hold->write_end.Reset();
  auto slow_st = slow_wait->AwaitExit();
  ASSERT_TRUE(slow_st.ok());
  EXPECT_TRUE(slow_st->Success());
}

// Per-frame version negotiation: a legacy v1 client and a pipelined v2
// client work against the SAME server process concurrently.
TEST(PipelinedClientTest, V1AndV2ClientsShareOneServer) {
  std::string path = ::testing::TempDir() + "pipelined_nego_" +
                     std::to_string(::getpid()) + ".sock";
  auto server = ForkServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  std::thread server_thread([srv = std::make_shared<ForkServer>(std::move(*server))]() {
    auto served = srv->Serve();
    EXPECT_TRUE(served.ok()) << served.error().ToString();
  });

  {
    auto legacy = LegacyForkServerClient::ConnectPath(path);
    ASSERT_TRUE(legacy.ok()) << legacy.error().ToString();
    auto v2 = ForkServerClient::ConnectPath(path);
    ASSERT_TRUE(v2.ok()) << v2.error().ToString();

    EXPECT_TRUE((*legacy)->Ping().ok());
    EXPECT_TRUE((*v2)->Ping().ok());

    // A v1 channel cannot park a wait, so the timed poll is unsupported.
    EXPECT_FALSE((*legacy)->WaitRemoteFor(1, 0).ok());

    Spawner s("/bin/true");
    auto legacy_child = (*legacy)->Spawn(s);
    ASSERT_TRUE(legacy_child.ok()) << legacy_child.error().ToString();
    auto v2_child = (*v2)->Spawn(s);
    ASSERT_TRUE(v2_child.ok()) << v2_child.error().ToString();
    EXPECT_TRUE(legacy_child->Wait().value().Success());
    EXPECT_TRUE(v2_child->Wait().value().Success());

    ASSERT_TRUE((*v2)->Shutdown().ok());
  }
  server_thread.join();
}

// The TSan target: several threads pipeline spawns, waits, and pings through
// one shared client at depth > 1, exercising the send-lock/slot-map/receiver
// interleavings.
TEST(PipelinedClientTest, MultiThreadedPipelinedStress) {
  InProcessServer srv;
  SpawnRequest req = TrueRequest();

  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  constexpr int kDepth = 4;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&srv, &req, &failures] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<ForkServerClient::PendingReply> window;
        for (int d = 0; d < kDepth; ++d) {
          auto p = srv.client().LaunchAsync(req);
          if (!p.ok()) {
            ++failures;
            return;
          }
          window.push_back(std::move(*p));
        }
        if (!srv.client().Ping().ok()) {
          ++failures;
          return;
        }
        for (auto& p : window) {
          auto pid = p.AwaitPid();
          if (!pid.ok()) {
            ++failures;
            return;
          }
          auto st = srv.client().WaitRemote(*pid);
          if (!st.ok() || !st->Success()) {
            ++failures;
            return;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

// Regression: frames enqueued while an fd-carrying frame was inside its
// synchronous sendmsg used to be stranded — the enqueuers saw an active
// flusher and returned, counting on it, but the fd sender never re-drained
// the queue before stepping down, so nobody shipped them and their Await*
// hung forever. The fd thread keeps the flusher slot busy inside SendFrame
// while the spawn threads pile frames up behind it.
TEST(PipelinedClientTest, FdFramesInterleavedWithAsyncSpawnsDoNotStrand) {
  InProcessServer srv;
  SpawnRequest req = TrueRequest();

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread fd_thread([&srv, &stop, &failures] {
    // NewChannel ships a socket via SCM_RIGHTS — the synchronous fd path.
    while (!stop.load(std::memory_order_relaxed)) {
      auto ch = srv.client().NewChannel();
      if (!ch.ok()) {
        ADD_FAILURE() << "NewChannel: " << ch.error().ToString();
        ++failures;
        return;
      }
    }
  });

  constexpr int kThreads = 3;
  constexpr int kPerThread = 24;
  std::vector<std::thread> spawners;
  spawners.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    spawners.emplace_back([&srv, &req, &failures] {
      for (int i = 0; i < kPerThread; ++i) {
        auto pid = srv.client().LaunchRequest(req);
        if (!pid.ok()) {
          ADD_FAILURE() << "LaunchRequest: " << pid.error().ToString();
          ++failures;
          return;
        }
        auto st = srv.client().WaitRemote(*pid);
        if (!st.ok() || !st->Success()) {
          ADD_FAILURE() << "WaitRemote: " << (st.ok() ? "bad status" : st.error().ToString());
          ++failures;
          return;
        }
      }
    });
  }
  for (auto& th : spawners) {
    th.join();
  }
  stop.store(true, std::memory_order_relaxed);
  fd_thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

// The timed poll: a zero-timeout WaitRemoteFor on a live child reports
// "still running" and leaves the wait parked; a later poll on the SAME
// parked wait collects the real status (the server answers each wait exactly
// once, so the handle must persist between polls).
TEST(PipelinedClientTest, WaitRemoteForPollsWithoutConsumingTheWait) {
  InProcessServer srv;
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());

  Spawner s("/bin/cat");  // runs until its stdin reaches EOF
  s.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  auto pid = srv.client().LaunchRequest(*req);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();

  auto poll = srv.client().WaitRemoteFor(*pid, 0);
  ASSERT_TRUE(poll.ok()) << poll.error().ToString();
  EXPECT_FALSE(poll->has_value());

  hold->write_end.Reset();
  auto done = srv.client().WaitRemoteFor(*pid, 5.0);
  ASSERT_TRUE(done.ok()) << done.error().ToString();
  ASSERT_TRUE(done->has_value());
  EXPECT_TRUE((*done)->Success());
}

// Mixing the poll with the blocking wait: WaitRemote must adopt a wait
// already parked by WaitRemoteFor instead of submitting a second kWait that
// would race it for the child's one exit answer.
TEST(PipelinedClientTest, WaitRemoteAdoptsAParkedPoll) {
  InProcessServer srv;
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());

  Spawner s("/bin/cat");
  s.SetStdin(Stdio::Fd(hold->read_end.get()));
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  auto pid = srv.client().LaunchRequest(*req);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();

  auto poll = srv.client().WaitRemoteFor(*pid, 0);
  ASSERT_TRUE(poll.ok()) << poll.error().ToString();
  EXPECT_FALSE(poll->has_value());

  hold->write_end.Reset();
  auto st = srv.client().WaitRemote(*pid);
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
}

// Dropping a PendingReply without awaiting it must not leak its slot or
// confuse the receiver when the reply later arrives.
TEST(PipelinedClientTest, AbandonedPendingReplyIsHarmless) {
  InProcessServer srv;
  {
    auto p = srv.client().PingAsync();
    ASSERT_TRUE(p.ok());
    // Dropped here, possibly before the pong arrives.
  }
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(srv.client().Ping().ok());
  }
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

// The zygote's own spawn counter, scraped over the channel.
uint64_t ZygoteSpawnsTotal(ForkServerClient& client) {
  auto text = client.Stats(obs::StatsFormat::kPrometheus);
  EXPECT_TRUE(text.ok());
  const std::string needle = "\nforklift_forkserver_spawns_total ";
  size_t at = text.ok() ? text->find(needle) : std::string::npos;
  return at == std::string::npos ? 0 : std::stoull(text->substr(at + needle.size()));
}

// Exec failures inside a zygote process, interleaved with successes on one
// pipelined channel: every reply completes exactly once with its own pid or
// errno, only successes count as spawns, and the zygote reaps the children
// that failed instead of leaving them as zombies.
TEST(PipelinedClientTest, ZygoteExecFailuresCompleteOnceAndLeaveNoChildren) {
  const std::string noexec = ::testing::TempDir() + "forklift_noexec_probe";
  {
    std::ofstream(noexec) << "#!/bin/sh\n";
    ASSERT_EQ(::chmod(noexec.c_str(), 0644), 0);
  }
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const pid_t zygote = handle->server_pid;
  {
    ForkServerClient client(std::move(handle->client_sock));
    const uint64_t spawns_before = ZygoteSpawnsTotal(client);

    struct Case {
      std::string program;
      int err;  // 0: must launch
    };
    const Case cases[] = {{"/bin/true", 0}, {"/nonexistent/forklift-probe", ENOENT},
                          {noexec, EACCES}};
    constexpr int kRounds = 8;
    std::vector<std::pair<int, ForkServerClient::PendingReply>> burst;
    for (int round = 0; round < kRounds; ++round) {
      for (const Case& c : cases) {
        auto req = Spawner(c.program).BuildRequest();
        ASSERT_TRUE(req.ok());
        auto p = client.LaunchAsync(*req);
        ASSERT_TRUE(p.ok()) << p.error().ToString();
        burst.emplace_back(c.err, std::move(*p));
      }
    }
    std::vector<pid_t> pids;
    for (auto& [err, pending] : burst) {
      auto pid = pending.AwaitPid();
      EXPECT_FALSE(pending.valid()) << "a reply must complete its request once";
      if (err == 0) {
        ASSERT_TRUE(pid.ok()) << pid.error().ToString();
        pids.push_back(*pid);
      } else {
        ASSERT_FALSE(pid.ok()) << "exec failure reported as pid " << *pid;
        EXPECT_EQ(pid.error().code(), err) << pid.error().ToString();
      }
    }
    EXPECT_EQ(client.outstanding(), 0u);
    for (pid_t pid : pids) {
      auto st = client.WaitRemote(pid);
      ASSERT_TRUE(st.ok()) << st.error().ToString();
      EXPECT_TRUE(st->Success());
    }
    EXPECT_EQ(ZygoteSpawnsTotal(client) - spawns_before, static_cast<uint64_t>(kRounds));

    const std::string children =
        "/proc/" + std::to_string(zygote) + "/task/" + std::to_string(zygote) + "/children";
    std::ifstream in(children);
    ASSERT_TRUE(in.good()) << children;
    std::string left((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    EXPECT_EQ(left.find_first_not_of(" \n"), std::string::npos) << "zygote children: " << left;
    EXPECT_TRUE(client.Shutdown().ok());
  }
  EXPECT_TRUE(WaitPid(zygote).ok());
  std::remove(noexec.c_str());
}

// --- kSpawnBatch: a burst of spawns in one frame, one reply per entry ---

TEST(SpawnBatchTest, BatchOfTrivialSpawnsAllComplete) {
  InProcessServer srv;
  std::vector<SpawnRequest> reqs(16, TrueRequest());
  auto batch = srv.client().LaunchBatchAsync(reqs);
  ASSERT_TRUE(batch.ok()) << batch.error().ToString();
  ASSERT_EQ(batch->size(), reqs.size());
  EXPECT_EQ(srv.client().outstanding(), reqs.size());
  for (auto& pending : *batch) {
    auto pid = pending.AwaitPid();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    auto st = srv.client().WaitRemote(*pid);
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());
  }
  EXPECT_EQ(srv.client().outstanding(), 0u);
}

TEST(SpawnBatchTest, SynchronousLaunchBatchReturnsPerEntryResults) {
  InProcessServer srv;
  // A bad entry mid-batch fails ONLY its own slot; the frame still launches
  // the others (the server decodes all-or-nothing, but a well-formed request
  // for a missing program fails at exec, per entry).
  std::vector<SpawnRequest> reqs(4, TrueRequest());
  auto missing = Spawner("/definitely/not/a/program").BuildRequest();
  ASSERT_TRUE(missing.ok());
  reqs.insert(reqs.begin() + 2, std::move(*missing));

  auto results = srv.client().LaunchBatch(reqs);
  ASSERT_EQ(results.size(), 5u);
  for (size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].ok()) << "missing program must fail its own slot";
      continue;
    }
    ASSERT_TRUE(results[i].ok()) << results[i].error().ToString();
    auto st = srv.client().WaitRemote(results[i].value());
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->Success());
  }
  EXPECT_TRUE(srv.client().Ping().ok()) << "channel must survive a mixed batch";
}

TEST(SpawnBatchTest, BatchCarriesDescriptorsPerEntry) {
  // Each entry writes a distinct string to its own pipe via a transferred
  // descriptor: the batch frame's fds ride one sendmsg and each entry must
  // resolve its OWN slice of the arrival list.
  InProcessServer srv;
  constexpr int kN = 4;
  std::vector<Pipe> pipes;
  std::vector<SpawnRequest> reqs;
  for (int i = 0; i < kN; ++i) {
    auto p = MakePipe();
    ASSERT_TRUE(p.ok());
    Spawner s("/bin/echo");
    s.Arg("entry" + std::to_string(i)).SetStdout(Stdio::Fd(p->write_end.get()));
    auto req = s.BuildRequest();
    ASSERT_TRUE(req.ok());
    reqs.push_back(std::move(*req));
    pipes.push_back(std::move(*p));
  }
  auto results = srv.client().LaunchBatch(reqs);
  ASSERT_EQ(results.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(results[i].ok()) << results[i].error().ToString();
    auto st = srv.client().WaitRemote(results[i].value());
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->Success());
    pipes[i].write_end.Reset();
    auto out = ReadAll(pipes[i].read_end.get());
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, "entry" + std::to_string(i) + "\n");
  }
}

TEST(SpawnBatchTest, OverweightBatchDegradesToSingles) {
  // A burst whose combined fd transfers exceed the per-frame ancillary cap
  // cannot ride one frame; LaunchBatch must fall back to per-entry requests
  // (and the failed encode must not poison the channel or leak slots).
  InProcessServer srv;
  constexpr size_t kN = kMaxFdsPerFrame + 2;
  std::vector<Pipe> pipes;
  std::vector<SpawnRequest> reqs;
  for (size_t i = 0; i < kN; ++i) {
    auto p = MakePipe();
    ASSERT_TRUE(p.ok());
    Spawner s("/bin/true");
    s.SetStdout(Stdio::Fd(p->write_end.get()));
    auto req = s.BuildRequest();
    ASSERT_TRUE(req.ok());
    reqs.push_back(std::move(*req));
    pipes.push_back(std::move(*p));
  }
  auto results = srv.client().LaunchBatch(reqs);
  ASSERT_EQ(results.size(), kN);
  for (auto& r : results) {
    ASSERT_TRUE(r.ok()) << r.error().ToString();
    auto st = srv.client().WaitRemote(r.value());
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->Success());
  }
  EXPECT_EQ(srv.client().outstanding(), 0u);
  EXPECT_TRUE(srv.client().Ping().ok());
}

TEST(SpawnBatchTest, EmptyAndOversizedBatchRejectedClientSide) {
  InProcessServer srv;
  auto empty = srv.client().LaunchBatchAsync({});
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  std::vector<SpawnRequest> huge(kMaxSpawnBatch + 1, TrueRequest());
  EXPECT_FALSE(srv.client().LaunchBatchAsync(huge).ok());
  EXPECT_TRUE(srv.client().Ping().ok());
}

}  // namespace
}  // namespace forklift
