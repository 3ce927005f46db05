// Pipelining, end to end: many requests in flight on one channel, replies
// arriving out of order, a parked kWait that never blocks the channel, a
// retired v1 frame and misbehaving peers refused without disturbing the
// server or its other clients, and a
// multi-threaded stress mix (the TSan target for the pipelined send/receive
// paths).
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
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
#include "src/forkserver/wire.h"
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

// A plain blocking connection to a listening server, for speaking raw frames.
UniqueFd ConnectRaw(const std::string& path) {
  UniqueFd sock(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  EXPECT_TRUE(sock.valid());
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  path.copy(addr.sun_path, sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(sock.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return sock;
}

// There is one protocol version. A frame in the retired v1 shape — a 12-byte
// {magic, version 1, type} header with no request_id — is refused with an
// error frame under request_id 0, which no request can claim, and the server
// keeps serving: the v2 channel beside it and the same socket's next frame.
TEST(PipelinedClientTest, V1FrameIsRefusedAndTheServerKeepsServing) {
  std::string path = ::testing::TempDir() + "pipelined_v1_" +
                     std::to_string(::getpid()) + ".sock";
  auto server = ForkServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  std::thread server_thread([srv = std::make_shared<ForkServer>(std::move(*server))]() {
    auto served = srv->Serve();
    EXPECT_TRUE(served.ok()) << served.error().ToString();
  });

  {
    auto v2 = ForkServerClient::ConnectPath(path);
    ASSERT_TRUE(v2.ok()) << v2.error().ToString();
    ASSERT_TRUE((*v2)->Ping().ok());

    UniqueFd raw = ConnectRaw(path);
    // A v2 ping's {magic, version, type} words, cut before the request_id
    // and relabelled version 1 (the version word is little-endian).
    std::string frame = EncodeControl(MsgType::kPing).substr(0, 12);
    frame[4] = 1;
    ASSERT_TRUE(SendFrame(raw.get(), frame).ok());
    FrameBuffer fb;
    Frame rx;
    auto got = RecvFrame(raw.get(), &fb, &rx);
    ASSERT_TRUE(got.ok()) << got.error().ToString();
    ASSERT_TRUE(*got);
    FrameMeta meta{kForkServerProtocolV2, 99};
    auto reply = DecodeSpawnReply(rx.payload, &meta);
    ASSERT_TRUE(reply.ok()) << reply.error().ToString();
    EXPECT_FALSE(reply->ok);
    EXPECT_EQ(meta.request_id, 0u);
    EXPECT_NE(reply->context.find("version"), std::string::npos) << reply->context;

    // The refusing socket still speaks v2.
    ASSERT_TRUE(
        SendFrame(raw.get(), EncodeControl(MsgType::kPing, FrameMeta{kForkServerProtocolV2, 42}))
            .ok());
    got = RecvFrame(raw.get(), &fb, &rx);
    ASSERT_TRUE(got.ok()) << got.error().ToString();
    ASSERT_TRUE(*got);
    WireReader reader(rx.payload);
    auto hdr = DecodeHeader(reader);
    ASSERT_TRUE(hdr.ok()) << hdr.error().ToString();
    EXPECT_EQ(hdr->type, MsgType::kPong);
    EXPECT_EQ(hdr->meta.request_id, 42u);

    // So does the v2 channel beside it.
    EXPECT_TRUE((*v2)->Ping().ok());
    auto pid = (*v2)->LaunchRequest(TrueRequest());
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    EXPECT_TRUE((*v2)->WaitRemote(*pid).value().Success());
    ASSERT_TRUE((*v2)->Shutdown().ok());
  }
  server_thread.join();
}

// A peer that hangs up mid-frame, sends a hostile length prefix, or leaves
// before its reply is written costs only its own channel. Three such peers are
// staged on the listener before Serve starts: one hangs up mid-frame, one
// sends a length prefix past the payload cap and stays connected, and one
// submits a kSpawn and leaves before its reply is written. A well-behaved
// client beside them is still served, the connected hostile peer reads EOF,
// and Serve ends cleanly on kShutdown.
TEST(PipelinedClientTest, MisbehavingPeersCloseOnlyTheirOwnChannels) {
  std::string path = ::testing::TempDir() + "pipelined_hostile_" +
                     std::to_string(::getpid()) + ".sock";
  auto server = ForkServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  {
    UniqueFd torn = ConnectRaw(path);
    const uint32_t len = 64;
    ASSERT_TRUE(WriteFull(torn.get(), &len, sizeof(len)).ok());
    ASSERT_TRUE(WriteFull(torn.get(), "partial", 7).ok());
  }
  UniqueFd hostile = ConnectRaw(path);
  const uint32_t huge = 0xFFFFFFFFu;
  ASSERT_TRUE(WriteFull(hostile.get(), &huge, sizeof(huge)).ok());
  {
    UniqueFd quitter = ConnectRaw(path);
    std::vector<int> fds;
    auto spawn = EncodeSpawnRequest(TrueRequest(), &fds, FrameMeta{kForkServerProtocolV2, 7});
    ASSERT_TRUE(spawn.ok()) << spawn.error().ToString();
    ASSERT_TRUE(SendFrame(quitter.get(), *spawn).ok());
  }

  std::thread server_thread([srv = std::move(*server)]() mutable {
    auto served = srv.Serve();
    EXPECT_TRUE(served.ok()) << served.error().ToString();
  });
  // No ASSERT until the join: the server thread must not outlive the test.
  auto client = ForkServerClient::ConnectPath(path);
  EXPECT_TRUE(client.ok()) << client.error().ToString();
  if (client.ok()) {
    EXPECT_TRUE((*client)->Ping().ok());
    auto pid = (*client)->LaunchRequest(TrueRequest());
    EXPECT_TRUE(pid.ok()) << pid.error().ToString();
    if (pid.ok()) {
      auto st = (*client)->WaitRemote(*pid);
      EXPECT_TRUE(st.ok() && st->Success()) << (st.ok() ? st->ToString() : st.error().ToString());
    }
    char byte;
    EXPECT_EQ(::read(hostile.get(), &byte, 1), 0) << "the hostile peer's channel must be closed";
    EXPECT_TRUE((*client)->Shutdown().ok());
  }
  server_thread.join();
}

// The TSan target: several threads pipeline spawns, waits, and pings through
// one shared client at depth > 1. Each submitter writes its own frame under
// the send lock while the receiver completes slots, so this exercises the
// send-lock/slot-map/receiver interleavings.
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

// The send lock orders fd-carrying frames among plain ones: while one thread
// ships sockets via SCM_RIGHTS (kNewChannel) in a loop, spawn threads keep
// submitting plain frames on the same channel. Every frame must reach the
// zygote whole and in one piece — a plain frame's bytes inside an fd frame
// would tear both — and every Await* must complete.
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

// Null stdout plus MergeStdout must discard stderr on a wire route as it
// does locally. The zygote child opens /dev/null at fd 1 itself, so "fd 1"
// as a dup2 source names the caller's stdout — which the encoder would ship
// over SCM_RIGHTS, landing the child's stderr on the caller's terminal.
TEST(PipelinedClientTest, MergeStdoutAfterNullStdoutStaysOffTheCallersStdout) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const pid_t zygote = handle->server_pid;
  {
    ForkServerClient client(std::move(handle->client_sock));
    Spawner s("/bin/sh");
    s.Args({"-c", "echo leak >&2"}).SetStdout(Stdio::Null()).SetStderr(Stdio::MergeStdout());
    auto req = s.BuildRequest();
    ASSERT_TRUE(req.ok()) << req.error().ToString();

    // Our fd 1 is a pipe for the launch only; nothing may print until the
    // real stdout is back.
    auto sink = MakePipe();
    ASSERT_TRUE(sink.ok());
    std::fflush(stdout);
    const int saved_stdout = ::dup(1);
    ASSERT_GE(saved_stdout, 0);
    ASSERT_EQ(::dup2(sink->write_end.get(), 1), 1);
    auto pid = client.LaunchRequest(*req);
    ASSERT_EQ(::dup2(saved_stdout, 1), 1);
    ::close(saved_stdout);
    sink->write_end.Reset();
    ASSERT_TRUE(pid.ok()) << pid.error().ToString();
    auto st = client.WaitRemote(*pid);
    ASSERT_TRUE(st.ok()) << st.error().ToString();
    EXPECT_TRUE(st->Success());

    // The child has exited, so whatever it wrote is already in the pipe.
    ASSERT_TRUE(SetNonBlocking(sink->read_end.get(), true).ok());
    char buf[64];
    ssize_t n = ::read(sink->read_end.get(), buf, sizeof(buf));
    EXPECT_LE(n, 0) << "caller's stdout got: " << std::string(buf, n > 0 ? n : 0);
    EXPECT_TRUE(client.Shutdown().ok());
  }
  EXPECT_TRUE(WaitPid(zygote).ok());
}

}  // namespace
}  // namespace forklift
