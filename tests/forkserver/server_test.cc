// End-to-end zygote tests: in-process server on a thread, plus the real
// separate-process server. These are the §6 "fork servers are how the
// ecosystem copes" experiments in executable form.
#include "src/forkserver/server.h"

#include <dirent.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/common/pipe.h"
#include "src/common/syscall.h"
#include "src/faultinject/faultinject.h"
#include "src/forkserver/client.h"
#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/pool.h"
#include "src/forkserver/protocol.h"
#include "src/forkserver/wire.h"
#include "src/obs/registry.h"
#include "src/spawn/spawner.h"
#include "tests/forkserver/test_support.h"

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

// Ships the spawner's request over `client`; returns the remote pid.
Result<pid_t> SpawnVia(ForkServerClient& client, const Spawner& spawner) {
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, spawner.BuildRequest());
  return client.LaunchRequest(req);
}

TEST(ForkServerTest, PingPong) {
  InProcessServer srv;
  EXPECT_TRUE(srv.client().Ping().ok());
}

TEST(ForkServerTest, SpawnTrueAndWait) {
  InProcessServer srv;
  Spawner s("/bin/true");
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  EXPECT_GT(*pid, 0);
  auto st = srv.client().WaitRemote(*pid);
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->Success());
}

TEST(ForkServerTest, ExitCodePropagates) {
  InProcessServer srv;
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 5"});
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_TRUE(pid.ok());
  auto st = srv.client().WaitRemote(*pid);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->exit_code, 5);
}

TEST(ForkServerTest, MissingProgramReportedAsError) {
  InProcessServer srv;
  Spawner s("/no/such/program");
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_FALSE(pid.ok());
  EXPECT_EQ(pid.error().code(), ENOENT) << pid.error().ToString();
}

TEST(ForkServerTest, OutputThroughTransferredPipe) {
  InProcessServer srv;
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());

  Spawner s("/bin/echo");
  s.Arg("zygote-output").SetStdout(Stdio::Fd(pipe->write_end.get()));
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  pipe->write_end.Reset();
  auto data = ReadAll(pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "zygote-output\n");
  ASSERT_TRUE(srv.client().WaitRemote(*pid).ok());
}

TEST(ForkServerTest, StdinThroughTransferredPipe) {
  InProcessServer srv;
  auto in_pipe = MakePipe();
  auto out_pipe = MakePipe();
  ASSERT_TRUE(in_pipe.ok());
  ASSERT_TRUE(out_pipe.ok());

  Spawner s("cat");
  s.SetStdin(Stdio::Fd(in_pipe->read_end.get()))
      .SetStdout(Stdio::Fd(out_pipe->write_end.get()));
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  in_pipe->read_end.Reset();
  out_pipe->write_end.Reset();
  ASSERT_TRUE(WriteFull(in_pipe->write_end.get(), "through-zygote", 14).ok());
  in_pipe->write_end.Reset();
  auto data = ReadAll(out_pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "through-zygote");
  ASSERT_TRUE(srv.client().WaitRemote(*pid).ok());
}

TEST(ForkServerTest, EnvironmentCrossesTheWire) {
  InProcessServer srv;
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  Spawner s("/bin/sh");
  s.Args({"-c", "printf '%s' \"$FORKLIFT_WIRE\""})
      .SetEnv("FORKLIFT_WIRE", "crossed")
      .SetStdout(Stdio::Fd(pipe->write_end.get()));
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_TRUE(pid.ok());
  pipe->write_end.Reset();
  auto data = ReadAll(pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "crossed");
  ASSERT_TRUE(srv.client().WaitRemote(*pid).ok());
}

TEST(ForkServerTest, WaitForUnknownPidFails) {
  InProcessServer srv;
  auto st = srv.client().WaitRemote(999999);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), ECHILD);
}

TEST(ForkServerTest, ManySequentialSpawns) {
  InProcessServer srv;
  for (int i = 0; i < 20; ++i) {
    Spawner s("/bin/true");
    auto pid = SpawnVia(srv.client(), s);
    ASSERT_TRUE(pid.ok()) << "iteration " << i;
    auto st = srv.client().WaitRemote(*pid);
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(st->Success());
  }
}

TEST(ForkServerTest, NewChannelServesIndependently) {
  InProcessServer srv;
  auto channel = srv.client().NewChannel();
  ASSERT_TRUE(channel.ok()) << channel.error().ToString();

  // Both channels work, interleaved.
  ASSERT_TRUE((*channel)->Ping().ok());
  ASSERT_TRUE(srv.client().Ping().ok());

  Spawner s("/bin/true");
  auto via_new = SpawnVia(**channel, s);
  ASSERT_TRUE(via_new.ok());
  auto via_old = SpawnVia(srv.client(), s);
  ASSERT_TRUE(via_old.ok());
  EXPECT_TRUE((*channel)->WaitRemote(*via_new).value().Success());
  EXPECT_TRUE(srv.client().WaitRemote(*via_old).value().Success());
}

TEST(ForkServerTest, ClosingSecondaryChannelKeepsServerAlive) {
  InProcessServer srv;
  {
    auto channel = srv.client().NewChannel();
    ASSERT_TRUE(channel.ok());
    ASSERT_TRUE((*channel)->Ping().ok());
    // channel drops here: EOF on that socket only.
  }
  // Primary still serves.
  ASSERT_TRUE(srv.client().Ping().ok());
  Spawner s("/bin/true");
  auto pid = SpawnVia(srv.client(), s);
  ASSERT_TRUE(pid.ok());
  EXPECT_TRUE(srv.client().WaitRemote(*pid).value().Success());
}

TEST(ForkServerTest, ConcurrentClientsOnPrivateChannels) {
  InProcessServer srv;
  constexpr int kThreads = 3;
  constexpr int kPerThread = 5;

  // Channels must be created serially (they ride the primary channel).
  std::vector<std::unique_ptr<ForkServerClient>> channels;
  for (int t = 0; t < kThreads; ++t) {
    auto channel = srv.client().NewChannel();
    ASSERT_TRUE(channel.ok());
    channels.push_back(std::move(channel).value());
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Spawner s("/bin/true");
        auto pid = SpawnVia(*channels[static_cast<size_t>(t)], s);
        if (!pid.ok()) {
          ++failures;
          continue;
        }
        auto st = channels[static_cast<size_t>(t)]->WaitRemote(*pid);
        if (!st.ok() || !st->Success()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ForkServerProcessTest, SeparateProcessServes) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  ForkServerClient client(std::move(handle->client_sock));

  ASSERT_TRUE(client.Ping().ok());
  Spawner s("/bin/true");
  auto pid = SpawnVia(client, s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  auto st = client.WaitRemote(*pid);
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(st->Success());

  ASSERT_TRUE(client.Shutdown().ok());
  auto server_exit = WaitForExit(handle->server_pid);
  ASSERT_TRUE(server_exit.ok());
  EXPECT_TRUE(server_exit->Success());
}

TEST(ForkServerProcessTest, EofShutsServerDown) {
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok());
  handle->client_sock.Reset();  // EOF
  auto server_exit = WaitForExit(handle->server_pid);
  ASSERT_TRUE(server_exit.ok());
  EXPECT_TRUE(server_exit->Success());
}

// The raw wait status of `pid` once it exits within `seconds`; nullopt when
// it is still running then, in which case it is killed and reaped.
std::optional<int> ExitWithin(pid_t pid, double seconds) {
  Stopwatch sw;
  do {
    int raw = 0;
    if (::waitpid(pid, &raw, WNOHANG) == pid) {
      return raw;
    }
    ::usleep(10 * 1000);
  } while (sw.ElapsedSeconds() < seconds);
  (void)::kill(pid, SIGKILL);
  (void)WaitForExit(pid);
  return std::nullopt;
}

// Sends SIGTERM to a serving zygote and expects it to die of it within 1 s.
void ExpectSigtermEnds(ForkServerHandle handle) {
  ForkServerClient client(std::move(handle.client_sock));
  const Status pinged = client.Ping();  // serving, so past its bootstrap
  ASSERT_EQ(::kill(handle.server_pid, SIGTERM), 0);
  const std::optional<int> raw = ExitWithin(handle.server_pid, 1.0);
  ASSERT_TRUE(pinged.ok()) << pinged.ToString();
  ASSERT_TRUE(raw.has_value()) << "the zygote outlived SIGTERM by 1 s";
  EXPECT_TRUE(WIFSIGNALED(*raw) && WTERMSIG(*raw) == SIGTERM) << "wait status " << *raw;
}

// fork hands the zygote its starter's signal state; the bootstrap resets it,
// so a SIGTERM ends the zygote even when its starter handles SIGTERM...
TEST(ForkServerProcessTest, SigtermEndsAZygoteWhoseStarterHandlesIt) {
  struct sigaction handled {};
  struct sigaction saved {};
  handled.sa_handler = [](int) {};
  ::sigemptyset(&handled.sa_mask);
  ASSERT_EQ(::sigaction(SIGTERM, &handled, &saved), 0);
  auto handle = StartForkServerProcess();
  ASSERT_EQ(::sigaction(SIGTERM, &saved, nullptr), 0);
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  ExpectSigtermEnds(std::move(*handle));
}

// ...and when the thread that starts it blocks SIGTERM.
TEST(ForkServerProcessTest, SigtermEndsAZygoteWhoseStarterBlocksIt) {
  sigset_t term;
  sigset_t saved;
  ::sigemptyset(&term);
  ::sigaddset(&term, SIGTERM);
  ASSERT_EQ(::pthread_sigmask(SIG_BLOCK, &term, &saved), 0);
  auto handle = StartForkServerProcess();
  ASSERT_EQ(::pthread_sigmask(SIG_SETMASK, &saved, nullptr), 0);
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  ExpectSigtermEnds(std::move(*handle));
}

// What /proc/<pid>/fd/<fd> links to ("pipe:[inode]" for a pipe end).
std::string FdTarget(pid_t pid, int fd) {
  const std::string link = "/proc/" + std::to_string(pid) + "/fd/" + std::to_string(fd);
  char target[256];
  const ssize_t n = ::readlink(link.c_str(), target, sizeof(target));
  return n < 0 ? std::string() : std::string(target, static_cast<size_t>(n));
}

// Every file `pid` holds open, as FdTarget names it.
std::set<std::string> HeldFiles(pid_t pid) {
  std::set<std::string> held;
  const std::string dir = "/proc/" + std::to_string(pid) + "/fd";
  if (DIR* d = ::opendir(dir.c_str())) {
    while (const dirent* entry = ::readdir(d)) {
      if (entry->d_name[0] != '.') {
        held.insert(FdTarget(pid, std::atoi(entry->d_name)));
      }
    }
    ::closedir(d);
  }
  return held;
}

// fork also hands the zygote every descriptor its starter had open: a zygote
// forked over a listener holds neither end of an inheritable pipe of its
// starter's, still accepts on its listener, and leaves the socket file to
// its starter.
TEST(ForkServerProcessTest, ForkedListenerZygoteHoldsOnlyItsOwnDescriptors) {
  const std::string path =
      ::testing::TempDir() + "zygote_fds_" + std::to_string(::getpid()) + ".sock";
  auto server = ForkServer::Listen(path);
  ASSERT_TRUE(server.ok()) << server.error().ToString();
  auto inherited = MakePipe(/*cloexec=*/false);
  ASSERT_TRUE(inherited.ok()) << inherited.error().ToString();
  auto zygote = ForkZygote(*server);
  ASSERT_TRUE(zygote.ok()) << zygote.error().ToString();
  {
    auto client = ForkServerClient::ConnectPath(path);
    ASSERT_TRUE(client.ok()) << client.error().ToString();
    ASSERT_TRUE((*client)->Ping().ok());  // accepted, so past its bootstrap
    const std::set<std::string> held = HeldFiles(*zygote);
    EXPECT_FALSE(held.empty());
    EXPECT_EQ(held.count(FdTarget(::getpid(), inherited->read_end.get())), 0u);
    EXPECT_EQ(held.count(FdTarget(::getpid(), inherited->write_end.get())), 0u);
    ASSERT_TRUE((*client)->Shutdown().ok());
  }
  auto zygote_exit = WaitForExit(*zygote);
  ASSERT_TRUE(zygote_exit.ok()) << zygote_exit.error().ToString();
  EXPECT_TRUE(zygote_exit->Success()) << zygote_exit->ToString();
  EXPECT_EQ(::access(path.c_str(), F_OK), 0) << "the zygote unlinked its starter's socket";
  ::unlink(path.c_str());
}

// Hits so far on the reactor's epoll_ctl(ADD) site, counted across this
// process and every zygote forked from it (the counters are shared).
uint64_t EpollCtlAddHits() {
  for (const fault::SiteReport& site : fault::Snapshot()) {
    if (site.site == "reactor.epoll_ctl_add") {
      return site.hits;
    }
  }
  return 0;
}

// Polls the zygote's children list until it is empty — a zombie is still
// listed, so empty means every child was reaped — and returns what is left
// after ~5 s ("" when none).
std::string AwaitNoChildren(pid_t zygote) {
  const std::string path =
      "/proc/" + std::to_string(zygote) + "/task/" + std::to_string(zygote) + "/children";
  std::string left;
  for (int i = 0; i < 500; ++i) {
    std::ifstream in(path);
    if (!in.good()) {
      return "unreadable " + path;
    }
    left.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    if (left.find_first_not_of(" \n") == std::string::npos) {
      return "";
    }
    ::usleep(10 * 1000);
  }
  return left;
}

// One frame as the client's encoder for a bare request writes it.
std::string BareRequest(MsgType type, uint64_t request_id) {
  return EncodedFrame([&](WireWriter& w) {
    EncodeHeaderInto(w, type, FrameMeta{kForkServerProtocolV2, request_id});
  });
}

// Reads the one frame a raw channel was sent, and decodes it as the `reply`
// ack under `request_id`: the ack's status, or why it is not that ack.
Status RecvRawAck(int sock, MsgType reply, uint64_t request_id) {
  FrameBuffer fb;
  Frame frame;
  FORKLIFT_ASSIGN_OR_RETURN(bool got, RecvFrame(sock, &fb, &frame));
  if (!got || fb.buffered() != 0) {
    return LogicalError("no lone reply");
  }
  WireReader reader(frame.payload);
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(reader));
  if (hdr.type != reply || hdr.meta.request_id != request_id) {
    return LogicalError("not the reply to request " + std::to_string(request_id));
  }
  return DecodeAck(frame.payload, reply);
}

// Adopts a second channel over `primary` and returns its client end, used
// raw. Call before `primary` goes to a ForkServerClient, whose receiver
// would take the ack.
Result<UniqueFd> AdoptRawChannel(int primary) {
  FORKLIFT_ASSIGN_OR_RETURN(SocketPair sp, MakeSocketPair());
  FORKLIFT_RETURN_IF_ERROR(
      SendFrame(primary, BareRequest(MsgType::kNewChannel, 1), {sp.second.get()}));
  FORKLIFT_RETURN_IF_ERROR(RecvRawAck(primary, MsgType::kNewChannelAck, 1));
  return std::move(sp.first);
}

// One spawn request and its reply on a raw channel.
Result<pid_t> SpawnRaw(int sock, const Spawner& spawner) {
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, spawner.BuildRequest());
  std::vector<int> fds;
  FORKLIFT_ASSIGN_OR_RETURN(std::string payload,
                            EncodeSpawnRequest(req, &fds, FrameMeta{kForkServerProtocolV2, 2}));
  FORKLIFT_RETURN_IF_ERROR(SendFrame(sock, payload, fds));
  FrameBuffer fb;
  Frame frame;
  FORKLIFT_ASSIGN_OR_RETURN(bool got, RecvFrame(sock, &fb, &frame));
  if (!got) {
    return LogicalError("channel closed before the spawn reply");
  }
  return DecodeSpawnReply(frame.payload);
}

// Half-closes a raw channel and reads it to EOF. The zygote closes its end
// only in CloseChannel, and handles nothing else meanwhile, so EOF proves the
// close was processed before any later frame.
void CloseRawChannel(UniqueFd sock) {
  ASSERT_EQ(::shutdown(sock.get(), SHUT_WR), 0);
  char buf[256];
  ssize_t n;
  while ((n = ::read(sock.get(), buf, sizeof(buf))) > 0) {
  }
  EXPECT_EQ(n, 0) << "read error instead of EOF";
}

// The zygote's own start-up registrations on the reactor's epoll_ctl(ADD)
// site (its timerfd and first channel), counted by a traced probe zygote.
uint64_t ZygoteStartupEpollAdds() {
  fault::PlanSpec trace;
  trace.trace = true;
  fault::InstallPlan(trace);
  auto probe = StartForkServerProcess();
  if (!probe.ok()) {
    return 0;
  }
  {
    ForkServerClient client(std::move(probe->client_sock));
    if (!client.Ping().ok() || !client.Shutdown().ok()) {
      return 0;
    }
  }
  const uint64_t adds = EpollCtlAddHits();
  fault::ClearPlan();
  return WaitForExit(probe->server_pid).ok() ? adds : 0;
}

// Every spawn the zygote has counted, across processes (the arena is
// shared with zygotes forked after its first use).
uint64_t ZygoteSpawnsTotal() {
  return obs::MetricsRegistry::Global().GetCounter("forklift_forkserver_spawns_total").Value();
}

// One kPing and its kPong on a raw channel.
Status PingRaw(int sock) {
  FORKLIFT_RETURN_IF_ERROR(SendFrame(sock, BareRequest(MsgType::kPing, 4)));
  return RecvRawAck(sock, MsgType::kPong, 4);
}

// A malformed bare request — a kNewChannel that carries no socket, or a
// kPing, kNewChannel or kShutdown with bytes after its header — is refused
// on its own reply type, under its request_id, with a logical error. A
// kShutdown so refused does not stop the zygote: the channel keeps serving.
TEST(ForkServerProcessTest, MalformedBareRequestIsRefusedOnItsReply) {
  struct Case {
    MsgType request;
    MsgType reply;
    std::string junk;
    bool with_socket;
    std::string error;
  };
  const Case cases[] = {
      {MsgType::kNewChannel, MsgType::kNewChannelAck, "", false, "exactly one socket"},
      {MsgType::kPing, MsgType::kPong, "junk", false, "trailing"},
      {MsgType::kNewChannel, MsgType::kNewChannelAck, "junk", true, "trailing"},
      {MsgType::kShutdown, MsgType::kShutdownAck, "junk", false, "trailing"},
  };
  auto handle = StartForkServerProcess();
  ASSERT_TRUE(handle.ok()) << handle.error().ToString();
  const int sock = handle->client_sock.get();
  uint64_t id = 76;
  for (const Case& c : cases) {
    auto spare = MakeSocketPair();
    ASSERT_TRUE(spare.ok()) << spare.error().ToString();
    std::vector<int> fds;
    if (c.with_socket) {
      fds.push_back(spare->second.get());
    }
    ASSERT_TRUE(SendFrame(sock, BareRequest(c.request, ++id) + c.junk, fds).ok());
    Status refused = RecvRawAck(sock, c.reply, id);
    ASSERT_FALSE(refused.ok()) << "request " << id << " was not refused";
    EXPECT_EQ(refused.error().code(), 0) << refused.error().ToString();
    EXPECT_NE(refused.error().context().find(c.error), std::string::npos)
        << refused.error().ToString();
    Status pinged = PingRaw(sock);
    EXPECT_TRUE(pinged.ok()) << pinged.error().ToString();
  }
  {
    ForkServerClient client(std::move(handle->client_sock));
    EXPECT_TRUE(client.Shutdown().ok());
  }
  EXPECT_TRUE(WaitForExit(handle->server_pid).ok());
}

// A zygote started under a fault plan (installed first, so the zygote
// inherits it), with a raw channel adopted beside its primary client.
class UnwatchableChildTest : public ::testing::Test {
 protected:
  void StartUnder(const fault::PlanSpec& spec) {
    spawns_before_ = ZygoteSpawnsTotal();
    fault::InstallPlan(spec);
    auto handle = StartForkServerProcess();
    ASSERT_TRUE(handle.ok()) << handle.error().ToString();
    zygote_ = handle->server_pid;
    auto adopted = AdoptRawChannel(handle->client_sock.get());
    ASSERT_TRUE(adopted.ok()) << adopted.error().ToString();
    raw_ = std::move(*adopted);
    client_ = std::make_unique<ForkServerClient>(std::move(handle->client_sock));
    ASSERT_EQ(fault::InjectionsFired(), 0u) << "the zygote's start-up must not hit the fault";
  }

  void TearDown() override {
    if (client_ != nullptr) {
      EXPECT_TRUE(client_->Shutdown().ok());
    }
    if (zygote_ > 0) {
      EXPECT_TRUE(WaitForExit(zygote_).ok());
    }
    fault::ClearPlan();
  }

  // The zygote could not watch the child it launched: it killed and reaped
  // it and answered the spawn with the watch's error. So no child is left in
  // the zygote, no spawn was counted, and both channels still serve.
  void ExpectRefused(const Result<pid_t>& pid, int err) {
    if (pid.ok()) {
      (void)::kill(*pid, SIGKILL);
    }
    ASSERT_FALSE(pid.ok()) << "the zygote handed out pid " << *pid << " with no exit watch";
    EXPECT_EQ(pid.error().code(), err) << pid.error().ToString();
    EXPECT_EQ(fault::InjectionsFired(), 1u);
    EXPECT_EQ(AwaitNoChildren(zygote_), "");
    EXPECT_EQ(ZygoteSpawnsTotal(), spawns_before_);
    EXPECT_TRUE(client_->Ping().ok());
    Status pinged = PingRaw(raw_.get());
    EXPECT_TRUE(pinged.ok()) << pinged.error().ToString();
  }

  // The child outlives the test unless the zygote kills it.
  static Spawner LongChild() {
    Spawner s("/bin/sleep");
    s.Arg("30");
    return s;
  }

  uint64_t spawns_before_ = 0;
  pid_t zygote_ = -1;
  UniqueFd raw_;
  std::unique_ptr<ForkServerClient> client_;
};

// The child's pidfd cannot be registered: the epoll_ctl(ADD) after the
// zygote's start-up and the adopted channel's fails with ENOMEM.
TEST_F(UnwatchableChildTest, SpawnWhosePidfdCannotRegisterIsKilledAndRefused) {
  const uint64_t startup_adds = ZygoteStartupEpollAdds();
  ASSERT_GT(startup_adds, 0u);
  fault::PlanSpec spec;
  spec.site = "reactor.epoll_ctl_add";
  spec.mode = fault::Mode::kEnomem;
  spec.nth = startup_adds + 2;
  StartUnder(spec);
  ExpectRefused(SpawnVia(*client_, LongChild()), ENOMEM);
}

// The same refusal answers a spawn sent on the adopted channel.
TEST_F(UnwatchableChildTest, SecondChannelSpawnWhosePidfdCannotRegisterIsKilledAndRefused) {
  const uint64_t startup_adds = ZygoteStartupEpollAdds();
  ASSERT_GT(startup_adds, 0u);
  fault::PlanSpec spec;
  spec.site = "reactor.epoll_ctl_add";
  spec.mode = fault::Mode::kEnomem;
  spec.nth = startup_adds + 2;
  StartUnder(spec);
  ExpectRefused(SpawnRaw(raw_.get(), LongChild()), ENOMEM);
}

// The child's pidfd cannot be opened: the first pidfd_open, the zygote's
// watch on its first child, fails with EMFILE.
TEST_F(UnwatchableChildTest, SpawnWhosePidfdCannotOpenIsKilledAndRefused) {
  fault::PlanSpec spec;
  spec.site = "reactor.pidfd_open";
  spec.mode = fault::Mode::kEmfile;
  spec.nth = 1;
  StartUnder(spec);
  ExpectRefused(SpawnVia(*client_, LongChild()), EMFILE);
}

// A zygote process with two channels: the primary behind a ForkServerClient,
// and a raw secondary that spawns the children and is then closed.
class TwoChannelZygoteTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto handle = StartForkServerProcess();
    ASSERT_TRUE(handle.ok()) << handle.error().ToString();
    zygote_ = handle->server_pid;
    auto adopted = AdoptRawChannel(handle->client_sock.get());
    ASSERT_TRUE(adopted.ok()) << adopted.error().ToString();
    secondary_ = std::move(*adopted);
    client_ = std::make_unique<ForkServerClient>(std::move(handle->client_sock));
  }

  void TearDown() override {
    if (client_ != nullptr) {
      EXPECT_TRUE(client_->Shutdown().ok());
    }
    if (zygote_ > 0) {
      EXPECT_TRUE(WaitForExit(zygote_).ok());
    }
  }

  pid_t zygote_ = -1;
  UniqueFd secondary_;
  std::unique_ptr<ForkServerClient> client_;
};

// Nobody is left to collect the status of a reaped child whose channel
// closed, so the zygote forgets it: a later wait finds no such child, as a
// wait for a stranger that reused the pid must.
TEST_F(TwoChannelZygoteTest, ClosedChannelForgetsItsReapedChild) {
  auto pid = SpawnRaw(secondary_.get(), Spawner("/bin/true"));
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  ASSERT_EQ(AwaitNoChildren(zygote_), "");
  CloseRawChannel(std::move(secondary_));
  auto st = client_->WaitRemote(*pid);
  ASSERT_FALSE(st.ok()) << "answered with " << st->ToString();
  EXPECT_EQ(st.error().code(), ECHILD) << st.error().ToString();
}

// A child still running when its channel closes is forgotten once reaped.
TEST_F(TwoChannelZygoteTest, ClosedChannelForgetsItsLiveChildAtReap) {
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());
  Spawner s("/bin/sh");
  s.Args({"-c", "read line; exit 7"}).SetStdin(Stdio::Fd(hold->read_end.get()));
  auto pid = SpawnRaw(secondary_.get(), s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();
  CloseRawChannel(std::move(secondary_));
  hold->write_end.Reset();  // `read` sees EOF and the child exits 7
  ASSERT_EQ(AwaitNoChildren(zygote_), "");
  auto st = client_->WaitRemote(*pid);
  ASSERT_FALSE(st.ok()) << "answered with " << st->ToString();
  EXPECT_EQ(st.error().code(), ECHILD) << st.error().ToString();
}

// A wait parked from another channel is still answered after the spawning
// channel closes.
TEST_F(TwoChannelZygoteTest, WaitParkedFromAnotherChannelOutlivesTheSpawningChannel) {
  auto hold = MakePipe();
  ASSERT_TRUE(hold.ok());
  Spawner s("/bin/sh");
  s.Args({"-c", "read line; exit 7"}).SetStdin(Stdio::Fd(hold->read_end.get()));
  auto pid = SpawnRaw(secondary_.get(), s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  hold->read_end.Reset();
  auto wait = client_->WaitAsync(*pid);
  ASSERT_TRUE(wait.ok());
  // A channel's frames are handled in order: the pong means the wait parked.
  ASSERT_TRUE(client_->Ping().ok());
  CloseRawChannel(std::move(secondary_));
  hold->write_end.Reset();
  auto st = wait->AwaitExit();
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->exit_code, 7);
}

// Any channel may wait for any child while the spawning channel is open.
TEST_F(TwoChannelZygoteTest, WaitFromAnotherOpenChannelGetsTheStatus) {
  Spawner s("/bin/sh");
  s.Args({"-c", "exit 5"});
  auto pid = SpawnRaw(secondary_.get(), s);
  ASSERT_TRUE(pid.ok()) << pid.error().ToString();
  ASSERT_EQ(AwaitNoChildren(zygote_), "");
  auto st = client_->WaitRemote(*pid);
  ASSERT_TRUE(st.ok()) << st.error().ToString();
  EXPECT_TRUE(st->exited);
  EXPECT_EQ(st->exit_code, 5);
}

TEST(WorkerPoolTest, StartExecuteStop) {
  ShellWorkerPool pool;
  ShellWorkerPool::Options opts;
  opts.workers = 2;
  ASSERT_TRUE(pool.Start(opts).ok());
  EXPECT_EQ(pool.worker_count(), 2u);

  auto r = pool.Execute("echo warm");
  ASSERT_TRUE(r.ok()) << r.error().ToString();
  EXPECT_EQ(r->output, "warm\n");
  EXPECT_EQ(r->exit_code, 0);
  ASSERT_TRUE(pool.Stop().ok());
}

TEST(WorkerPoolTest, ExitCodeCaptured) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  auto r = pool.Execute("exit 7");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exit_code, 7);
  // The worker survives a failing command and accepts more work.
  auto r2 = pool.Execute("echo alive");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->output, "alive\n");
}

TEST(WorkerPoolTest, RoundRobinDistributes) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 3}).ok());
  // Each worker is a distinct shell: $$ differs across consecutive calls.
  std::set<std::string> pids;
  for (int i = 0; i < 3; ++i) {
    auto r = pool.Execute("echo $$");
    ASSERT_TRUE(r.ok());
    pids.insert(r->output);
  }
  EXPECT_EQ(pids.size(), 3u);
}

TEST(WorkerPoolTest, ManyTasksOneWorker) {
  ShellWorkerPool pool;
  ASSERT_TRUE(pool.Start({.workers = 1}).ok());
  for (int i = 0; i < 50; ++i) {
    auto r = pool.Execute("echo task" + std::to_string(i));
    ASSERT_TRUE(r.ok()) << "task " << i;
    EXPECT_EQ(r->output, "task" + std::to_string(i) + "\n");
  }
  EXPECT_EQ(pool.tasks_executed(), 50u);
}

// A worker the pool cannot watch would die unnoticed: Start fails with the
// watch's error and stops every worker it spawned.
TEST(WorkerPoolTest, StartFailsWhenAWorkerCannotBeWatched) {
  auto own_children = [] {
    std::ifstream in("/proc/self/task/" + std::to_string(::getpid()) + "/children");
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  const std::string before = own_children();
  fault::PlanSpec spec;
  spec.site = "reactor.pidfd_open";
  spec.mode = fault::Mode::kEmfile;
  spec.nth = 2;
  fault::InstallPlan(spec);
  ShellWorkerPool pool;
  Status started = pool.Start({.workers = 3});
  const uint64_t fired = fault::InjectionsFired();
  fault::ClearPlan();
  EXPECT_EQ(fired, 1u);
  ASSERT_FALSE(started.ok()) << "the pool kept a worker it cannot watch";
  EXPECT_EQ(started.error().code(), EMFILE) << started.error().ToString();
  EXPECT_EQ(pool.worker_count(), 0u);
  EXPECT_EQ(own_children(), before);
  EXPECT_FALSE(pool.Execute("echo x").ok());
}

TEST(WorkerPoolTest, UnstartedPoolRejectsWork) {
  ShellWorkerPool pool;
  EXPECT_FALSE(pool.Execute("echo x").ok());
}

TEST(WorkerPoolTest, ZeroWorkersRejected) {
  ShellWorkerPool pool;
  EXPECT_FALSE(pool.Start({.workers = 0}).ok());
}

}  // namespace
}  // namespace forklift
