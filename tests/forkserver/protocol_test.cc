// Protocol encode/decode: spawn requests with fd remapping, replies, hostile
// payload corpus (bit-flips and truncations must produce errors, never UB).
#include "src/forkserver/protocol.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>

#include "src/common/rng.h"
#include "src/spawn/spawner.h"

namespace forklift {
namespace {

SpawnRequest MakeSampleRequest() {
  Spawner s("/bin/echo");
  s.Arg("hello").SetEnv("K", "V").SetCwd("/tmp").SetUmask(022);
  s.AddRlimit(RLIMIT_NOFILE, 128, 256);
  s.fd_plan().Dup2(2, 1).Dup2(1, 2);  // forces prestage traffic on the wire
  auto req = s.BuildRequest();
  EXPECT_TRUE(req.ok());
  return std::move(req).value();
}

TEST(ProtocolTest, SpawnRequestRoundTrip) {
  SpawnRequest req = MakeSampleRequest();
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(req, &fds);
  ASSERT_TRUE(payload.ok());
  // Sources referenced: parent fds 2 and 1 → two transfers.
  EXPECT_EQ(fds.size(), 2u);

  // Simulate arrival: the received fds carry different numbers.
  std::vector<UniqueFd> received;
  for (size_t i = 0; i < fds.size(); ++i) {
    received.emplace_back(::dup(fds[i]));
  }
  auto decoded = DecodeSpawnRequest(*payload, received);
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();

  EXPECT_EQ(decoded->program, req.program);
  EXPECT_EQ(decoded->use_path_search, req.use_path_search);
  ASSERT_EQ(decoded->argv.size(), req.argv.size());
  for (size_t i = 0; i < req.argv.size(); ++i) {
    EXPECT_EQ(decoded->argv[i], req.argv[i]);
  }
  ASSERT_EQ(decoded->envp.size(), req.envp.size());
  EXPECT_EQ(decoded->cwd, req.cwd);
  EXPECT_EQ(decoded->umask_value, req.umask_value);
  ASSERT_EQ(decoded->rlimits.size(), 1u);
  EXPECT_EQ(decoded->rlimits[0].resource, RLIMIT_NOFILE);
  EXPECT_EQ(decoded->rlimits[0].limit.rlim_cur, 128u);
  ASSERT_EQ(decoded->fd_plan.ops.size(), req.fd_plan.ops.size());

  // Remapping property: every dup2-family source must be either a received fd
  // or in the scratch range — never a raw client fd number.
  for (const auto& op : decoded->fd_plan.ops) {
    if (op.kind == CompiledFdOp::Kind::kDup2 ||
        op.kind == CompiledFdOp::Kind::kDupToScratch) {
      bool is_received = false;
      for (const auto& fd : received) {
        if (op.src_fd == fd.get()) {
          is_received = true;
        }
      }
      EXPECT_TRUE(is_received || op.src_fd >= CompiledFdPlan::kScratchBase)
          << "src " << op.src_fd << " is neither transferred nor scratch";
    }
  }
}

TEST(ProtocolTest, MinimalRequestNoFds) {
  Spawner s("/bin/true");
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(*req, &fds);
  ASSERT_TRUE(payload.ok());
  EXPECT_TRUE(fds.empty());
  auto decoded = DecodeSpawnRequest(*payload, {});
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->program, "/bin/true");
}

TEST(ProtocolTest, FdCountMismatchRejected) {
  SpawnRequest req = MakeSampleRequest();
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(req, &fds);
  ASSERT_TRUE(payload.ok());
  // Frame says 2 fds but none arrived.
  auto decoded = DecodeSpawnRequest(*payload, {});
  EXPECT_FALSE(decoded.ok());
}

TEST(ProtocolTest, SpawnReplyRoundTrip) {
  SpawnReply in;
  in.ok = true;
  in.pid = 4242;
  auto out = DecodeSpawnReply(EncodeSpawnReply(in));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ok);
  EXPECT_EQ(out->pid, 4242);

  SpawnReply err;
  err.ok = false;
  err.err = ENOENT;
  err.context = "child execve";
  auto out2 = DecodeSpawnReply(EncodeSpawnReply(err));
  ASSERT_TRUE(out2.ok());
  EXPECT_FALSE(out2->ok);
  EXPECT_EQ(out2->err, ENOENT);
  EXPECT_EQ(out2->context, "child execve");
}

TEST(ProtocolTest, WaitRoundTrip) {
  auto pid = DecodeWait(EncodeWait(777));
  ASSERT_TRUE(pid.ok());
  EXPECT_EQ(*pid, 777);

  WaitReply in;
  in.ok = true;
  in.status.exited = true;
  in.status.exit_code = 3;
  auto out = DecodeWaitReply(EncodeWaitReply(in));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->ok);
  EXPECT_TRUE(out->status.exited);
  EXPECT_EQ(out->status.exit_code, 3);
}

TEST(ProtocolTest, WrongMessageTypeRejected) {
  EXPECT_FALSE(DecodeSpawnReply(EncodeWait(1)).ok());
  EXPECT_FALSE(DecodeWaitReply(EncodeControl(MsgType::kPong)).ok());
  EXPECT_FALSE(DecodeWait(EncodeControl(MsgType::kPing)).ok());
}

TEST(ProtocolTest, BadMagicRejected) {
  std::string payload = EncodeWait(1);
  payload[0] ^= 0xff;
  EXPECT_FALSE(DecodeWait(payload).ok());
}

TEST(ProtocolTest, BadVersionRejected) {
  std::string payload = EncodeWait(1);
  payload[4] ^= 0xff;
  EXPECT_FALSE(DecodeWait(payload).ok());
}

// Failure-injection corpus: truncations and random bit flips of a valid spawn
// payload must decode to an error or to a *well-formed* request — never crash,
// never read out of bounds (ASAN-visible if they did).
class ProtocolCorruptionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolCorruptionTest, CorruptedSpawnPayloadIsSafe) {
  SpawnRequest req = MakeSampleRequest();
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(req, &fds);
  ASSERT_TRUE(payload.ok());
  std::vector<UniqueFd> received;
  for (int fd : fds) {
    received.emplace_back(::dup(fd));
  }

  Rng rng(GetParam());
  std::string mutated = *payload;
  if (rng.Chance(0.5)) {
    // Truncate somewhere.
    mutated.resize(rng.Below(mutated.size()));
  } else {
    // Flip 1-8 random bytes.
    size_t flips = 1 + rng.Below(8);
    for (size_t i = 0; i < flips && !mutated.empty(); ++i) {
      mutated[rng.Below(mutated.size())] ^= static_cast<char>(1 + rng.Below(255));
    }
  }
  // Outcome is unspecified (error or lucky parse); the property is memory
  // safety plus: a successful parse must still satisfy the fd invariants.
  auto decoded = DecodeSpawnRequest(mutated, received);
  if (decoded.ok()) {
    for (const auto& op : decoded->fd_plan.ops) {
      if (op.kind == CompiledFdOp::Kind::kDup2) {
        EXPECT_GE(op.dst_fd, 0);
        EXPECT_LT(op.dst_fd, CompiledFdPlan::kScratchBase);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, ProtocolCorruptionTest, ::testing::Range<uint64_t>(0, 100));

}  // namespace
}  // namespace forklift
