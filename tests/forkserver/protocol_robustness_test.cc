// Wire-protocol robustness: every message type round-trips; every decoder
// rejects trailing garbage, rejects truncation at every byte offset, and
// survives single-bit header corruption with a clean error — never a crash,
// hang, or sanitizer report.
//
// Regressions pinned here (fail on pre-fix code):
//   * DecodeSpawnReply / DecodeWait / DecodeWaitReply accepted frames with
//     trailing bytes, silently ignoring whatever a confused (or hostile) peer
//     appended.
//   * EncodeSpawnRequest emitted the fd-count field before validating it
//     against kMaxFdsPerFrame, and left a partially-populated fds_out on
//     failure for the caller to mistakenly ship.
#include "src/forkserver/protocol.h"

#include <errno.h>
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/wire.h"
#include "src/spawn/spawner.h"

namespace {

// The largest single allocation made while `g_watch_allocations` is set. The
// operators below replace the whole non-aligned new/delete family, so every
// block comes from and returns to malloc whichever form allocates it.
std::atomic<bool> g_watch_allocations{false};
std::atomic<size_t> g_largest_allocation{0};

void* WatchedMalloc(size_t n) {
  if (g_watch_allocations.load(std::memory_order_relaxed)) {
    size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* WatchedNew(size_t n) {
  if (void* p = WatchedMalloc(n)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return WatchedNew(n); }
void* operator new[](size_t n) { return WatchedNew(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept { return WatchedMalloc(n); }
void* operator new[](size_t n, const std::nothrow_t&) noexcept { return WatchedMalloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace forklift {
namespace {

// Header bytes: {magic, version, type} words plus the u64 request_id.
constexpr size_t kHeaderSize = 20;

SpawnRequest MakeSampleRequest() {
  Spawner s("/bin/echo");
  s.Arg("hello").SetEnv("K", "V").SetCwd("/tmp").SetUmask(022);
  s.AddRlimit(RLIMIT_NOFILE, 128, 256);
  s.fd_plan().Dup2(2, 1).Dup2(1, 2);  // forces two fd transfers on the wire
  auto req = s.BuildRequest();
  EXPECT_TRUE(req.ok());
  return std::move(req).value();
}

std::string SampleSpawnPayload() {
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(MakeSampleRequest(), &fds);
  EXPECT_TRUE(payload.ok());
  return *payload;
}

std::string SampleSpawnReply() {
  SpawnReply reply;
  reply.ok = false;
  reply.err = ENOENT;
  reply.context = "child execve";
  return EncodeSpawnReply(reply);
}

std::string SampleWaitReply() {
  WaitReply reply;
  reply.ok = true;
  reply.status.exited = true;
  reply.status.exit_code = 3;
  return EncodeWaitReply(reply);
}

// --- trailing-garbage rejection (regression: decoders stopped at the last
// field and never checked AtEnd) ---

TEST(ProtocolRobustnessTest, SpawnReplyRejectsTrailingBytes) {
  std::string payload = SampleSpawnReply();
  ASSERT_TRUE(DecodeSpawnReply(payload).ok());
  payload.push_back('\x00');
  auto decoded = DecodeSpawnReply(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), 0) << "must be a LogicalError, not errno";
  EXPECT_NE(decoded.error().ToString().find("trailing"), std::string::npos);
}

TEST(ProtocolRobustnessTest, WaitRejectsTrailingBytes) {
  std::string payload = EncodeWait(777);
  ASSERT_TRUE(DecodeWait(payload).ok());
  payload.append("junk");
  auto decoded = DecodeWait(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().ToString().find("trailing"), std::string::npos);
}

TEST(ProtocolRobustnessTest, WaitReplyRejectsTrailingBytes) {
  std::string payload = SampleWaitReply();
  ASSERT_TRUE(DecodeWaitReply(payload).ok());
  payload.push_back('\x7f');
  auto decoded = DecodeWaitReply(payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().ToString().find("trailing"), std::string::npos);
}

TEST(ProtocolRobustnessTest, SpawnRequestRejectsTrailingBytes) {
  std::string payload = SampleSpawnPayload();
  std::vector<UniqueFd> received;
  received.emplace_back(::dup(0));
  received.emplace_back(::dup(0));
  ASSERT_TRUE(DecodeSpawnRequest(payload, received).ok());
  payload.push_back('\x01');
  EXPECT_FALSE(DecodeSpawnRequest(payload, received).ok());
}

// --- declared argv/env counts against the bytes a frame carries ---

// A request whose whole environment is `env`, argv just the program.
SpawnRequest RequestWithEnv(const EnvMap& env) {
  auto req = Spawner("/bin/true").SetEnvMap(env).BuildRequest();
  EXPECT_TRUE(req.ok());
  return std::move(req).value();
}

// `n` distinct variables, each with a value of a different length.
EnvMap ManyVariables(size_t n) {
  EnvMap env;
  for (size_t i = 0; i < n; ++i) {
    env.Set("VAR" + std::to_string(i), std::string(i % 97, 'v') + std::to_string(i));
  }
  return env;
}

TEST(ProtocolRobustnessTest, DeclaredEnvCountBeyondThePayloadIsTruncatedNotReserved) {
  std::vector<int> fds;
  auto encoded = EncodeSpawnRequest(RequestWithEnv(EnvMap::FromStrings({"A=1", "B=2"})), &fds);
  ASSERT_TRUE(encoded.ok());
  // Header, program, use_path_search, argc, argv[0]; then envc and two
  // entries, where the frame is cut.
  const size_t envc_at = kHeaderSize + 4 + std::strlen("/bin/true") + 1 + 4 + 4 +
                         std::strlen("/bin/true");
  const size_t envc_end = envc_at + 4 + 2 * (4 + 3);
  std::string payload = encoded->substr(0, envc_end);
  uint32_t envc = 0;
  std::memcpy(&envc, payload.data() + envc_at, sizeof(envc));
  ASSERT_EQ(envc, 2u) << "offset arithmetic no longer matches the encoder";
  envc = 16384;
  std::memcpy(payload.data() + envc_at, &envc, sizeof(envc));

  g_largest_allocation = 0;
  g_watch_allocations = true;
  auto decoded = DecodeSpawnRequest(payload, {});
  g_watch_allocations = false;
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().ToString().find("truncated"), std::string::npos)
      << decoded.error().ToString();
  EXPECT_LT(g_largest_allocation.load(), 16384 * sizeof(char*))
      << "the decoder reserved for entries the frame does not carry";
}

TEST(ProtocolRobustnessTest, SixteenThousandEntryEnvRoundTripsByteExact) {
  const EnvMap env = ManyVariables(16384);
  const SpawnRequest req = RequestWithEnv(env);
  ASSERT_EQ(req.envp.size(), 16384u);
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(req, &fds);
  ASSERT_TRUE(payload.ok());
  auto decoded = DecodeSpawnRequest(*payload, {});
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  const std::vector<std::string> expected = env.ToStrings();
  ASSERT_EQ(decoded->envp.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(decoded->envp[i], expected[i]) << "entry " << i;
    ASSERT_EQ(std::string_view(decoded->envp.data()[i]), expected[i]) << "entry " << i;
  }
  EXPECT_EQ(decoded->envp.data()[expected.size()], nullptr);
  ASSERT_EQ(decoded->argv.size(), 1u);
  EXPECT_STREQ(decoded->argv.data()[0], "/bin/true");
}

TEST(ProtocolRobustnessTest, OversizedArgvAndEnvCountsStillRefused) {
  {
    Spawner s("/bin/true");
    s.ClearEnv();
    for (int i = 0; i < 4096; ++i) {
      s.Arg("a");  // with argv[0], argc = 4097
    }
    auto req = s.BuildRequest();
    ASSERT_TRUE(req.ok());
    std::vector<int> fds;
    auto payload = EncodeSpawnRequest(*req, &fds);
    ASSERT_TRUE(payload.ok());
    auto decoded = DecodeSpawnRequest(*payload, {});
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.error().ToString().find("argv too large"), std::string::npos);
  }
  {
    std::vector<int> fds;
    auto payload = EncodeSpawnRequest(RequestWithEnv(ManyVariables(16385)), &fds);
    ASSERT_TRUE(payload.ok());
    auto decoded = DecodeSpawnRequest(*payload, {});
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.error().ToString().find("env too large"), std::string::npos);
  }
}

// --- encoder validate-before-emit (regression: too many fds errored only
// after writing the count and populating fds_out) ---

TEST(ProtocolRobustnessTest, EncodeRejectsTooManyFdsAndClearsOutput) {
  Spawner s("/bin/true");
  for (int i = 0; i <= static_cast<int>(kMaxFdsPerFrame); ++i) {
    // 65 distinct sources → 65 transfer slots, one over the frame limit. The
    // fds are never dup'd or sent, so fictitious (in-range) numbers are fine.
    s.fd_plan().Dup2(200 + i, 10 + i);
  }
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());

  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(*req, &fds);
  ASSERT_FALSE(payload.ok());
  EXPECT_NE(payload.error().ToString().find("too many descriptors"), std::string::npos);
  EXPECT_TRUE(fds.empty()) << "failed encode must not leave fds for the caller to ship";
}

TEST(ProtocolRobustnessTest, EncodeAcceptsExactlyMaxFds) {
  Spawner s("/bin/true");
  for (int i = 0; i < static_cast<int>(kMaxFdsPerFrame); ++i) {
    s.fd_plan().Dup2(200 + i, 10 + i);
  }
  auto req = s.BuildRequest();
  ASSERT_TRUE(req.ok());
  std::vector<int> fds;
  auto payload = EncodeSpawnRequest(*req, &fds);
  ASSERT_TRUE(payload.ok()) << payload.error().ToString();
  EXPECT_EQ(fds.size(), kMaxFdsPerFrame);
}

// --- round trips for every message type ---

TEST(ProtocolRobustnessTest, EveryMessageTypeRoundTrips) {
  {
    std::vector<int> fds;
    auto payload = EncodeSpawnRequest(MakeSampleRequest(), &fds);
    ASSERT_TRUE(payload.ok());
    std::vector<UniqueFd> received;
    for (int fd : fds) {
      received.emplace_back(::dup(fd));
    }
    EXPECT_TRUE(DecodeSpawnRequest(*payload, received).ok());
  }
  {
    auto out = DecodeSpawnReply(SampleSpawnReply());
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->ok);
    EXPECT_EQ(out->err, ENOENT);
    EXPECT_EQ(out->context, "child execve");
  }
  {
    auto pid = DecodeWait(EncodeWait(31337));
    ASSERT_TRUE(pid.ok());
    EXPECT_EQ(*pid, 31337);
  }
  {
    auto out = DecodeWaitReply(SampleWaitReply());
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->ok);
    EXPECT_TRUE(out->status.exited);
    EXPECT_EQ(out->status.exit_code, 3);
  }
  for (MsgType t : {MsgType::kPing, MsgType::kPong, MsgType::kShutdown,
                    MsgType::kShutdownAck, MsgType::kNewChannel, MsgType::kNewChannelAck}) {
    std::string payload = EncodeControl(t);
    WireReader reader(payload);
    auto hdr = DecodeHeader(reader);
    ASSERT_TRUE(hdr.ok());
    EXPECT_EQ(hdr->type, t);
    EXPECT_EQ(hdr->meta.version, kForkServerProtocolV2);
    EXPECT_EQ(hdr->meta.request_id, 0u);
    EXPECT_TRUE(reader.AtEnd());
  }
}

// --- truncation at every byte offset, for every message type ---

void ExpectAllTruncationsRejected(const std::string& payload, const char* what) {
  std::vector<UniqueFd> no_fds;
  for (size_t len = 0; len < payload.size(); ++len) {
    std::string cut = payload.substr(0, len);
    EXPECT_FALSE(DecodeSpawnRequest(cut, no_fds).ok()) << what << " cut at " << len;
    EXPECT_FALSE(DecodeSpawnReply(cut).ok()) << what << " cut at " << len;
    EXPECT_FALSE(DecodeWait(cut).ok()) << what << " cut at " << len;
    EXPECT_FALSE(DecodeWaitReply(cut).ok()) << what << " cut at " << len;
    WireReader reader(cut);
    auto hdr = DecodeHeader(reader);
    if (len >= kHeaderSize) {
      // Full header survives a payload truncation; the typed decode above
      // already proved the body is rejected.
      continue;
    }
    EXPECT_FALSE(hdr.ok()) << what << " header cut at " << len;
  }
}

TEST(ProtocolRobustnessTest, TruncationAtEveryOffsetRejected) {
  // Any cut inside the 20-byte header — the request_id included — must
  // reject the header, not read past the end.
  const FrameMeta meta{kForkServerProtocolV2, 0x0123456789abcdefull};
  ExpectAllTruncationsRejected(SampleSpawnPayload(), "spawn request");
  ExpectAllTruncationsRejected(SampleSpawnReply(), "spawn reply");
  ExpectAllTruncationsRejected(EncodeWait(777, meta), "wait");
  ExpectAllTruncationsRejected(SampleWaitReply(), "wait reply");
  ExpectAllTruncationsRejected(EncodeControl(MsgType::kPing, meta), "ping");
}

// --- single-bit corruption of the header's magic, version and type words ---

TEST(ProtocolRobustnessTest, HeaderBitFlipsNeverCrashTypedDecoders) {
  const FrameMeta meta{kForkServerProtocolV2, 7};
  const std::string payloads[] = {SampleSpawnPayload(), SampleSpawnReply(),
                                  EncodeWait(777, meta), SampleWaitReply()};
  std::vector<UniqueFd> no_fds;
  for (const std::string& base : payloads) {
    ASSERT_GE(base.size(), kHeaderSize);
    for (size_t bit = 0; bit < 12 * 8; ++bit) {
      std::string mutated = base;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      // A flipped header can never satisfy a typed decoder: magic, version
      // (there is only one), or expected type no longer matches. The decode
      // must fail cleanly.
      EXPECT_FALSE(DecodeSpawnRequest(mutated, no_fds).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeSpawnReply(mutated).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeWait(mutated).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeWaitReply(mutated).ok()) << "bit " << bit;
    }
  }
}

TEST(ProtocolRobustnessTest, HeaderBitFlipsOnControlFramesAreSafe) {
  for (MsgType t : {MsgType::kPing, MsgType::kShutdown}) {
    const std::string base = EncodeControl(t);
    // The request_id's bits are RequestIdBitFlipsDecodeWithDifferentId's.
    for (size_t bit = 0; bit < 12 * 8; ++bit) {
      std::string mutated = base;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      WireReader reader(mutated);
      auto hdr = DecodeHeader(reader);
      if (hdr.ok()) {
        // A type-field flip can legally produce a *different* valid type; the
        // property is that it never yields the original unchanged.
        EXPECT_NE(hdr->type, t) << "bit " << bit << " flipped to the same type";
      } else {
        EXPECT_EQ(hdr.error().code(), 0) << "must be LogicalError, bit " << bit;
      }
    }
  }
}

// --- request-id correlation and version checking ---

TEST(ProtocolRobustnessTest, V2FramesRoundTripRequestId) {
  const FrameMeta meta{kForkServerProtocolV2, 0xdeadbeef12345678ull};
  {
    FrameMeta got;
    auto pid = DecodeWait(EncodeWait(777, meta), &got);
    ASSERT_TRUE(pid.ok());
    EXPECT_EQ(*pid, 777);
    EXPECT_EQ(got.version, kForkServerProtocolV2);
    EXPECT_EQ(got.request_id, meta.request_id);
  }
  {
    SpawnReply in;
    in.ok = true;
    in.pid = 4242;
    FrameMeta got;
    auto out = DecodeSpawnReply(EncodeSpawnReply(in, meta), &got);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->pid, 4242);
    EXPECT_EQ(got.request_id, meta.request_id);
  }
  {
    WaitReply in;
    in.ok = true;
    in.status.exited = true;
    in.status.exit_code = 9;
    FrameMeta got;
    auto out = DecodeWaitReply(EncodeWaitReply(in, meta), &got);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->status.exit_code, 9);
    EXPECT_EQ(got.request_id, meta.request_id);
  }
  {
    std::vector<int> fds;
    auto payload = EncodeSpawnRequest(MakeSampleRequest(), &fds, meta);
    ASSERT_TRUE(payload.ok());
    std::vector<UniqueFd> received;
    for (int fd : fds) {
      received.emplace_back(::dup(fd));
    }
    FrameMeta got;
    auto decoded = DecodeSpawnRequest(*payload, received, &got);
    ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
    EXPECT_EQ(got.version, kForkServerProtocolV2);
    EXPECT_EQ(got.request_id, meta.request_id);
  }
  {
    std::string payload = EncodeControl(MsgType::kPing, meta);
    WireReader reader(payload);
    auto hdr = DecodeHeader(reader);
    ASSERT_TRUE(hdr.ok());
    EXPECT_EQ(hdr->type, MsgType::kPing);
    EXPECT_EQ(hdr->meta.request_id, meta.request_id);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(ProtocolRobustnessTest, UnknownVersionRejected) {
  // Claim version 1 (the retired 12-byte-header protocol) or 3 (bytes 4..7,
  // little-endian) on an otherwise valid frame.
  for (int version : {1, 3}) {
    std::string payload = EncodeWait(777);
    payload[4] = static_cast<char>(version);
    EXPECT_FALSE(DecodeWait(payload).ok()) << "version " << version;
    WireReader reader(payload);
    auto hdr = DecodeHeader(reader);
    ASSERT_FALSE(hdr.ok()) << "version " << version;
    EXPECT_NE(hdr.error().ToString().find("unsupported version"), std::string::npos);
  }
}

TEST(ProtocolRobustnessTest, RequestIdBitFlipsDecodeWithDifferentId) {
  // Flips inside the request_id (bytes 12..19) leave a well-formed frame; the
  // body must still decode and the corrupted id must differ from the original
  // (so the client drops, not mis-correlates, the reply).
  const FrameMeta meta{kForkServerProtocolV2, 0x0123456789abcdefull};
  const std::string base = EncodeWait(777, meta);
  ASSERT_GE(base.size(), kHeaderSize);
  for (size_t bit = 12 * 8; bit < kHeaderSize * 8; ++bit) {
    std::string mutated = base;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    FrameMeta got;
    auto pid = DecodeWait(mutated, &got);
    ASSERT_TRUE(pid.ok()) << "bit " << bit;
    EXPECT_EQ(*pid, 777);
    EXPECT_NE(got.request_id, meta.request_id) << "bit " << bit;
  }
}

// --- kStats / kStatsReply: same corpus treatment as the spawn frames ---

TEST(ProtocolRobustnessTest, StatsMessagesRoundTrip) {
  const FrameMeta meta{kForkServerProtocolV2, 0xfeedface12345678ull};
  {
    FrameMeta got;
    auto format = DecodeStatsRequest(EncodeStatsRequest(1, meta), &got);
    ASSERT_TRUE(format.ok()) << format.error().ToString();
    EXPECT_EQ(*format, 1u);
    EXPECT_EQ(got.version, kForkServerProtocolV2);
    EXPECT_EQ(got.request_id, meta.request_id);
  }
  {
    StatsReply in;
    in.ok = true;
    in.body = "# TYPE forklift_spawns_total counter\nforklift_spawns_total 3\n";
    FrameMeta got;
    auto out = DecodeStatsReply(EncodeStatsReply(in, meta), &got);
    ASSERT_TRUE(out.ok()) << out.error().ToString();
    EXPECT_TRUE(out->ok);
    EXPECT_EQ(out->body, in.body);
    EXPECT_EQ(got.request_id, meta.request_id);
  }
  {
    StatsReply in;
    in.ok = false;
    in.err = EIO;
    in.context = "obs.export_write";
    auto out = DecodeStatsReply(EncodeStatsReply(in, meta));
    ASSERT_TRUE(out.ok());
    EXPECT_FALSE(out->ok);
    EXPECT_EQ(out->err, EIO);
    EXPECT_EQ(out->context, "obs.export_write");
  }
}

TEST(ProtocolRobustnessTest, StatsRejectsTrailingBytes) {
  std::string req = EncodeStatsRequest(0);
  ASSERT_TRUE(DecodeStatsRequest(req).ok());
  req.push_back('\x00');
  auto decoded = DecodeStatsRequest(req);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code(), 0) << "must be a LogicalError, not errno";

  StatsReply sample;
  sample.ok = true;
  sample.body = "x 1\n";
  std::string reply = EncodeStatsReply(sample);
  ASSERT_TRUE(DecodeStatsReply(reply).ok());
  reply.push_back('\x7f');
  EXPECT_FALSE(DecodeStatsReply(reply).ok());
}

TEST(ProtocolRobustnessTest, StatsTruncationAtEveryOffsetRejected) {
  const FrameMeta meta{kForkServerProtocolV2, 42};
  ExpectAllTruncationsRejected(EncodeStatsRequest(1, meta), "stats request");
  StatsReply sample;
  sample.ok = true;
  sample.body = "forklift_spawns_total 3\n";
  ExpectAllTruncationsRejected(EncodeStatsReply(sample, meta), "stats reply");
  // The typed stats decoders must also reject every cut of their own frames.
  for (const std::string& base : {EncodeStatsRequest(1, meta), EncodeStatsReply(sample, meta)}) {
    for (size_t len = 0; len < base.size(); ++len) {
      std::string cut = base.substr(0, len);
      EXPECT_FALSE(DecodeStatsRequest(cut).ok()) << "stats cut at " << len;
      EXPECT_FALSE(DecodeStatsReply(cut).ok()) << "stats cut at " << len;
    }
  }
}

TEST(ProtocolRobustnessTest, StatsHeaderBitFlipsNeverCrashTypedDecoders) {
  const FrameMeta meta{kForkServerProtocolV2, 7};
  StatsReply sample;
  sample.ok = true;
  sample.body = "x 1\n";
  for (const std::string& base : {EncodeStatsRequest(0, meta), EncodeStatsReply(sample, meta)}) {
    ASSERT_GE(base.size(), kHeaderSize);
    for (size_t bit = 0; bit < 12 * 8; ++bit) {
      std::string mutated = base;
      mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
      EXPECT_FALSE(DecodeStatsRequest(mutated).ok()) << "bit " << bit;
      EXPECT_FALSE(DecodeStatsReply(mutated).ok()) << "bit " << bit;
    }
  }
}

}  // namespace
}  // namespace forklift
