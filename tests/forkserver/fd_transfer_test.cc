// SCM_RIGHTS framing: payloads, descriptor passing, EOF, hostile frames.
#include "src/forkserver/fd_transfer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/pipe.h"
#include "src/common/syscall.h"

namespace forklift {
namespace {

std::string Framed(std::string_view payload) {
  uint32_t len = static_cast<uint32_t>(payload.size());
  std::string out(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(payload);
  return out;
}

TEST(FdTransferTest, PayloadOnlyRoundTrip) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(SendFrame(sp->first.get(), "frame-one").ok());
  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_EQ(f.payload, "frame-one");
  EXPECT_TRUE(f.fds.empty());
}

TEST(FdTransferTest, EmptyPayloadFrame) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  ASSERT_TRUE(SendFrame(sp->first.get(), "").ok());
  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(*got);
  EXPECT_TRUE(f.payload.empty());
}

TEST(FdTransferTest, MultipleFramesInOrder) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(SendFrame(sp->first.get(), "frame" + std::to_string(i)).ok());
  }
  // One buffer across the loop: a single gulp may carry all five frames.
  FrameBuffer fb;
  Frame f;
  for (int i = 0; i < 5; ++i) {
    auto got = RecvFrame(sp->second.get(), &fb, &f);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_EQ(f.payload, "frame" + std::to_string(i));
  }
}

TEST(FdTransferTest, EofDetected) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  sp->first.Reset();
  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got) << "a clean close between frames is EOF, not an error";
}

TEST(FdTransferTest, PeerClosedMidFrameIsAnError) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  std::string torn = Framed("cut-short").substr(0, 6);
  ASSERT_TRUE(WriteFull(sp->first.get(), torn.data(), torn.size()).ok());
  sp->first.Reset();
  FrameBuffer fb;
  Frame f;
  EXPECT_FALSE(RecvFrame(sp->second.get(), &fb, &f).ok());
}

TEST(FdTransferTest, SingleFdArrivesUsable) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());

  ASSERT_TRUE(SendFrame(sp->first.get(), "take-this", {pipe->write_end.get()}).ok());
  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  ASSERT_EQ(f.fds.size(), 1u);

  // Write through the received duplicate; read from the original pipe.
  ASSERT_TRUE(WriteFull(f.fds[0].get(), "via-scm", 7).ok());
  f.fds.clear();
  pipe->write_end.Reset();
  auto data = ReadAll(pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "via-scm");
}

TEST(FdTransferTest, ManyFdsPreserveOrder) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  std::vector<Pipe> pipes;
  std::vector<int> to_send;
  for (int i = 0; i < 8; ++i) {
    auto p = MakePipe();
    ASSERT_TRUE(p.ok());
    to_send.push_back(p->write_end.get());
    pipes.push_back(std::move(p).value());
  }
  ASSERT_TRUE(SendFrame(sp->first.get(), "octet", to_send).ok());
  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  ASSERT_EQ(f.fds.size(), 8u);
  // Identify each received fd by writing its index through it.
  for (int i = 0; i < 8; ++i) {
    char c = static_cast<char>('0' + i);
    ASSERT_TRUE(WriteFull(f.fds[i].get(), &c, 1).ok());
  }
  f.fds.clear();
  for (int i = 0; i < 8; ++i) {
    pipes[i].write_end.Reset();
    auto data = ReadAll(pipes[i].read_end.get());
    ASSERT_TRUE(data.ok());
    EXPECT_EQ(*data, std::string(1, static_cast<char>('0' + i)));
  }
}

// Regression: recvmsg merges same-sender plain segments into the gulp AHEAD
// of the SCM_RIGHTS segment (it stops right after it, not before), so a
// single gulp can be [plain frame][fd frame]+fds. Attribution by the gulp's
// first byte handed the fds to the plain frame; the gulp's last byte is
// always inside the carrier.
TEST(FdTransferTest, MergedGulpAttributesFdsToCarrierFrame) {
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());

  FrameBuffer fb;
  std::string gulp = Framed("plain") + Framed("carrier");
  std::vector<UniqueFd> fds;
  fds.push_back(std::move(pipe->write_end));
  fb.Append(gulp.data(), gulp.size(), std::move(fds));

  Frame f;
  auto has = fb.Next(&f);
  ASSERT_TRUE(has.ok()) << has.error().ToString();
  ASSERT_TRUE(*has);
  EXPECT_EQ(f.payload, "plain");
  EXPECT_EQ(f.fds.size(), 0u) << "the plain frame must not steal the fd";

  has = fb.Next(&f);
  ASSERT_TRUE(has.ok());
  ASSERT_TRUE(*has);
  EXPECT_EQ(f.payload, "carrier");
  EXPECT_EQ(f.fds.size(), 1u);
}

// The same scenario end to end over a real socket: both frames queued before
// the receiver drains, so the kernel serves them as one merged gulp carrying
// the second frame's fd.
TEST(FdTransferTest, DrainAttributesFdsAcrossMergedSegments) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());

  ASSERT_TRUE(SendFrame(sp->first.get(), "plain").ok());
  ASSERT_TRUE(SendFrame(sp->first.get(), "carrier", {pipe->write_end.get()}).ok());

  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(f.payload, "plain");
  EXPECT_EQ(f.fds.size(), 0u);
  got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok()) << got.error().ToString();
  ASSERT_TRUE(*got);
  EXPECT_EQ(f.payload, "carrier");
  ASSERT_EQ(f.fds.size(), 1u);
  // The received duplicate must be the pipe's write end.
  ASSERT_TRUE(WriteFull(f.fds[0].get(), "via-scm", 7).ok());
  f.fds.clear();
  pipe->write_end.Reset();
  auto data = ReadAll(pipe->read_end.get());
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(*data, "via-scm");
}

TEST(FdTransferTest, TooManyFdsRejected) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  std::vector<int> fds(kMaxFdsPerFrame + 1, 0);
  EXPECT_FALSE(SendFrame(sp->first.get(), "x", fds).ok());
}

TEST(FdTransferTest, FdsRequirePayload) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  EXPECT_FALSE(SendFrame(sp->first.get(), "", {0}).ok());
}

TEST(FdTransferTest, OversizedFrameRejectedByReceiver) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  // Hand-craft a length prefix claiming 1 GiB, far past the 16 MiB cap.
  uint32_t huge = 1u << 30;
  ASSERT_TRUE(WriteFull(sp->first.get(), &huge, sizeof(huge)).ok());
  FrameBuffer fb;
  Frame f;
  EXPECT_FALSE(RecvFrame(sp->second.get(), &fb, &f).ok());
}

TEST(FdTransferTest, ReceivedFdsAreCloexec) {
  auto sp = MakeSocketPair();
  ASSERT_TRUE(sp.ok());
  auto pipe = MakePipe();
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(SendFrame(sp->first.get(), "p", {pipe->read_end.get()}).ok());
  FrameBuffer fb;
  Frame f;
  auto got = RecvFrame(sp->second.get(), &fb, &f);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  ASSERT_EQ(f.fds.size(), 1u);
  // MSG_CMSG_CLOEXEC: a received descriptor must not leak through exec.
  auto cloexec = GetCloexec(f.fds[0].get());
  ASSERT_TRUE(cloexec.ok());
  EXPECT_TRUE(*cloexec);
}

}  // namespace
}  // namespace forklift
