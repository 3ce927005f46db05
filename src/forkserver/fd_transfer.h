// forklift/forkserver: descriptor passing over AF_UNIX sockets (SCM_RIGHTS).
//
// A frame is a u32 byte-length followed by the payload; descriptors ride in
// the ancillary data attached to the frame's own first bytes. This is the
// channel that lets a fork-server child inherit the *client's* pipes — the
// capability that plain fork gets by ambient copying and spawn APIs must pass
// explicitly.
//
// There is one way onto the wire and one way off it. SendGathered writes a
// run of already-framed bytes, with any fds on its first bytes, and SendFrame
// frames one payload for it. Receivers drain whatever the socket holds in one
// recvmsg gulp (DrainSocketInto) and parse every complete frame out of the
// accumulated bytes (FrameBuffer); RecvFrame runs that pair as a blocking
// loop until one frame is complete. Descriptor attribution across gulps relies on AF_UNIX semantics:
// SCM_RIGHTS attaches to the first byte its sendmsg carries, and recvmsg
// stops right AFTER the segment that delivered ancillary data — but it
// happily merges same-sender plain segments in ahead of it. A gulp that
// collects fds may therefore begin before the carrying frame, but it always
// *ends* inside it, so fds are attributed by the gulp's last byte.
#ifndef SRC_FORKSERVER_FD_TRANSFER_H_
#define SRC_FORKSERVER_FD_TRANSFER_H_

#include <sys/uio.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/unique_fd.h"

namespace forklift {

// Hard cap on descriptors per frame (kernel SCM_MAX_FD is 253; we stay lower
// and predictable).
inline constexpr size_t kMaxFdsPerFrame = 64;

struct Frame {
  std::string payload;
  std::vector<UniqueFd> fds;
};

// Sends payload + fds as one frame: the length prefix, the payload and the
// ancillary fds go out through one SendGathered. `fds` are borrowed, not
// consumed, and need a non-empty payload to ride.
Status SendFrame(int sock, std::string_view payload, const std::vector<int>& fds = {});

// Writes every byte of `iov[0..iovcnt)` — one or more already-framed messages
// — attaching `fds` to the first bytes that make it out. Without fds this is
// one writev per run (faultinject site `syscall.writev_full`); with fds it is
// a sendmsg loop (site `wire.sendmsg_fds`) that resumes short writes at the
// interrupted iovec offset. Mutates `iov` to track progress. Returns the
// number of syscalls that moved bytes; an error means the run did not reach
// the wire whole.
Result<uint64_t> SendGathered(int sock, struct iovec* iov, size_t iovcnt,
                              const std::vector<int>& fds);

// Reassembles frames from a byte stream that arrives in arbitrary gulps.
// Purely a parser — no I/O. Descriptors recorded by Append are attributed to
// the frame whose byte span contains their arrival offset (see file comment
// for why that is exactly the sending frame).
class FrameBuffer {
 public:
  // Records `n` bytes arriving at the current stream position; `fds` are the
  // descriptors the same recvmsg collected (attributed via the gulp's last
  // byte, which is always inside the frame that carried them).
  void Append(const char* data, size_t n, std::vector<UniqueFd> fds);

  // Extracts the next complete frame into `out` (payload buffer capacity is
  // reused). Returns false when more bytes are needed, an error on a hostile
  // length prefix or an over-cap descriptor count.
  Result<bool> Next(Frame* out, size_t max_payload = 16u << 20);

  // Bytes appended but not yet consumed by Next (a nonzero value at EOF means
  // the peer died mid-frame).
  size_t buffered() const { return buf_.size() - pos_; }

  // Descriptors awaiting attribution to a frame.
  size_t pending_fds() const { return fds_.size(); }

 private:
  void CompactIfWorthwhile();

  std::string buf_;
  size_t pos_ = 0;        // parse offset within buf_
  uint64_t base_off_ = 0; // absolute stream offset of buf_[0]
  struct Arrival {
    uint64_t off;  // absolute stream offset the carrying gulp started at
    UniqueFd fd;
  };
  std::deque<Arrival> fds_;
};

// One recvmsg gulp (up to `max_bytes`) appended into `fb`. Faultinject site
// `wire.recvmsg_drain`. would_block is only possible on O_NONBLOCK sockets;
// eof reports a clean peer close (whether mid-frame is for the caller to judge
// via fb->buffered()).
struct DrainStatus {
  size_t bytes = 0;
  bool eof = false;
  bool would_block = false;
};
Result<DrainStatus> DrainSocketInto(int sock, FrameBuffer* fb,
                                    size_t max_bytes = 64u << 10);

// Receives the next frame on a blocking loop over `fb` and DrainSocketInto:
// true with the frame in `out` (payload capacity is reused), false when the
// peer closed cleanly between frames, an error on a failed recvmsg, a peer
// that closed mid-frame, or a framing error (hostile length prefix, too many
// fds). `fb` carries bytes already received past the returned frame, so a
// caller keeps one per socket.
Result<bool> RecvFrame(int sock, FrameBuffer* fb, Frame* out);

}  // namespace forklift

#endif  // SRC_FORKSERVER_FD_TRANSFER_H_
