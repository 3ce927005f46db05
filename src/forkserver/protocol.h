// forklift/forkserver: the request/reply protocol.
//
// The fork server is the paper's §6 observation made concrete: the ecosystem's
// surviving legitimate use of fork is a small, early-forked "zygote" that
// creates processes on behalf of large clients, because forking a small
// process is cheap while forking the client is not. The protocol ships a
// resolved SpawnRequest (argv/env/attrs/fd-plan) to the zygote; descriptors
// referenced by the plan travel as SCM_RIGHTS and are renumbered on arrival,
// so the plan encodes them as transfer *indices*, not raw fd numbers.
//
// Every reply has one shape: the 20-byte header, then a status {bool ok,
// i32 err, string context}, then — only when ok — the body its type
// defines: the pid for kSpawnReply, the exit status for kWaitReply, the
// rendered export for kStatsReply, nothing for kPong, kShutdownAck and
// kNewChannelAck. A failed status is the handler's Error as it stands, its
// errno in `err` and its context in `context`, so the errno's text is
// rendered once, by the client. An ok status carries err 0 and no context.
#ifndef SRC_FORKSERVER_PROTOCOL_H_
#define SRC_FORKSERVER_PROTOCOL_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/common/syscall.h"
#include "src/common/unique_fd.h"
#include "src/spawn/backend.h"

namespace forklift {

class WireReader;
class WireWriter;

// Every frame is {magic, version, type, request_id} + payload. Replies echo
// the request_id, which is what lets a client keep many requests in flight
// and match out-of-order completions. Version 2 is the only one spoken.
// Each request is answered on its own reply type. A frame the server cannot
// serve at all — a header it cannot parse (a version other than 2, a bad
// magic, an unknown type), or a reply type sent as a request — is refused
// with a failed kSpawnReply, the header case under request_id 0, which no
// request can claim (the client treats it as channel death).
inline constexpr uint32_t kForkServerProtocolV2 = 2;

enum class MsgType : uint32_t {
  kSpawn = 1,       // client → server: launch this request
  kSpawnReply = 2,  // server → client: status, then the pid
  kWait = 3,        // client → server: block until pid exits
  kWaitReply = 4,   // server → client: status, then the exit status
  kPing = 5,        // client → server: liveness probe
  kPong = 6,        // server → client: status
  kShutdown = 7,    // client → server: drain and exit
  kShutdownAck = 8, // server → client: status
  kNewChannel = 9,      // client → server: adopt the attached socket as a new client
  kNewChannelAck = 10,  // server → client: status
  kStats = 11,          // client → server: render the metrics registry
  kStatsReply = 12,     // server → client: status, then the rendered export
};

// Per-frame framing metadata: callers pass {kForkServerProtocolV2, id}. The
// default (request_id 0) is the uncorrelated frame the server uses to answer
// a header it could not parse.
struct FrameMeta {
  uint32_t version = kForkServerProtocolV2;
  uint64_t request_id = 0;
};

// A decoded frame header: the message type plus the framing metadata the
// reply must echo.
struct FrameHeader {
  MsgType type = MsgType::kSpawn;
  FrameMeta meta;
};

// Decodes and validates the header, leaving the reader at the payload.
Result<FrameHeader> DecodeHeader(WireReader& reader);

// --- Requests. Each request type has one encoder, which appends the whole
// frame to the caller's writer: the client sends exactly these bytes. ---

// kPing, kShutdown and kNewChannel are the bare header (kNewChannel's socket
// rides the frame as SCM_RIGHTS); every other frame starts with it. The
// decoder refuses a bare request of another type or with bytes after it.
void EncodeHeaderInto(WireWriter& w, MsgType type, const FrameMeta& meta);
Status DecodeBareRequest(std::string_view frame, MsgType type, FrameMeta* meta = nullptr);

// kSpawn. Fills `fds_out` with the descriptors (in transfer order) the frame
// must carry, and sizes the frame up front. A plan with more than
// kMaxFdsPerFrame distinct sources is refused with EMSGSIZE, by which the
// transports tell a spawn the wire cannot carry. EncodeSpawnRequest returns
// the frame as a string instead.
Status EncodeSpawnRequestInto(WireWriter& w, const SpawnRequest& request,
                              std::vector<int>* fds_out, const FrameMeta& meta = {});
Result<std::string> EncodeSpawnRequest(const SpawnRequest& request, std::vector<int>* fds_out,
                                       const FrameMeta& meta = {});

// Decodes a kSpawn payload. `received_fds` are the SCM_RIGHTS descriptors in
// arrival order; the decoded plan's sources point at their (renumbered) fd
// values. Ownership of the fds stays with the caller; the returned request
// borrows them and must be launched before they are released. When `meta` is
// non-null it receives the frame's version/request_id (as for every decoder
// below).
Result<SpawnRequest> DecodeSpawnRequest(std::string_view payload,
                                        const std::vector<UniqueFd>& received_fds,
                                        FrameMeta* meta = nullptr);

// kWait: the pid to wait for.
void EncodeWaitRequestInto(WireWriter& w, pid_t pid, const FrameMeta& meta);
Result<pid_t> DecodeWaitRequest(std::string_view payload, FrameMeta* meta = nullptr);

// kStats: one format byte, the obs::StatsFormat wire value (0 = Prometheus
// text, 1 = JSON).
void EncodeStatsRequestInto(WireWriter& w, uint8_t format, const FrameMeta& meta);
Result<uint8_t> DecodeStatsRequest(std::string_view payload, FrameMeta* meta = nullptr);

// --- Replies. Each encoder takes the Result or Status its handler holds. ---

void EncodeSpawnReplyInto(WireWriter& w, const Result<pid_t>& pid, const FrameMeta& meta);
void EncodeWaitReplyInto(WireWriter& w, const Result<ExitStatus>& status, const FrameMeta& meta);
void EncodeStatsReplyInto(WireWriter& w, const Result<std::string>& body,
                          const FrameMeta& meta);
// kPong, kShutdownAck, kNewChannelAck: the status alone.
void EncodeAckInto(WireWriter& w, MsgType type, const Status& status, const FrameMeta& meta);

// The typed reply decoders, over one reader. A failed status, which must end
// the frame, comes back as the reply's error whatever the reply's type. An
// ok status must be of the decoder's type, carry no errno or context, and be
// followed by exactly its body; anything else is refused with a logical
// error.
Result<pid_t> DecodeSpawnReply(std::string_view frame, FrameMeta* meta = nullptr);
Result<ExitStatus> DecodeWaitReply(std::string_view frame, FrameMeta* meta = nullptr);
Result<std::string> DecodeStatsReply(std::string_view frame, FrameMeta* meta = nullptr);
Status DecodeAck(std::string_view frame, MsgType type, FrameMeta* meta = nullptr);

}  // namespace forklift

#endif  // SRC_FORKSERVER_PROTOCOL_H_
