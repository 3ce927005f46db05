#include "src/forkserver/protocol.h"

#include <cerrno>
#include <map>

#include "src/forkserver/fd_transfer.h"
#include "src/forkserver/wire.h"

namespace forklift {

namespace {

constexpr uint32_t kMagic = 0x464b4c54;  // "FKLT"

// Plan-op wire tags (decoupled from the enum's in-memory values).
constexpr uint8_t kOpDupToScratch = 1;
constexpr uint8_t kOpDup2 = 2;
constexpr uint8_t kOpOpen = 3;
constexpr uint8_t kOpClose = 4;
constexpr uint8_t kOpCloseScratch = 5;

// Sentinel in the src slot meaning "src is fds[transfer_index]".
constexpr int32_t kSrcIsTransfer = -2;

// Frame header bytes: {magic, version, type} words plus the u64 request_id.
constexpr size_t kHeaderSize = 12 + 8;

// Upper bound on the encoded size of a spawn request, so the writer is sized
// once and the encode loop below never reallocates. Fixed-width fields are
// over-counted slightly (optional fields counted as present) — the bound is
// for reservation, not framing.
size_t EstimateSpawnRequestSize(const SpawnRequest& request) {
  size_t n = kHeaderSize;
  n += 4 + request.program.size() + 1;         // program + use_path_search
  n += 4 + 4 * request.argv.size() + request.argv.buffer_size();  // argc, argv
  n += 4 + 4 * request.envp.size() + request.envp.buffer_size();  // envc, envp
  n += 1 + 4 + (request.cwd.has_value() ? request.cwd->size() : 0);  // cwd
  n += 1 + 4;                                  // umask
  n += 4;                                      // the four reset/session bools
  n += (1 + 4) * 2;                            // process_group, nice_value
  n += 4 + request.rlimits.size() * (4 + 8 + 8);
  n += 4;  // nops
  for (const auto& op : request.fd_plan.ops) {
    n += 1 + 4 + 4 + 4 + 4 + 4 + op.path.size();  // worst case: kOpOpen
  }
  n += 4;  // transferred-fd count
  return n;
}

// Appends the spawn body (everything after the kSpawn header): fields, fd
// plan, and the trailing fd count.
Status EncodeSpawnBodyInto(WireWriter& w, const SpawnRequest& request,
                           std::vector<int>* fds_out) {
  w.PutString(request.program);
  w.PutBool(request.use_path_search);

  w.PutU32(static_cast<uint32_t>(request.argv.size()));
  for (size_t i = 0; i < request.argv.size(); ++i) {
    w.PutString(request.argv[i]);
  }
  w.PutU32(static_cast<uint32_t>(request.envp.size()));
  for (size_t i = 0; i < request.envp.size(); ++i) {
    w.PutString(request.envp[i]);
  }

  w.PutBool(request.cwd.has_value());
  if (request.cwd.has_value()) {
    w.PutString(*request.cwd);
  }
  w.PutBool(request.umask_value.has_value());
  if (request.umask_value.has_value()) {
    w.PutU32(static_cast<uint32_t>(*request.umask_value));
  }
  w.PutBool(request.reset_signal_mask);
  w.PutBool(request.reset_signal_handlers);
  w.PutBool(request.new_session);
  w.PutBool(request.close_other_fds);
  w.PutBool(request.process_group.has_value());
  if (request.process_group.has_value()) {
    w.PutI32(static_cast<int32_t>(*request.process_group));
  }
  w.PutBool(request.nice_value.has_value());
  if (request.nice_value.has_value()) {
    w.PutI32(*request.nice_value);
  }
  w.PutU32(static_cast<uint32_t>(request.rlimits.size()));
  for (const auto& rl : request.rlimits) {
    w.PutI32(rl.resource);
    w.PutU64(rl.limit.rlim_cur);
    w.PutU64(rl.limit.rlim_max);
  }

  // Fd plan: dup2-family sources become transfer indices; each distinct local
  // fd is transferred once.
  std::map<int, uint32_t> transfer_index;
  auto index_of = [&](int fd) -> uint32_t {
    auto it = transfer_index.find(fd);
    if (it != transfer_index.end()) {
      return it->second;
    }
    uint32_t idx = static_cast<uint32_t>(fds_out->size());
    transfer_index[fd] = idx;
    fds_out->push_back(fd);
    return idx;
  };

  w.PutU32(static_cast<uint32_t>(request.fd_plan.ops.size()));
  for (const auto& op : request.fd_plan.ops) {
    switch (op.kind) {
      case CompiledFdOp::Kind::kDupToScratch:
        w.PutU8(kOpDupToScratch);
        w.PutI32(kSrcIsTransfer);
        w.PutU32(index_of(op.src_fd));
        w.PutI32(op.scratch_fd);
        break;
      case CompiledFdOp::Kind::kDup2:
        w.PutU8(kOpDup2);
        // Scratch-sourced dup2s reference the server-side scratch number, not
        // a client fd; everything else is a client fd to transfer.
        if (op.src_fd >= CompiledFdPlan::kScratchBase) {
          w.PutI32(op.src_fd);
          w.PutU32(0);
        } else {
          w.PutI32(kSrcIsTransfer);
          w.PutU32(index_of(op.src_fd));
        }
        w.PutI32(op.dst_fd);
        break;
      case CompiledFdOp::Kind::kOpen:
        w.PutU8(kOpOpen);
        w.PutI32(op.dst_fd);
        w.PutString(op.path);
        w.PutI32(op.flags);
        w.PutU32(static_cast<uint32_t>(op.mode));
        break;
      case CompiledFdOp::Kind::kClose:
        w.PutU8(kOpClose);
        w.PutI32(op.dst_fd);
        break;
      case CompiledFdOp::Kind::kCloseScratch:
        w.PutU8(kOpCloseScratch);
        w.PutI32(op.scratch_fd);
        break;
    }
  }
  // Validate BEFORE the count goes into the frame: emitting first would ship
  // a frame whose declared fd count the transport then refuses, and leaving
  // fds_out populated on failure would let a caller SCM_RIGHTS a half-built
  // descriptor list for a request that was never encoded.
  if (fds_out->size() > kMaxFdsPerFrame) {
    fds_out->clear();
    return Err(Error(EMSGSIZE, "EncodeSpawnRequest: plan references too many descriptors"));
  }
  w.PutU32(static_cast<uint32_t>(fds_out->size()));
  return w.status();
}

// Decodes a count of at most `max_count` and that many strings straight into
// `block`. A first pass over the lengths proves every entry is in the payload
// before the one reservation, so a frame cannot make the decoder reserve for
// entries it does not carry; the second pass copies each entry once.
Status DecodeBlock(WireReader& r, uint32_t max_count, const char* what, ArgvBlock* block) {
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t count, r.GetU32());
  if (count > max_count) {
    return LogicalError(std::string("DecodeSpawnRequest: ") + what + " too large");
  }
  WireReader scan = r;
  size_t chars = 0;
  for (uint32_t i = 0; i < count; ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string_view s, scan.GetView());
    chars += s.size();
  }
  block->Reserve(count, chars);
  for (uint32_t i = 0; i < count; ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string_view s, r.GetView());
    block->Add(s);
  }
  return Status::Ok();
}

// Decodes the spawn body; its trailing fd count must agree with the number of
// descriptors that arrived. Does not require the reader to be at end — the
// caller owns the surrounding framing.
Result<SpawnRequest> DecodeSpawnBody(WireReader& r,
                                     const std::vector<UniqueFd>& received_fds) {
  SpawnRequest req;
  FORKLIFT_ASSIGN_OR_RETURN(req.program, r.GetString());
  FORKLIFT_ASSIGN_OR_RETURN(req.use_path_search, r.GetBool());

  FORKLIFT_RETURN_IF_ERROR(DecodeBlock(r, 4096, "argv", &req.argv));
  FORKLIFT_RETURN_IF_ERROR(DecodeBlock(r, 16384, "env", &req.envp));

  FORKLIFT_ASSIGN_OR_RETURN(bool has_cwd, r.GetBool());
  if (has_cwd) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string cwd, r.GetString());
    req.cwd = std::move(cwd);
  }
  FORKLIFT_ASSIGN_OR_RETURN(bool has_umask, r.GetBool());
  if (has_umask) {
    FORKLIFT_ASSIGN_OR_RETURN(uint32_t m, r.GetU32());
    req.umask_value = static_cast<mode_t>(m);
  }
  FORKLIFT_ASSIGN_OR_RETURN(req.reset_signal_mask, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(req.reset_signal_handlers, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(req.new_session, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(req.close_other_fds, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(bool has_pgid, r.GetBool());
  if (has_pgid) {
    FORKLIFT_ASSIGN_OR_RETURN(int32_t pgid, r.GetI32());
    req.process_group = static_cast<pid_t>(pgid);
  }
  FORKLIFT_ASSIGN_OR_RETURN(bool has_nice, r.GetBool());
  if (has_nice) {
    FORKLIFT_ASSIGN_OR_RETURN(int32_t nice_value, r.GetI32());
    req.nice_value = nice_value;
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t nrlim, r.GetU32());
  if (nrlim > 64) {
    return LogicalError("DecodeSpawnRequest: too many rlimits");
  }
  for (uint32_t i = 0; i < nrlim; ++i) {
    RlimitSpec spec;
    FORKLIFT_ASSIGN_OR_RETURN(spec.resource, r.GetI32());
    FORKLIFT_ASSIGN_OR_RETURN(uint64_t cur, r.GetU64());
    FORKLIFT_ASSIGN_OR_RETURN(uint64_t max, r.GetU64());
    spec.limit.rlim_cur = cur;
    spec.limit.rlim_max = max;
    req.rlimits.push_back(spec);
  }

  FORKLIFT_ASSIGN_OR_RETURN(uint32_t nops, r.GetU32());
  if (nops > 4096) {
    return LogicalError("DecodeSpawnRequest: too many fd ops");
  }
  auto resolve_src = [&received_fds](int32_t src, uint32_t idx) -> Result<int> {
    if (src == kSrcIsTransfer) {
      if (idx >= received_fds.size()) {
        return LogicalError("DecodeSpawnRequest: transfer index out of range");
      }
      return received_fds[idx].get();
    }
    if (src < CompiledFdPlan::kScratchBase) {
      return LogicalError("DecodeSpawnRequest: literal source below scratch base");
    }
    return static_cast<int>(src);
  };
  for (uint32_t i = 0; i < nops; ++i) {
    FORKLIFT_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
    CompiledFdOp op;
    switch (tag) {
      case kOpDupToScratch: {
        op.kind = CompiledFdOp::Kind::kDupToScratch;
        FORKLIFT_ASSIGN_OR_RETURN(int32_t src, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(uint32_t idx, r.GetU32());
        FORKLIFT_ASSIGN_OR_RETURN(op.src_fd, resolve_src(src, idx));
        FORKLIFT_ASSIGN_OR_RETURN(op.scratch_fd, r.GetI32());
        break;
      }
      case kOpDup2: {
        op.kind = CompiledFdOp::Kind::kDup2;
        FORKLIFT_ASSIGN_OR_RETURN(int32_t src, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(uint32_t idx, r.GetU32());
        FORKLIFT_ASSIGN_OR_RETURN(op.src_fd, resolve_src(src, idx));
        FORKLIFT_ASSIGN_OR_RETURN(op.dst_fd, r.GetI32());
        if (op.dst_fd < 0 || op.dst_fd >= CompiledFdPlan::kScratchBase) {
          return LogicalError("DecodeSpawnRequest: dup2 target out of range");
        }
        break;
      }
      case kOpOpen: {
        op.kind = CompiledFdOp::Kind::kOpen;
        FORKLIFT_ASSIGN_OR_RETURN(op.dst_fd, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(op.path, r.GetString());
        FORKLIFT_ASSIGN_OR_RETURN(op.flags, r.GetI32());
        FORKLIFT_ASSIGN_OR_RETURN(uint32_t mode, r.GetU32());
        op.mode = static_cast<mode_t>(mode);
        if (op.dst_fd < 0 || op.dst_fd >= CompiledFdPlan::kScratchBase) {
          return LogicalError("DecodeSpawnRequest: open target out of range");
        }
        break;
      }
      case kOpClose: {
        op.kind = CompiledFdOp::Kind::kClose;
        FORKLIFT_ASSIGN_OR_RETURN(op.dst_fd, r.GetI32());
        if (op.dst_fd < 0) {
          return LogicalError("DecodeSpawnRequest: close target negative");
        }
        break;
      }
      case kOpCloseScratch: {
        op.kind = CompiledFdOp::Kind::kCloseScratch;
        FORKLIFT_ASSIGN_OR_RETURN(op.scratch_fd, r.GetI32());
        break;
      }
      default:
        return LogicalError("DecodeSpawnRequest: unknown fd op tag");
    }
    req.fd_plan.ops.push_back(std::move(op));
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t nfds, r.GetU32());
  if (nfds != received_fds.size()) {
    return LogicalError("DecodeSpawnRequest: fd count mismatch (frame says " +
                        std::to_string(nfds) + ", received " +
                        std::to_string(received_fds.size()) + ")");
  }
  return req;
}

// A decoded frame must end where its last field does.
Status ExpectEnd(const WireReader& r) {
  if (!r.AtEnd()) {
    return LogicalError("protocol: trailing bytes");
  }
  return Status::Ok();
}

// Decodes a request's header, which must be of `type`, leaving `r` at the
// payload.
Status ReadRequestHeader(WireReader& r, MsgType type, FrameMeta* meta) {
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (meta != nullptr) {
    *meta = hdr.meta;
  }
  if (hdr.type != type) {
    return LogicalError("protocol: wrong message type");
  }
  return Status::Ok();
}

// The one status writer: a reply's header and status, from the Result or
// Status its handler holds. Returns whether the reply is ok, in which case
// the caller appends the body.
template <typename R>
bool EncodeStatusInto(WireWriter& w, MsgType type, const R& result, const FrameMeta& meta) {
  EncodeHeaderInto(w, type, meta);
  w.PutBool(result.ok());
  w.PutI32(result.ok() ? 0 : result.error().code());
  w.PutString(result.ok() ? std::string_view() : std::string_view(result.error().context()));
  return result.ok();
}

// The one status reader: decodes a reply's header and status, leaving `r`
// at the body. A failed status is returned as the reply's error, whatever
// the reply's type; an ok one must be of `type` and carry no error.
Status ReadStatus(WireReader& r, MsgType type, FrameMeta* meta) {
  FORKLIFT_ASSIGN_OR_RETURN(FrameHeader hdr, DecodeHeader(r));
  if (meta != nullptr) {
    *meta = hdr.meta;
  }
  // Replies have the even types: each is its request's type plus one.
  if (static_cast<uint32_t>(hdr.type) % 2 != 0) {
    return LogicalError("protocol: a request where a reply was expected");
  }
  FORKLIFT_ASSIGN_OR_RETURN(bool ok, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(int32_t err, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(std::string_view context, r.GetView());
  if (!ok) {
    FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
    return Err(Error(err, std::string(context)));
  }
  if (err != 0 || !context.empty()) {
    return LogicalError("protocol: ok status carries an error");
  }
  if (hdr.type != type) {
    return LogicalError("protocol: wrong message type");
  }
  return Status::Ok();
}

}  // namespace

void EncodeHeaderInto(WireWriter& w, MsgType type, const FrameMeta& meta) {
  w.PutU32(kMagic);
  w.PutU32(meta.version);
  w.PutU32(static_cast<uint32_t>(type));
  w.PutU64(meta.request_id);
}

Result<FrameHeader> DecodeHeader(WireReader& reader) {
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kMagic) {
    return LogicalError("protocol: bad magic");
  }
  FrameHeader hdr;
  FORKLIFT_ASSIGN_OR_RETURN(hdr.meta.version, reader.GetU32());
  if (hdr.meta.version != kForkServerProtocolV2) {
    return LogicalError("protocol: unsupported version " + std::to_string(hdr.meta.version));
  }
  FORKLIFT_ASSIGN_OR_RETURN(uint32_t type, reader.GetU32());
  if (type < static_cast<uint32_t>(MsgType::kSpawn) ||
      type > static_cast<uint32_t>(MsgType::kStatsReply)) {
    return LogicalError("protocol: unknown message type " + std::to_string(type));
  }
  hdr.type = static_cast<MsgType>(type);
  FORKLIFT_ASSIGN_OR_RETURN(hdr.meta.request_id, reader.GetU64());
  return hdr;
}

Status DecodeBareRequest(std::string_view frame, MsgType type, FrameMeta* meta) {
  WireReader r(frame);
  FORKLIFT_RETURN_IF_ERROR(ReadRequestHeader(r, type, meta));
  return ExpectEnd(r);
}

Status EncodeSpawnRequestInto(WireWriter& w, const SpawnRequest& request,
                              std::vector<int>* fds_out, const FrameMeta& meta) {
  w.Reserve(w.data().size() + EstimateSpawnRequestSize(request));
  EncodeHeaderInto(w, MsgType::kSpawn, meta);
  fds_out->clear();
  return EncodeSpawnBodyInto(w, request, fds_out);
}

Result<std::string> EncodeSpawnRequest(const SpawnRequest& request, std::vector<int>* fds_out,
                                       const FrameMeta& meta) {
  WireWriter w;
  FORKLIFT_RETURN_IF_ERROR(EncodeSpawnRequestInto(w, request, fds_out, meta));
  return w.Take();
}

Result<SpawnRequest> DecodeSpawnRequest(std::string_view payload,
                                        const std::vector<UniqueFd>& received_fds,
                                        FrameMeta* meta) {
  WireReader r(payload);
  FORKLIFT_RETURN_IF_ERROR(ReadRequestHeader(r, MsgType::kSpawn, meta));
  FORKLIFT_ASSIGN_OR_RETURN(SpawnRequest req, DecodeSpawnBody(r, received_fds));
  FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
  return req;
}

void EncodeWaitRequestInto(WireWriter& w, pid_t pid, const FrameMeta& meta) {
  EncodeHeaderInto(w, MsgType::kWait, meta);
  w.PutI32(static_cast<int32_t>(pid));
}

Result<pid_t> DecodeWaitRequest(std::string_view payload, FrameMeta* meta) {
  WireReader r(payload);
  FORKLIFT_RETURN_IF_ERROR(ReadRequestHeader(r, MsgType::kWait, meta));
  FORKLIFT_ASSIGN_OR_RETURN(int32_t pid, r.GetI32());
  FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
  return static_cast<pid_t>(pid);
}

void EncodeStatsRequestInto(WireWriter& w, uint8_t format, const FrameMeta& meta) {
  EncodeHeaderInto(w, MsgType::kStats, meta);
  w.PutU8(format);
}

Result<uint8_t> DecodeStatsRequest(std::string_view payload, FrameMeta* meta) {
  WireReader r(payload);
  FORKLIFT_RETURN_IF_ERROR(ReadRequestHeader(r, MsgType::kStats, meta));
  FORKLIFT_ASSIGN_OR_RETURN(uint8_t format, r.GetU8());
  FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
  return format;
}

void EncodeSpawnReplyInto(WireWriter& w, const Result<pid_t>& pid, const FrameMeta& meta) {
  if (EncodeStatusInto(w, MsgType::kSpawnReply, pid, meta)) {
    w.PutI32(static_cast<int32_t>(*pid));
  }
}

void EncodeWaitReplyInto(WireWriter& w, const Result<ExitStatus>& status,
                         const FrameMeta& meta) {
  if (EncodeStatusInto(w, MsgType::kWaitReply, status, meta)) {
    w.PutBool(status->exited);
    w.PutI32(status->exit_code);
    w.PutBool(status->signaled);
    w.PutI32(status->term_signal);
  }
}

void EncodeStatsReplyInto(WireWriter& w, const Result<std::string>& body,
                          const FrameMeta& meta) {
  if (EncodeStatusInto(w, MsgType::kStatsReply, body, meta)) {
    w.PutString(*body);
  }
}

void EncodeAckInto(WireWriter& w, MsgType type, const Status& status, const FrameMeta& meta) {
  EncodeStatusInto(w, type, status, meta);
}

Result<pid_t> DecodeSpawnReply(std::string_view frame, FrameMeta* meta) {
  WireReader r(frame);
  FORKLIFT_RETURN_IF_ERROR(ReadStatus(r, MsgType::kSpawnReply, meta));
  FORKLIFT_ASSIGN_OR_RETURN(int32_t pid, r.GetI32());
  FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
  if (pid <= 0) {
    // kill(2) reads a pid below 1 as a process group or as every process:
    // never hand one out as a child.
    return LogicalError("protocol: spawn reply carries pid " + std::to_string(pid));
  }
  return static_cast<pid_t>(pid);
}

Result<ExitStatus> DecodeWaitReply(std::string_view frame, FrameMeta* meta) {
  WireReader r(frame);
  FORKLIFT_RETURN_IF_ERROR(ReadStatus(r, MsgType::kWaitReply, meta));
  ExitStatus status;
  FORKLIFT_ASSIGN_OR_RETURN(status.exited, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(status.exit_code, r.GetI32());
  FORKLIFT_ASSIGN_OR_RETURN(status.signaled, r.GetBool());
  FORKLIFT_ASSIGN_OR_RETURN(status.term_signal, r.GetI32());
  FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
  return status;
}

Result<std::string> DecodeStatsReply(std::string_view frame, FrameMeta* meta) {
  WireReader r(frame);
  FORKLIFT_RETURN_IF_ERROR(ReadStatus(r, MsgType::kStatsReply, meta));
  FORKLIFT_ASSIGN_OR_RETURN(std::string body, r.GetString());
  FORKLIFT_RETURN_IF_ERROR(ExpectEnd(r));
  return body;
}

Status DecodeAck(std::string_view frame, MsgType type, FrameMeta* meta) {
  WireReader r(frame);
  FORKLIFT_RETURN_IF_ERROR(ReadStatus(r, type, meta));
  return ExpectEnd(r);
}

}  // namespace forklift
