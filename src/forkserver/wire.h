// forklift/forkserver: bounds-checked binary serialization.
//
// The fork server's client and server are different processes with different
// lifetimes (and, in deployment, potentially different builds), so every field
// read is bounds- and sanity-checked; a malformed frame produces an error, not
// UB. Integers are little-endian fixed-width; strings are u32-length-prefixed.
#ifndef SRC_FORKSERVER_WIRE_H_
#define SRC_FORKSERVER_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace forklift {

class WireWriter {
 public:
  // Pre-sizes the buffer for a frame whose encoded size is known (or bounded)
  // up front, so encoding appends without reallocation. Combined with Clear()
  // this makes a long-lived writer a zero-steady-state-allocation scratch
  // buffer: capacity survives Clear and is reused by the next frame.
  void Reserve(size_t n) { buf_.reserve(n); }
  void Clear() {
    buf_.clear();
    overflow_ = false;
  }

  void PutU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutI32(int32_t v) { PutRaw(&v, sizeof(v)); }
  void PutString(std::string_view s) {
    // The length prefix is a u32; a larger string would be silently truncated
    // by the cast and decode as garbage. Check BEFORE touching the bytes — a
    // caller may legitimately discover the bound with an untouchable view.
    if (s.size() > UINT32_MAX) {
      overflow_ = true;
      return;
    }
    PutU32(static_cast<uint32_t>(s.size()));
    buf_.append(s);
  }
  void PutBool(bool b) { PutU8(b ? 1 : 0); }

  // False once any Put* was rejected (an oversized string).
  // Encoders must check before shipping the frame; the buffer contents are
  // incomplete after an overflow.
  bool ok() const { return !overflow_; }
  Status status() const {
    if (overflow_) {
      return LogicalError("wire: value exceeds u32 framing bounds");
    }
    return Status::Ok();
  }

  size_t size() const { return buf_.size(); }
  const std::string& data() const { return buf_; }
  std::string Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* p, size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }

  std::string buf_;
  bool overflow_ = false;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  Result<uint8_t> GetU8() {
    if (pos_ + 1 > data_.size()) {
      return Truncated("u8");
    }
    return static_cast<uint8_t>(data_[pos_++]);
  }
  Result<uint32_t> GetU32() { return GetRaw<uint32_t>("u32"); }
  Result<uint64_t> GetU64() { return GetRaw<uint64_t>("u64"); }
  Result<int32_t> GetI32() { return GetRaw<int32_t>("i32"); }
  Result<bool> GetBool() {
    FORKLIFT_ASSIGN_OR_RETURN(uint8_t v, GetU8());
    if (v > 1) {
      return LogicalError("wire: bool out of range");
    }
    return v == 1;
  }
  // A length-prefixed string, viewed in the buffer being read: valid as long
  // as that buffer. `max_len` guards against hostile length prefixes.
  Result<std::string_view> GetView(size_t max_len = 1u << 20) {
    FORKLIFT_ASSIGN_OR_RETURN(uint32_t len, GetU32());
    if (len > max_len) {
      return LogicalError("wire: string length " + std::to_string(len) + " exceeds cap");
    }
    if (len > data_.size() - pos_) {
      return Truncated("string body");
    }
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }
  Result<std::string> GetString(size_t max_len = 1u << 20) {
    FORKLIFT_ASSIGN_OR_RETURN(std::string_view s, GetView(max_len));
    return std::string(s);
  }

  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  Result<T> GetRaw(const char* what) {
    if (pos_ + sizeof(T) > data_.size()) {
      return Truncated(what);
    }
    T v;
    std::memcpy(&v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  static ErrTag Truncated(const char* what) {
    return LogicalError(std::string("wire: truncated reading ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace forklift

#endif  // SRC_FORKSERVER_WIRE_H_
