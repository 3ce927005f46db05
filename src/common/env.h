// forklift/common: environment and argv block handling.
//
// exec-family calls want NUL-terminated char* arrays whose storage outlives the
// call (and, for vfork/posix_spawn, must not be touched by the parent while the
// child runs). ArgvBlock owns stable storage for such an array. EnvMap is an
// ordered key→value view of an environment with POSIX "KEY=VALUE" encoding.
#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace forklift {

// One NUL-separated byte buffer plus one char* array into it. `data()` is
// valid until the block is destroyed, assigned or added to. A copy points
// into its own buffer; a move hands the buffer over, so the moved-to block's
// pointers stay valid (a std::string buffer would not promise this under the
// small-string optimisation). A default or moved-from block is empty and
// allocates nothing.
class ArgvBlock {
 public:
  ArgvBlock() = default;
  explicit ArgvBlock(const std::vector<std::string>& args);
  ArgvBlock(const ArgvBlock& other);
  ArgvBlock& operator=(const ArgvBlock& other) { return *this = ArgvBlock(other); }
  ArgvBlock(ArgvBlock&&) noexcept = default;
  ArgvBlock& operator=(ArgvBlock&&) noexcept = default;

  // Sizes the block for `entries` more entries holding `chars` bytes of text
  // in all (the block counts their NULs), so the Adds that follow never
  // reallocate. An added view must not point into the block itself.
  void Reserve(size_t entries, size_t chars);
  void Add(std::string_view arg) { Append(arg, {}, {}); }
  // Adds the entry "key=value", as EnvMap::ToStrings spells it.
  void AddKeyValue(std::string_view key, std::string_view value) { Append(key, "=", value); }

  size_t size() const { return pointers_.empty() ? 0 : pointers_.size() - 1; }
  bool empty() const { return pointers_.empty(); }
  // Every entry's bytes plus its NUL.
  size_t buffer_size() const { return bytes_.size(); }
  // Entry `i`, NUL excluded (it ends where the next one starts).
  std::string_view operator[](size_t i) const {
    const char* end = pointers_[i + 1] != nullptr ? pointers_[i + 1]
                                                  : bytes_.data() + bytes_.size();
    return std::string_view(pointers_[i], static_cast<size_t>(end - pointers_[i]) - 1);
  }

  // NULL-terminated array suitable for execv/posix_spawn. The pointed-to
  // strings are owned by this block.
  char* const* data() const {
    static char* const kNoEntries[] = {nullptr};
    return pointers_.empty() ? kNoEntries : pointers_.data();
  }

 private:
  void Append(std::string_view a, std::string_view b, std::string_view c);
  // Moves the bytes to a buffer of `capacity` and re-aims the pointers.
  void Regrow(size_t capacity);

  std::vector<char> bytes_;
  // Empty, or one pointer per entry followed by nullptr.
  std::vector<char*> pointers_;
};

// An environment as a sorted map. Conversion to/from the "KEY=VALUE" block
// format used by execve and `environ`.
class EnvMap {
 public:
  EnvMap() = default;

  // Snapshot of the calling process's environment.
  static EnvMap FromCurrent();
  // Parse a NULL-terminated "KEY=VALUE" array. Entries without '=' ignored.
  static EnvMap FromBlock(char* const* envp);
  // Parse a vector of "KEY=VALUE" strings.
  static EnvMap FromStrings(const std::vector<std::string>& entries);

  void Set(std::string_view key, std::string_view value);
  void Unset(std::string_view key);
  std::optional<std::string> Get(std::string_view key) const;
  bool Has(std::string_view key) const;
  size_t size() const { return vars_.size(); }

  // "KEY=VALUE" strings, sorted by key (deterministic for tests and hashing).
  std::vector<std::string> ToStrings() const;
  // Stable-storage block for exec.
  ArgvBlock ToBlock() const;

  const std::map<std::string, std::string, std::less<>>& vars() const { return vars_; }

 private:
  std::map<std::string, std::string, std::less<>> vars_;
};

}  // namespace forklift

#endif  // SRC_COMMON_ENV_H_
