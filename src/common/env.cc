#include "src/common/env.h"

#include <algorithm>

extern char** environ;

namespace forklift {

ArgvBlock::ArgvBlock(const std::vector<std::string>& args) {
  size_t chars = 0;
  for (const auto& a : args) {
    chars += a.size();
  }
  Reserve(args.size(), chars);
  for (const auto& a : args) {
    Add(a);
  }
}

ArgvBlock::ArgvBlock(const ArgvBlock& other) : bytes_(other.bytes_), pointers_(other.pointers_) {
  for (size_t i = 0; i < size(); ++i) {
    pointers_[i] = bytes_.data() + (other.pointers_[i] - other.bytes_.data());
  }
}

void ArgvBlock::Reserve(size_t entries, size_t chars) {
  size_t need = bytes_.size() + chars + entries;
  if (need > bytes_.capacity()) {
    Regrow(need);
  }
  pointers_.reserve(size() + entries + 1);
}

void ArgvBlock::Append(std::string_view a, std::string_view b, std::string_view c) {
  size_t need = bytes_.size() + a.size() + b.size() + c.size() + 1;
  if (need > bytes_.capacity()) {
    Regrow(std::max(need, 2 * bytes_.capacity()));
  }
  char* start = bytes_.data() + bytes_.size();
  bytes_.insert(bytes_.end(), a.begin(), a.end());
  bytes_.insert(bytes_.end(), b.begin(), b.end());
  bytes_.insert(bytes_.end(), c.begin(), c.end());
  bytes_.push_back('\0');
  if (!pointers_.empty()) {
    pointers_.pop_back();
  }
  pointers_.push_back(start);
  pointers_.push_back(nullptr);
}

void ArgvBlock::Regrow(size_t capacity) {
  std::vector<char> bigger;
  bigger.reserve(capacity);
  bigger.assign(bytes_.begin(), bytes_.end());
  // Re-aim while the old buffer is still alive to measure offsets against.
  for (size_t i = 0; i < size(); ++i) {
    pointers_[i] = bigger.data() + (pointers_[i] - bytes_.data());
  }
  bytes_.swap(bigger);
}

EnvMap EnvMap::FromCurrent() { return FromBlock(environ); }

EnvMap EnvMap::FromBlock(char* const* envp) {
  EnvMap env;
  if (envp == nullptr) {
    return env;
  }
  for (char* const* p = envp; *p != nullptr; ++p) {
    std::string_view entry(*p);
    size_t eq = entry.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      continue;
    }
    env.vars_.emplace(std::string(entry.substr(0, eq)), std::string(entry.substr(eq + 1)));
  }
  return env;
}

EnvMap EnvMap::FromStrings(const std::vector<std::string>& entries) {
  EnvMap env;
  for (const auto& entry : entries) {
    size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0) {
      continue;
    }
    env.vars_[entry.substr(0, eq)] = entry.substr(eq + 1);
  }
  return env;
}

void EnvMap::Set(std::string_view key, std::string_view value) {
  vars_[std::string(key)] = std::string(value);
}

void EnvMap::Unset(std::string_view key) {
  auto it = vars_.find(key);
  if (it != vars_.end()) {
    vars_.erase(it);
  }
}

std::optional<std::string> EnvMap::Get(std::string_view key) const {
  auto it = vars_.find(key);
  if (it == vars_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool EnvMap::Has(std::string_view key) const { return vars_.count(std::string(key)) != 0; }

std::vector<std::string> EnvMap::ToStrings() const {
  std::vector<std::string> out;
  out.reserve(vars_.size());
  for (const auto& [k, v] : vars_) {
    out.push_back(k + "=" + v);
  }
  return out;
}

ArgvBlock EnvMap::ToBlock() const { return ArgvBlock(ToStrings()); }

}  // namespace forklift
