#include "src/faultinject/faultinject.h"

#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

namespace forklift {
namespace fault {
namespace {

// ---------------------------------------------------------------------------
// Shared registry. One anonymous MAP_SHARED region holds every site's
// counters, so a child forked after the mapping exists (the fork-server
// zygote, a mid-spawn helper) updates the same counters the driver reads.
// std::atomic on shared memory is valid here because these sizes are
// lock-free and address-free on every platform we target (x86-64, aarch64).
// ---------------------------------------------------------------------------

constexpr size_t kMaxSites = 128;
constexpr size_t kMaxSiteName = 56;  // includes NUL

constexpr uint32_t kSlotFree = 0;
constexpr uint32_t kSlotBusy = 1;   // claimed, name not yet published
constexpr uint32_t kSlotReady = 2;

struct Slot {
  std::atomic<uint32_t> state;
  uint32_t op;
  char name[kMaxSiteName];
  std::atomic<uint64_t> hits;
  std::atomic<uint64_t> injected;
};

struct Registry {
  std::atomic<uint64_t> injections_fired;
  Slot slots[kMaxSites];
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shared-memory counters require lock-free 64-bit atomics");
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "shared-memory slot states require lock-free 32-bit atomics");

// Process enable state: 0 = env not consulted yet, 1 = disabled, 2 = enabled.
// The disabled fast path in Check() is a single relaxed load of this.
constexpr int kStateUnresolved = 0;
constexpr int kStateDisabled = 1;
constexpr int kStateEnabled = 2;

std::atomic<int> g_state{kStateUnresolved};
Registry* g_registry = nullptr;

// The active plan. Written only by InstallPlan/ClearPlan, which the contract
// requires to run before the activity under test — Check() reads it without
// locking. `site` lives in a fixed buffer so a forked child never touches
// heap metadata the parent may have been mutating.
struct ActivePlan {
  uint64_t seed;
  char site[kMaxSiteName];
  Mode mode;
  uint64_t every;
  uint64_t nth;
  uint64_t limit;
  bool trace;
};
ActivePlan g_plan;

// Serializes registry creation, slot lookup caching, and env resolution.
// Forked children (zygote shards, spawn helpers) call Check() too, and in a
// multi-threaded parent — the pipelined fork-server client runs a receiver
// thread that hits Check() on every recvmsg — fork(2) can land while another
// thread holds this lock, leaving the child a mutex nobody will ever unlock.
// The atfork hooks below take the lock around every fork so the child always
// inherits it unlocked (glibc runs them for fork, not vfork; vfork children
// never reach Check() before exec).
std::mutex g_mu;
std::unordered_map<std::string, Slot*>* g_slot_cache = nullptr;

void LockBeforeFork() { g_mu.lock(); }
void UnlockAfterFork() { g_mu.unlock(); }
struct AtforkGuard {
  AtforkGuard() { ::pthread_atfork(&LockBeforeFork, &UnlockAfterFork, &UnlockAfterFork); }
};
AtforkGuard g_atfork_guard;

Registry* EnsureRegistryLocked() {
  if (g_registry != nullptr) return g_registry;
  void* mem = ::mmap(nullptr, sizeof(Registry), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    // Fall back to private memory: injection still works within this
    // process; only cross-process counter visibility is lost.
    mem = ::calloc(1, sizeof(Registry));
    if (mem == nullptr) return nullptr;
  }
  g_registry = new (mem) Registry();
  return g_registry;
}

uint64_t Fnv1a(const char* s) {
  uint64_t h = 1469598103934665603ull;
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Slot* FindOrClaimSlot(const char* site, Op op) {
  Registry* reg;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    reg = EnsureRegistryLocked();
    if (reg == nullptr) return nullptr;
    if (g_slot_cache == nullptr) {
      g_slot_cache = new std::unordered_map<std::string, Slot*>();
    }
    auto it = g_slot_cache->find(site);
    if (it != g_slot_cache->end()) return it->second;
  }
  for (size_t i = 0; i < kMaxSites; ++i) {
    Slot& slot = reg->slots[i];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == kSlotFree) {
      uint32_t expected = kSlotFree;
      if (slot.state.compare_exchange_strong(expected, kSlotBusy,
                                             std::memory_order_acq_rel)) {
        ::strncpy(slot.name, site, kMaxSiteName - 1);
        slot.name[kMaxSiteName - 1] = '\0';
        slot.op = static_cast<uint32_t>(op);
        slot.hits.store(0, std::memory_order_relaxed);
        slot.injected.store(0, std::memory_order_relaxed);
        slot.state.store(kSlotReady, std::memory_order_release);
        state = kSlotReady;
      } else {
        state = expected;
      }
    }
    // Another process may have the slot mid-claim; wait for the name.
    while (state == kSlotBusy) {
      ::sched_yield();
      state = slot.state.load(std::memory_order_acquire);
    }
    if (state == kSlotReady && ::strncmp(slot.name, site, kMaxSiteName) == 0) {
      std::lock_guard<std::mutex> lock(g_mu);
      (*g_slot_cache)[site] = &slot;
      return &slot;
    }
  }
  return nullptr;  // registry full: count nothing, inject nothing
}

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty() || text.size() > 19) return false;
  uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = v;
  return true;
}

void ResetCountersLocked() {
  if (g_registry == nullptr) return;
  g_registry->injections_fired.store(0, std::memory_order_relaxed);
  for (size_t i = 0; i < kMaxSites; ++i) {
    Slot& slot = g_registry->slots[i];
    if (slot.state.load(std::memory_order_acquire) != kSlotReady) continue;
    slot.hits.store(0, std::memory_order_relaxed);
    slot.injected.store(0, std::memory_order_relaxed);
  }
}

}  // namespace

bool SiteGlobMatch(std::string_view pattern, std::string_view site) {
  // Iterative '*' glob (no '?', no classes). Classic backtracking-pointer
  // formulation: linear in practice for the short names used here.
  size_t p = 0, s = 0;
  size_t star = std::string_view::npos, star_s = 0;
  while (s < site.size()) {
    if (p < pattern.size() && (pattern[p] == site[s])) {
      ++p;
      ++s;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      star_s = s;
    } else if (star != std::string_view::npos) {
      p = star + 1;
      s = ++star_s;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kNone: return "none";
    case Mode::kEintr: return "eintr";
    case Mode::kEagain: return "eagain";
    case Mode::kEnomem: return "enomem";
    case Mode::kEmfile: return "emfile";
    case Mode::kEio: return "eio";
    case Mode::kShort: return "short";
  }
  return "?";
}

bool ModeFromName(std::string_view name, Mode* out) {
  static constexpr Mode kAll[] = {Mode::kNone,   Mode::kEintr, Mode::kEagain,
                                  Mode::kEnomem, Mode::kEmfile, Mode::kEio,
                                  Mode::kShort};
  for (Mode m : kAll) {
    if (name == ModeName(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

const char* OpName(Op op) {
  switch (op) {
    case Op::kRead: return "read";
    case Op::kWrite: return "write";
    case Op::kOpen: return "open";
    case Op::kWait: return "wait";
    case Op::kDup: return "dup";
    case Op::kDupFd: return "dupfd";
    case Op::kFcntl: return "fcntl";
    case Op::kEpollWait: return "epoll_wait";
    case Op::kEpollCtl: return "epoll_ctl";
    case Op::kPidfdOpen: return "pidfd_open";
    case Op::kCreateFd: return "create_fd";
    case Op::kSendmsg: return "sendmsg";
    case Op::kRecvmsg: return "recvmsg";
    case Op::kCreateProcess: return "create_process";
  }
  return "?";
}

int ErrnoForMode(Mode mode) {
  switch (mode) {
    case Mode::kEintr: return EINTR;
    case Mode::kEagain: return EAGAIN;
    case Mode::kEnomem: return ENOMEM;
    case Mode::kEmfile: return EMFILE;
    case Mode::kEio: return EIO;
    case Mode::kNone:
    case Mode::kShort: return 0;
  }
  return 0;
}

bool ModeApplies(Mode mode, Op op) {
  // The table of faults the real kernel can produce at each op AND that the
  // wrapper contract covers. Keeping this strict is what makes the sweep's
  // invariants meaningful: eintr/eagain/short runs MUST succeed, so they may
  // only be injected where a retry loop is specified to exist.
  switch (op) {
    case Op::kRead:
    case Op::kWrite:
      return mode == Mode::kEintr || mode == Mode::kEagain ||
             mode == Mode::kEio || mode == Mode::kShort;
    case Op::kOpen:
      return mode == Mode::kEintr || mode == Mode::kEmfile ||
             mode == Mode::kEnomem;
    case Op::kWait:
      return mode == Mode::kEintr;
    case Op::kDup:
      return mode == Mode::kEintr || mode == Mode::kEmfile;
    case Op::kDupFd:
      return mode == Mode::kEmfile;
    case Op::kFcntl:
      return mode == Mode::kEnomem;
    case Op::kEpollWait:
      return mode == Mode::kEintr || mode == Mode::kEnomem;
    case Op::kEpollCtl:
      return mode == Mode::kEnomem;
    case Op::kPidfdOpen:
      return mode == Mode::kEmfile || mode == Mode::kEnomem;
    case Op::kCreateFd:
      return mode == Mode::kEmfile || mode == Mode::kEnomem;
    case Op::kSendmsg:
      return mode == Mode::kEintr || mode == Mode::kEagain ||
             mode == Mode::kEnomem || mode == Mode::kShort;
    case Op::kRecvmsg:
      return mode == Mode::kEintr || mode == Mode::kEagain ||
             mode == Mode::kEmfile || mode == Mode::kShort;
    case Op::kCreateProcess:
      // The kernel's EAGAIN here (RLIMIT_NPROC) is not retried by anyone,
      // and the sweep requires EAGAIN runs to succeed.
      return mode == Mode::kEnomem;
  }
  return false;
}

std::vector<Mode> ApplicableModes(Op op) {
  static constexpr Mode kAll[] = {Mode::kEintr, Mode::kEagain, Mode::kEnomem,
                                  Mode::kEmfile, Mode::kEio, Mode::kShort};
  std::vector<Mode> out;
  for (Mode m : kAll) {
    if (ModeApplies(m, op)) out.push_back(m);
  }
  return out;
}

bool ModeIsRecoverable(Mode mode) {
  return mode == Mode::kEintr || mode == Mode::kEagain || mode == Mode::kShort;
}

bool ParsePlanSpec(std::string_view text, PlanSpec* out, std::string* error) {
  PlanSpec spec;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view tok = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (tok.empty()) {
      if (comma == text.size()) break;
      continue;
    }
    size_t eq = tok.find('=');
    if (eq == std::string_view::npos) {
      if (error != nullptr) {
        *error = "expected key=value, got '" + std::string(tok) + "'";
      }
      return false;
    }
    std::string_view key = tok.substr(0, eq);
    std::string_view val = tok.substr(eq + 1);
    if (key == "seed") {
      if (!ParseU64(val, &spec.seed)) {
        if (error != nullptr) *error = "bad seed '" + std::string(val) + "'";
        return false;
      }
    } else if (key == "site") {
      if (val.empty() || val.size() >= kMaxSiteName) {
        if (error != nullptr) *error = "bad site glob '" + std::string(val) + "'";
        return false;
      }
      spec.site = std::string(val);
    } else if (key == "mode") {
      if (!ModeFromName(val, &spec.mode)) {
        if (error != nullptr) *error = "unknown mode '" + std::string(val) + "'";
        return false;
      }
    } else if (key == "every") {
      if (!ParseU64(val, &spec.every)) {
        if (error != nullptr) *error = "bad every '" + std::string(val) + "'";
        return false;
      }
    } else if (key == "nth") {
      if (!ParseU64(val, &spec.nth)) {
        if (error != nullptr) *error = "bad nth '" + std::string(val) + "'";
        return false;
      }
    } else if (key == "limit") {
      if (!ParseU64(val, &spec.limit)) {
        if (error != nullptr) *error = "bad limit '" + std::string(val) + "'";
        return false;
      }
    } else if (key == "trace") {
      if (val == "1" || val == "true") {
        spec.trace = true;
      } else if (val == "0" || val == "false") {
        spec.trace = false;
      } else {
        if (error != nullptr) *error = "bad trace '" + std::string(val) + "'";
        return false;
      }
    } else {
      if (error != nullptr) *error = "unknown key '" + std::string(key) + "'";
      return false;
    }
    if (comma == text.size()) break;
  }
  if (spec.nth != 0 && spec.every != 0) {
    if (error != nullptr) *error = "nth and every are mutually exclusive";
    return false;
  }
  // A mode with no schedule means "the first matching hit".
  if (spec.mode != Mode::kNone && spec.nth == 0 && spec.every == 0) {
    spec.nth = 1;
  }
  *out = spec;
  return true;
}

void InstallPlan(const PlanSpec& spec) {
  std::lock_guard<std::mutex> lock(g_mu);
  if (EnsureRegistryLocked() == nullptr) return;
  g_plan.seed = spec.seed;
  ::strncpy(g_plan.site, spec.site.c_str(), kMaxSiteName - 1);
  g_plan.site[kMaxSiteName - 1] = '\0';
  g_plan.mode = spec.mode;
  g_plan.every = spec.every;
  g_plan.nth = spec.nth;
  g_plan.limit = spec.limit;
  g_plan.trace = spec.trace;
  if (g_plan.mode != Mode::kNone && g_plan.nth == 0 && g_plan.every == 0) {
    g_plan.nth = 1;
  }
  ResetCountersLocked();
  g_state.store(kStateEnabled, std::memory_order_release);
}

void ClearPlan() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_state.store(kStateDisabled, std::memory_order_release);
}

bool Enabled() {
  return g_state.load(std::memory_order_acquire) == kStateEnabled;
}

void InstallPlanFromEnv() {
  const char* env = ::getenv("FORKLIFT_FAULTS");
  if (env == nullptr || env[0] == '\0') {
    g_state.store(kStateDisabled, std::memory_order_release);
    return;
  }
  PlanSpec spec;
  std::string error;
  if (!ParsePlanSpec(env, &spec, &error)) {
    ::fprintf(stderr, "forklift: ignoring malformed FORKLIFT_FAULTS=%s (%s)\n",
              env, error.c_str());
    g_state.store(kStateDisabled, std::memory_order_release);
    return;
  }
  InstallPlan(spec);
}

Injection Check(const char* site, Op op) {
  int state = g_state.load(std::memory_order_relaxed);
  if (state == kStateDisabled) return Injection{};
  if (state == kStateUnresolved) {
    {
      std::lock_guard<std::mutex> lock(g_mu);
      state = g_state.load(std::memory_order_relaxed);
    }
    if (state == kStateUnresolved) InstallPlanFromEnv();
    state = g_state.load(std::memory_order_acquire);
    if (state != kStateEnabled) return Injection{};
  }

  Slot* slot = FindOrClaimSlot(site, op);
  if (slot == nullptr) return Injection{};
  uint64_t index = slot->hits.fetch_add(1, std::memory_order_relaxed) + 1;

  if (g_plan.trace || g_plan.mode == Mode::kNone) return Injection{};
  if (!ModeApplies(g_plan.mode, op)) return Injection{};
  if (!SiteGlobMatch(g_plan.site, site)) return Injection{};

  bool scheduled = false;
  if (g_plan.nth != 0) {
    scheduled = (index == g_plan.nth);
  } else if (g_plan.every != 0) {
    // A seeded residue class: which of every N hits fires depends only on
    // (seed, site), so the schedule replays exactly under the same seed.
    uint64_t phase = SplitMix64(g_plan.seed ^ Fnv1a(site)) % g_plan.every;
    scheduled = (index % g_plan.every == phase);
  }
  if (!scheduled) return Injection{};

  if (g_plan.limit != 0) {
    // Claim one of the `limit` injection tickets without overshooting.
    uint64_t cur = g_registry->injections_fired.load(std::memory_order_relaxed);
    for (;;) {
      if (cur >= g_plan.limit) return Injection{};
      if (g_registry->injections_fired.compare_exchange_weak(
              cur, cur + 1, std::memory_order_acq_rel)) {
        break;
      }
    }
  } else {
    g_registry->injections_fired.fetch_add(1, std::memory_order_acq_rel);
  }
  slot->injected.fetch_add(1, std::memory_order_relaxed);

  Injection inj;
  inj.mode = g_plan.mode;
  inj.err = ErrnoForMode(g_plan.mode);
  return inj;
}

std::vector<SiteReport> Snapshot() {
  std::vector<SiteReport> out;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_registry == nullptr) return out;
  }
  for (size_t i = 0; i < kMaxSites; ++i) {
    Slot& slot = g_registry->slots[i];
    if (slot.state.load(std::memory_order_acquire) != kSlotReady) continue;
    SiteReport r;
    r.site.assign(slot.name);
    r.op = static_cast<Op>(slot.op);
    r.hits = slot.hits.load(std::memory_order_relaxed);
    r.injected = slot.injected.load(std::memory_order_relaxed);
    out.push_back(std::move(r));
  }
  std::sort(out.begin(), out.end(),
            [](const SiteReport& a, const SiteReport& b) { return a.site < b.site; });
  return out;
}

uint64_t InjectionsFired() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_registry == nullptr) return 0;
  return g_registry->injections_fired.load(std::memory_order_acquire);
}

}  // namespace fault
}  // namespace forklift
