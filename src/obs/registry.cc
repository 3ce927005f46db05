#include "src/obs/registry.h"

#include <pthread.h>
#include <sched.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <unordered_map>

namespace forklift {
namespace obs {

namespace internal {

// ---------------------------------------------------------------------------
// Shared arena. One anonymous MAP_SHARED region holds every metric slot plus
// the request-id allocator, so a zygote shard forked after the arena exists
// writes the same counters the supervisor scrapes. std::atomic on shared
// memory is valid because these sizes are lock-free and address-free on every
// platform we target (x86-64, aarch64) — same contract as src/faultinject.
// ---------------------------------------------------------------------------

constexpr size_t kMaxSlots = 256;
constexpr size_t kMaxMetricName = 104;  // includes NUL

constexpr uint32_t kSlotFree = 0;
constexpr uint32_t kSlotBusy = 1;  // claimed, name not yet published
constexpr uint32_t kSlotReady = 2;

struct Slot {
  std::atomic<uint32_t> state;
  uint32_t type;
  char name[kMaxMetricName];
  std::atomic<uint64_t> value;                      // counter count / histogram sum
  std::atomic<int64_t> gauge;                       // gauge value
  std::atomic<uint64_t> buckets[kHistogramBuckets]; // histogram only
};

struct Arena {
  std::atomic<uint64_t> next_request_id;
  Slot slots[kMaxSlots];
};

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "shared-memory counters require lock-free 64-bit atomics");
static_assert(std::atomic<int64_t>::is_always_lock_free,
              "shared-memory gauges require lock-free 64-bit atomics");
static_assert(std::atomic<uint32_t>::is_always_lock_free,
              "shared-memory slot states require lock-free 32-bit atomics");

}  // namespace internal

namespace {

using internal::Arena;
using internal::kMaxMetricName;
using internal::kMaxSlots;
using internal::kSlotBusy;
using internal::kSlotFree;
using internal::kSlotReady;
using internal::Slot;

Arena* g_arena = nullptr;

// Serializes arena creation and the slot-pointer cache. Zygote children
// resolve metrics too (a forked shard binds its server counters at startup),
// and fork(2) can land while another thread of the parent holds this lock —
// the atfork hooks keep the child's copy unlocked, exactly like
// src/faultinject's registry mutex.
std::mutex g_mu;
std::unordered_map<std::string, Slot*>* g_slot_cache = nullptr;

void LockBeforeFork() { g_mu.lock(); }
void UnlockAfterFork() { g_mu.unlock(); }
struct AtforkGuard {
  AtforkGuard() { ::pthread_atfork(&LockBeforeFork, &UnlockAfterFork, &UnlockAfterFork); }
};
AtforkGuard g_atfork_guard;

Arena* EnsureArenaLocked() {
  if (g_arena != nullptr) return g_arena;
  void* mem = ::mmap(nullptr, sizeof(Arena), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) {
    // Private fallback: metrics still work within this process; only
    // cross-process aggregation (and cross-process id uniqueness) is lost.
    mem = ::calloc(1, sizeof(Arena));
    if (mem == nullptr) return nullptr;
  }
  g_arena = new (mem) Arena();
  return g_arena;
}

Slot* FindOrClaimSlot(std::string_view name, MetricType type) {
  if (name.empty() || name.size() >= kMaxMetricName) return nullptr;
  std::string key(name);
  Arena* arena;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    arena = EnsureArenaLocked();
    if (arena == nullptr) return nullptr;
    if (g_slot_cache == nullptr) {
      g_slot_cache = new std::unordered_map<std::string, Slot*>();
    }
    auto it = g_slot_cache->find(key);
    if (it != g_slot_cache->end()) {
      return it->second->type == static_cast<uint32_t>(type) ? it->second : nullptr;
    }
  }
  for (size_t i = 0; i < kMaxSlots; ++i) {
    Slot& slot = arena->slots[i];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == kSlotFree) {
      uint32_t expected = kSlotFree;
      if (slot.state.compare_exchange_strong(expected, kSlotBusy,
                                             std::memory_order_acq_rel)) {
        ::strncpy(slot.name, key.c_str(), kMaxMetricName - 1);
        slot.name[kMaxMetricName - 1] = '\0';
        slot.type = static_cast<uint32_t>(type);
        slot.value.store(0, std::memory_order_relaxed);
        slot.gauge.store(0, std::memory_order_relaxed);
        for (auto& b : slot.buckets) b.store(0, std::memory_order_relaxed);
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
    if (state == kSlotReady && ::strncmp(slot.name, key.c_str(), kMaxMetricName) == 0) {
      std::lock_guard<std::mutex> lock(g_mu);
      (*g_slot_cache)[key] = &slot;
      return slot.type == static_cast<uint32_t>(type) ? &slot : nullptr;
    }
  }
  return nullptr;  // table full: record nothing rather than fail the caller
}

}  // namespace

size_t HistogramBucketIndex(uint64_t value) {
  // Bucket i holds value <= 2^i: 0 and 1 land in bucket 0, 2^i in bucket i.
  if (value <= 1) return 0;
  size_t bit = 64 - static_cast<size_t>(__builtin_clzll(value - 1));
  return bit <= kHistogramOverflowBucket - 1 ? bit : kHistogramOverflowBucket;
}

uint64_t HistogramBucketBound(size_t index) {
  if (index >= kHistogramOverflowBucket) {
    return 1ull << kHistogramOverflowBucket;  // sentinel: beyond the tracked range
  }
  return 1ull << index;
}

double HistogramSnapshot::Percentile(double p) const {
  if (count == 0) return 0.0;
  if (p < 0.0) p = 0.0;
  if (p > 100.0) p = 100.0;
  uint64_t target = static_cast<uint64_t>(p / 100.0 * static_cast<double>(count));
  if (target == 0) target = 1;
  uint64_t cum = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    cum += buckets[i];
    if (cum >= target) {
      return static_cast<double>(HistogramBucketBound(i));
    }
  }
  return static_cast<double>(HistogramBucketBound(kHistogramOverflowBucket));
}

void Counter::Increment(uint64_t n) {
  if (slot_ != nullptr) slot_->value.fetch_add(n, std::memory_order_relaxed);
}

uint64_t Counter::Value() const {
  return slot_ == nullptr ? 0 : slot_->value.load(std::memory_order_relaxed);
}

void Counter::Reset() {
  if (slot_ != nullptr) slot_->value.store(0, std::memory_order_relaxed);
}

void Gauge::Set(int64_t value) {
  if (slot_ != nullptr) slot_->gauge.store(value, std::memory_order_relaxed);
}

void Gauge::Add(int64_t delta) {
  if (slot_ != nullptr) slot_->gauge.fetch_add(delta, std::memory_order_relaxed);
}

int64_t Gauge::Value() const {
  return slot_ == nullptr ? 0 : slot_->gauge.load(std::memory_order_relaxed);
}

void Gauge::Reset() {
  if (slot_ != nullptr) slot_->gauge.store(0, std::memory_order_relaxed);
}

void Histogram::Observe(uint64_t value) {
  if (slot_ == nullptr) return;
  slot_->buckets[HistogramBucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  slot_->value.fetch_add(value, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  if (slot_ == nullptr) return snap;
  // The count is derived from the same bucket loads it is reported next to,
  // so count == Σ buckets holds for every snapshot even under concurrent
  // Observe calls; only `sum` can drift by in-flight observations.
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[i] = slot_->buckets[i].load(std::memory_order_relaxed);
    snap.count += snap.buckets[i];
  }
  snap.sum = slot_->value.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::Reset() {
  if (slot_ == nullptr) return;
  for (auto& b : slot_->buckets) b.store(0, std::memory_order_relaxed);
  slot_->value.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  // Creating the arena here (not lazily at the first Get*) is what lets
  // "touch Global() before forking shards" guarantee a shared arena.
  std::lock_guard<std::mutex> lock(g_mu);
  (void)EnsureArenaLocked();
  return *registry;
}

internal::Slot* MetricsRegistry::Lookup(std::string_view name, MetricType type) {
  return FindOrClaimSlot(name, type);
}

Counter MetricsRegistry::GetCounter(std::string_view name) {
  return Counter(Lookup(name, MetricType::kCounter));
}

Gauge MetricsRegistry::GetGauge(std::string_view name) {
  return Gauge(Lookup(name, MetricType::kGauge));
}

Histogram MetricsRegistry::GetHistogram(std::string_view name) {
  return Histogram(Lookup(name, MetricType::kHistogram));
}

std::vector<MetricSnapshot> MetricsRegistry::SnapshotAll() const {
  std::vector<MetricSnapshot> out;
  Arena* arena;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    arena = g_arena;
  }
  if (arena == nullptr) return out;
  for (size_t i = 0; i < kMaxSlots; ++i) {
    Slot& slot = arena->slots[i];
    if (slot.state.load(std::memory_order_acquire) != kSlotReady) continue;
    MetricSnapshot snap;
    snap.name.assign(slot.name);
    snap.type = static_cast<MetricType>(slot.type);
    switch (snap.type) {
      case MetricType::kCounter:
        snap.value = slot.value.load(std::memory_order_relaxed);
        break;
      case MetricType::kGauge:
        snap.gauge = slot.gauge.load(std::memory_order_relaxed);
        break;
      case MetricType::kHistogram:
        snap.hist = Histogram(&slot).snapshot();
        break;
    }
    out.push_back(std::move(snap));
  }
  std::sort(out.begin(), out.end(),
            [](const MetricSnapshot& a, const MetricSnapshot& b) { return a.name < b.name; });
  return out;
}

void MetricsRegistry::ResetAllForTest() {
  Arena* arena;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    arena = g_arena;
  }
  if (arena == nullptr) return;
  for (size_t i = 0; i < kMaxSlots; ++i) {
    Slot& slot = arena->slots[i];
    if (slot.state.load(std::memory_order_acquire) != kSlotReady) continue;
    slot.value.store(0, std::memory_order_relaxed);
    slot.gauge.store(0, std::memory_order_relaxed);
    for (auto& b : slot.buckets) b.store(0, std::memory_order_relaxed);
  }
}

uint64_t NextRequestId() {
  Arena* arena;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    arena = EnsureArenaLocked();
  }
  if (arena == nullptr) {
    // Arena allocation failed: fall back to a process-local allocator so ids
    // stay unique (and nonzero) within this process at least.
    static std::atomic<uint64_t> local{0};
    return local.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  return arena->next_request_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace obs
}  // namespace forklift
