// forklift/obs: the process-wide metrics registry.
//
// SpawnMetrics, RouteMetrics, and the sharded pool each grew their own ad-hoc
// counter bag; none of them could be exported, and none survived a fork into
// the zygote shards. This registry unifies them: named counters, gauges, and
// fixed-bucket latency histograms, all stored in one anonymous MAP_SHARED
// arena (the same idiom as src/faultinject's site registry), so a zygote
// shard forked after the arena exists increments the same slots the
// supervisor exports. The hot path — Increment / Observe — is a handful of
// relaxed fetch_adds on pre-resolved slot pointers: no locks, no lookups, no
// allocation. Name resolution (GetCounter & co.) is the slow path and is
// meant to run once, at construction/bind time.
//
// The arena also owns the process-tree-wide request-id allocator
// (NextRequestId): protocol-v2 request ids double as trace ids, so they must
// be unique across every channel and shard a process talks to — a single
// shared fetch_add gives exactly that, and never returns 0 (the pipelined
// client treats a zero request_id as a protocol violation).
#ifndef SRC_OBS_REGISTRY_H_
#define SRC_OBS_REGISTRY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace forklift {
namespace obs {

enum class MetricType : uint32_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

// Histogram layout: bucket i (i in [0, 26]) counts observations with
// value <= 2^i; bucket 27 is the overflow bucket. With microsecond
// observations this spans 1 µs .. ~67 s — wider than any spawn latency worth
// averaging and narrow enough that one slot stays small.
constexpr size_t kHistogramBuckets = 28;
constexpr size_t kHistogramOverflowBucket = kHistogramBuckets - 1;

// The bucket an observation lands in, and a bucket's inclusive upper bound
// (the overflow bucket reports 2^27 as a "beyond the tracked range"
// sentinel). Exposed for the boundary tests and the exporters.
size_t HistogramBucketIndex(uint64_t value);
uint64_t HistogramBucketBound(size_t index);

struct HistogramSnapshot {
  uint64_t count = 0;  // derived from the bucket reads, so count == Σ buckets
  uint64_t sum = 0;
  uint64_t buckets[kHistogramBuckets] = {};

  // Percentile as the upper bound of the bucket holding the p-th observation
  // (p in [0, 100]); 0 when empty.
  double Percentile(double p) const;
  double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / count; }
};

namespace internal {
struct Slot;
}  // namespace internal

// Handles are thin copyable views over a registry slot, resolved once by
// name. A default-constructed (or type-mismatched) handle is a no-op on
// writes and reads zero — metric recording must never become a failure path.
class Counter {
 public:
  Counter() = default;
  void Increment(uint64_t n = 1);
  uint64_t Value() const;
  void Reset();
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Counter(internal::Slot* slot) : slot_(slot) {}
  internal::Slot* slot_ = nullptr;
};

class Gauge {
 public:
  Gauge() = default;
  void Set(int64_t value);
  void Add(int64_t delta);
  int64_t Value() const;
  void Reset();
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Gauge(internal::Slot* slot) : slot_(slot) {}
  internal::Slot* slot_ = nullptr;
};

class Histogram {
 public:
  Histogram() = default;
  void Observe(uint64_t value);
  HistogramSnapshot snapshot() const;
  void Reset();
  bool valid() const { return slot_ != nullptr; }

 private:
  friend class MetricsRegistry;
  explicit Histogram(internal::Slot* slot) : slot_(slot) {}
  internal::Slot* slot_ = nullptr;
};

// One metric as read by SnapshotAll. For counters `value` holds the count;
// for gauges `gauge`; for histograms `hist`.
struct MetricSnapshot {
  std::string name;
  MetricType type = MetricType::kCounter;
  uint64_t value = 0;
  int64_t gauge = 0;
  HistogramSnapshot hist;
};

class MetricsRegistry {
 public:
  // The one registry of this process tree. First use creates the shared
  // arena; call it before forking shards that should share counters.
  static MetricsRegistry& Global();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Resolve-or-claim by name. Asking for an existing name with a different
  // type — or overflowing the fixed slot table — returns an invalid (no-op)
  // handle rather than failing.
  Counter GetCounter(std::string_view name);
  Gauge GetGauge(std::string_view name);
  Histogram GetHistogram(std::string_view name);

  // Every claimed metric, sorted by name.
  std::vector<MetricSnapshot> SnapshotAll() const;

  // Zeroes every value (names and handles stay bound). For tests.
  void ResetAllForTest();

 private:
  MetricsRegistry() = default;
  internal::Slot* Lookup(std::string_view name, MetricType type);
};

// Allocates the next process-tree-unique request/trace id. Starts at 1 and
// never returns 0.
uint64_t NextRequestId();

}  // namespace obs
}  // namespace forklift

#endif  // SRC_OBS_REGISTRY_H_
