// Self-observability metrics: lock-free counters, gauges and log-bucketed
// latency histograms behind a named registry.
//
// The monitor's pitch is "non-invasive", so its own instrumentation must be
// cheap enough to leave on (see "What Is the Cost of Energy Monitoring?" —
// the overhead question this layer exists to answer about ourselves):
//  * Counter   — thread-sharded cache-line-padded atomic slots; add() is one
//                relaxed fetch_add on a shard picked per thread, value() sums.
//  * Gauge     — a single atomic double (set/add); written from snapshot
//                collectors and low-rate paths.
//  * Histogram — HDR-style log-bucketed: 16 sub-buckets per power of two
//                (~6 % value resolution), one relaxed increment per record.
// Naming scheme (see DESIGN.md "Observability"): dot-separated lowercase,
// "<subsystem>.<object>.<quantity>[_<unit>]", e.g. "actors.mailbox.latency_ns",
// "pipeline.tick_to_aggregate_ns".
//
// Snapshots are pull-based: snapshot() folds shards and copies buckets under
// relaxed loads (values written concurrently may lag by a few increments —
// counters are monotone, so successive snapshots never go backwards), then
// runs registered collectors so components can contribute point-in-time
// gauges (mailbox depths, queue lengths) without paying for them per event.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace powerapi::obs {

/// Shards per counter: enough that 4–16 workers rarely collide on a line.
inline constexpr std::size_t kCounterShards = 16;

/// Stable per-thread shard index (round-robin assigned at first use).
std::size_t shard_index() noexcept;

/// Monotone event counter. add() from any thread; value() folds shards.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    shards_[shard_index()].value.fetch_add(n, std::memory_order_relaxed);
  }

  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const auto& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  Shard shards_[kCounterShards];
};

/// Last-writer-wins instantaneous value (depths, shares, watts).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Snapshot of one histogram: total count/sum, the non-empty buckets as
/// (lower_bound, count) pairs, and the count of values clamped at max.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t overflow = 0;  ///< Values above the histogram's max (clamped
                               ///< into the last bucket, counted here too).
  double sum = 0.0;
  std::vector<std::pair<std::int64_t, std::uint64_t>> buckets;

  double mean() const noexcept { return count == 0 ? 0.0 : sum / static_cast<double>(count); }
  /// Value at quantile `q` in [0,1], resolved to bucket lower bounds.
  double percentile(double q) const noexcept;
};

/// Log-bucketed histogram for non-negative values (latencies in ns).
/// Negative values clamp to 0; values above `max_value` clamp into the last
/// bucket and bump the overflow counter. record() is one relaxed increment
/// plus two relaxed adds (count, sum) — no locks, any thread.
class Histogram {
 public:
  /// 16 sub-buckets per octave: ~6 % relative resolution.
  static constexpr int kSubBucketBits = 4;
  static constexpr std::int64_t kSubBucketCount = std::int64_t{1} << kSubBucketBits;

  /// Default max of 2^40 ns ≈ 18 minutes covers any sane latency.
  explicit Histogram(std::int64_t max_value = std::int64_t{1} << 40);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::int64_t value) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t overflow() const noexcept {
    return overflow_.load(std::memory_order_relaxed);
  }
  std::int64_t max_value() const noexcept { return max_value_; }
  std::size_t bucket_count() const noexcept { return buckets_.size(); }

  HistogramData data() const;

  /// Bucket index for a value (unclamped math; exposed for tests).
  static std::size_t bucket_index(std::int64_t value) noexcept;
  /// Smallest value mapping to bucket `index` (inverse of bucket_index).
  static std::int64_t bucket_lower_bound(std::size_t index) noexcept;

 private:
  std::int64_t max_value_;
  std::size_t clamp_index_;  ///< bucket_index(max_value_): the last bucket.
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> overflow_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One named metric in a snapshot.
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  double value = 0.0;   ///< Counter total or gauge value.
  HistogramData hist;   ///< kHistogram only.
};

/// Point-in-time view of a registry, sorted by metric name.
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* find(std::string_view name) const noexcept;
  double value_of(std::string_view name, double fallback = 0.0) const noexcept;
};

/// Handed to snapshot collectors so components can contribute gauges that
/// are only worth computing when someone is looking (mailbox depths, queue
/// lengths, actor counts).
class SnapshotBuilder {
 public:
  void gauge(std::string name, double value);

 private:
  friend class MetricsRegistry;
  explicit SnapshotBuilder(std::vector<MetricValue>& out) : out_(&out) {}
  std::vector<MetricValue>* out_;
};

/// Named metric registry. Components intern their handles once (like event
/// bus topics) and record through raw pointers; registration is mutex
/// guarded, recording is lock-free. Metrics live as long as the registry.
class MetricsRegistry {
 public:
  using Collector = std::function<void(SnapshotBuilder&)>;
  using CollectorId = std::uint64_t;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `max_value` only applies on first registration of `name`.
  Histogram& histogram(std::string_view name,
                       std::int64_t max_value = std::int64_t{1} << 40);

  /// Registers a pull-time collector; returns an id for remove_collector.
  /// Collectors run inside snapshot() and must not call back into the
  /// registry's registration API.
  CollectorId add_collector(Collector collector);
  void remove_collector(CollectorId id);

  MetricsSnapshot snapshot() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
  std::vector<std::pair<CollectorId, Collector>> collectors_;
  CollectorId next_collector_id_ = 1;
};

}  // namespace powerapi::obs
