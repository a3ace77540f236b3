// Message-flow tracing with a Chrome trace_event JSON exporter.
//
// Instrumented components record complete spans ('X') and instant events
// ('i') against a wall (steady) clock; write_chrome_trace() emits the
// chrome://tracing / Perfetto JSON array format, so any monitoring run can
// be opened as a timeline: one track per draining thread, spans named
// after the pipeline stage actors, correlated across stages by the tick
// sequence id carried in the event args.
//
// Hot-path design: event names are interned to dense ids (one string ever,
// like EventBus topics), record() appends to one of 16 mutex-guarded shard
// buffers picked per thread (uncontended in practice: workers hash to
// different shards), and a collector past its capacity drops events and
// counts the drops rather than reallocating or blocking.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace powerapi::obs {

/// Monotonic wall-clock nanoseconds since process start — the trace
/// timeline. Distinct from the simulated host clock on purpose: traces and
/// latency metrics measure what the monitor costs for real.
std::int64_t wall_now_ns() noexcept;

/// Small dense id for the calling thread (assigned on first use); the
/// Chrome trace "tid".
std::uint32_t trace_thread_id() noexcept;

class Counter;

namespace detail {
/// Writes `text` as a quoted, escaped JSON string (shared by the Chrome
/// trace writers).
void write_json_string(std::ostream& out, std::string_view text);
}  // namespace detail

class TraceCollector {
 public:
  /// Interned name handle; 0 is reserved for "never interned".
  using NameId = std::uint32_t;

  /// One recorded event, exposed for drain(): a complete span when
  /// dur_ns >= 0, an instant event when dur_ns < 0.
  struct Span {
    NameId name = 0;
    std::uint32_t tid = 0;
    std::int64_t ts_ns = 0;
    std::int64_t dur_ns = 0;  ///< < 0 marks an instant event.
    std::uint64_t seq = 0;
  };

  /// `capacity` bounds the total retained events across all shards.
  explicit TraceCollector(std::size_t capacity = std::size_t{1} << 18);
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  NameId intern(std::string_view name);

  /// Records a complete span [start_ns, start_ns + duration_ns); `seq` is
  /// the correlating tick sequence id (0 = none).
  void complete(NameId name, std::int64_t start_ns, std::int64_t duration_ns,
                std::uint64_t seq = 0);
  /// Records an instant event.
  void instant(NameId name, std::int64_t at_ns, std::uint64_t seq = 0);

  std::size_t size() const noexcept;
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Also bump this registry counter on every dropped event (non-owning;
  /// must outlive the collector). Drop counts then surface in metrics
  /// snapshots ("obs.trace.spans_dropped") instead of dying with the trace.
  void set_drop_counter(Counter* counter) noexcept {
    drop_counter_.store(counter, std::memory_order_relaxed);
  }

  /// Moves every buffered event into `out` (appending, in shard order) and
  /// frees their capacity — the handoff for shipping spans over the wire.
  /// Returns the number of events drained.
  std::size_t drain(std::vector<Span>& out);

  /// Resolves an interned id back to its name ("" for unknown ids).
  std::string name_of(NameId id) const;

  /// Emits the Chrome trace_event JSON object ({"traceEvents": [...]}),
  /// events sorted by timestamp. Safe to call while recording continues
  /// (the written set is a point-in-time copy). Dropped-event counts are
  /// emitted as a metadata event, so truncation is visible in the viewer.
  void write_chrome_trace(std::ostream& out) const;

 private:
  static constexpr std::size_t kShardCount = 16;

  struct alignas(64) Shard {
    mutable std::mutex mutex;
    std::vector<Span> events;
  };

  void push(const Span& event);

  std::atomic<bool> enabled_{true};
  std::size_t shard_capacity_;
  Shard shards_[kShardCount];
  mutable std::mutex names_mutex_;
  std::map<std::string, NameId, std::less<>> name_ids_;
  std::vector<std::string> names_;  ///< Indexed by NameId; [0] is "".
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<Counter*> drop_counter_{nullptr};
};

/// RAII span: records a complete event on destruction. Null-safe — pass a
/// null collector (observability disabled) and it costs one branch.
class ScopedSpan {
 public:
  ScopedSpan(TraceCollector* trace, TraceCollector::NameId name, std::uint64_t seq = 0)
      : trace_(trace != nullptr && trace->enabled() && name != 0 ? trace : nullptr),
        name_(name),
        seq_(seq),
        start_(trace_ != nullptr ? wall_now_ns() : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->complete(name_, start_, wall_now_ns() - start_, seq_);
  }

 private:
  TraceCollector* trace_;
  TraceCollector::NameId name_;
  std::uint64_t seq_;
  std::int64_t start_;
};

}  // namespace powerapi::obs
