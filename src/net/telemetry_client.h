// TelemetryClient: the agent side of the telemetry wire — batches pipeline
// rows and ships them to a CollectorServer over non-blocking TCP.
//
// Producers (a host's remote reporter, any thread) call report() with the
// pipeline's api::AggregatedPower rows, the one record shape the wire
// carries; rows land in a bounded queue. The agent's own metrics travel
// separately, as metrics-snapshot frames on the obs cadence below. The
// event loop — either the start() background thread or manual poll_once()
// calls for deterministic tests — drains the queue into the wire encoder
// and flushes a frame when the batch hits a size bound or its deadline
// (flush-on-size / flush-on-deadline).
//
// Failure policy is "monitoring must not become the workload": the send
// queue is bounded with drop-oldest backpressure (a slow or dead collector
// costs a bounded amount of memory and zero blocking on the report path),
// every drop is counted (obs "net.client.records_dropped"), and a lost
// connection is retried with exponentially backed-off, jittered reconnects
// that re-emit the wire dictionary on the fresh connection.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"
#include "net/wire.h"
#include "obs/observability.h"
#include "util/rng.h"

namespace powerapi::net {

struct TelemetryClientOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Identifies this agent to the collector (hello frame; the collector
  /// bridges records under "remote/<agent_id>/...").
  std::string agent_id = "agent";

  // Batching: a frame closes when it reaches either size bound, or when
  // the oldest record in the open batch is flush_interval_ms old.
  std::size_t batch_max_records = 128;
  std::size_t batch_max_bytes = 32 * 1024;
  std::int64_t flush_interval_ms = 50;

  /// Bounded record queue; when full the OLDEST record is dropped (fresh
  /// telemetry beats stale telemetry) and counted.
  std::size_t queue_max_records = 8192;
  /// Encoded-but-unwritten bytes cap: past it the client stops encoding
  /// (the queue then absorbs, and eventually drops) — the slow-reader
  /// guard.
  std::size_t max_unsent_bytes = 256 * 1024;

  // Reconnect: exponential backoff with jitter in [backoff/2, backoff).
  std::int64_t backoff_initial_ms = 10;
  std::int64_t backoff_max_ms = 2000;
  std::uint64_t jitter_seed = 1;

  /// Optional self-observability (non-owning): "net.client.*" counters and
  /// batch-size / flush-latency histograms.
  obs::Observability* obs = nullptr;

  /// Cadence for shipping the agent's own observability over the wire
  /// (metrics-snapshot frame + drained trace spans). 0 disables the obs
  /// frames entirely — the stream is then byte-identical to the base wire.
  /// Requires `obs` to be set.
  std::int64_t obs_interval_ms = 0;
};

class TelemetryClient {
 public:
  struct Stats {
    std::uint64_t records_enqueued = 0;
    std::uint64_t records_sent = 0;     ///< Fully written to the socket.
    std::uint64_t records_dropped = 0;  ///< Queue overflow + lost in-flight.
    std::uint64_t frames_sent = 0;
    std::uint64_t obs_frames_sent = 0;  ///< Metrics-snapshot + span frames.
    std::uint64_t bytes_sent = 0;
    std::uint64_t connects = 0;         ///< Successful connections.
    std::uint64_t reconnects = 0;       ///< Backoff cycles scheduled.
  };

  explicit TelemetryClient(TelemetryClientOptions options);
  ~TelemetryClient();

  TelemetryClient(const TelemetryClient&) = delete;
  TelemetryClient& operator=(const TelemetryClient&) = delete;

  // --- Producers (any thread, never blocks on the network) ---
  void report(const api::AggregatedPower& row);

  // --- Event loop ---
  /// Runs the loop on a background thread until stop().
  void start();
  /// Stops the loop (if running), then pumps the connection until every
  /// queued record is on the wire or `flush_timeout_ms` elapses, sends a
  /// bye frame, and closes. Idempotent.
  void stop(std::int64_t flush_timeout_ms = 200);
  /// One loop step, blocking at most `timeout_ms`. Manual mode only (not
  /// concurrently with start()). Returns true when it made progress.
  bool poll_once(int timeout_ms);
  /// Blocks until queue + encoder + socket buffers are empty or timeout.
  /// Pumps the loop itself in manual mode; waits on the thread otherwise.
  bool flush(std::int64_t timeout_ms);

  bool connected() const noexcept {
    return connected_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  struct OutFrame {
    std::vector<std::uint8_t> bytes;
    std::size_t offset = 0;     ///< Written so far (partial writes).
    std::size_t records = 0;
    std::int64_t opened_ms = 0; ///< When the batch opened (flush latency).
  };

  enum class ConnState { kDisconnected, kConnecting, kConnected };

  bool step_disconnected(int timeout_ms);
  bool step_connecting(int timeout_ms);
  bool step_connected(int timeout_ms);
  bool encode_batches(std::int64_t now_ms);
  void close_batch(std::int64_t now_ms);
  bool maybe_emit_obs(std::int64_t now_ms);
  bool write_frames();
  void handle_disconnect(bool failure);
  void schedule_backoff(std::int64_t now_ms);
  void update_inflight() noexcept;
  bool drained() const noexcept;
  void loop();

  TelemetryClientOptions options_;
  util::Rng rng_;

  // Producer side.
  mutable std::mutex mutex_;
  std::deque<api::AggregatedPower> pending_;

  // Loop-owned connection state.
  Socket socket_;
  ConnState state_ = ConnState::kDisconnected;
  WireEncoder encoder_;
  std::deque<OutFrame> out_frames_;
  std::size_t unsent_bytes_ = 0;
  std::int64_t batch_opened_ms_ = 0;
  std::int64_t last_obs_ms_ = 0;
  std::vector<obs::TraceCollector::Span> span_buf_;
  std::int64_t next_attempt_ms_ = 0;
  std::uint32_t backoff_attempts_ = 0;

  // Shared observation of loop state.
  std::atomic<bool> connected_{false};
  std::atomic<std::uint64_t> inflight_records_{0};

  // Stats (relaxed atomics; readable from any thread).
  std::atomic<std::uint64_t> records_enqueued_{0};
  std::atomic<std::uint64_t> records_sent_{0};
  std::atomic<std::uint64_t> records_dropped_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> obs_frames_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> connects_{0};
  std::atomic<std::uint64_t> reconnects_{0};

  // Observability handles (null when options_.obs is null).
  obs::Counter* obs_enqueued_ = nullptr;
  obs::Counter* obs_sent_ = nullptr;
  obs::Counter* obs_dropped_ = nullptr;
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_reconnects_ = nullptr;
  obs::Counter* obs_obs_frames_ = nullptr;
  obs::Histogram* obs_batch_records_ = nullptr;
  obs::Histogram* obs_flush_latency_ = nullptr;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
  bool stopped_ = false;
};

}  // namespace powerapi::net
