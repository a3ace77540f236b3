// CollectorServer: the collector side of the telemetry wire — accepts
// TelemetryClient connections and decodes their frames into a CollectorSink.
//
// Single-threaded poll(2) event loop over the listener plus every live
// connection; run it on the start() background thread or pump poll_once()
// manually for deterministic tests. Each connection owns an independent
// FrameDecoder (wire dictionaries and timestamp bases are per-connection
// state), so agents never interfere with each other's streams.
//
// Fault containment: a malformed frame — bad magic, corrupt CRC, truncated
// record, hostile length — poisons only that connection's decoder. The
// server counts the error ("net.server.decode_errors"), closes that
// connection, and keeps serving everyone else. The server never writes to
// clients, so it cannot block on a slow peer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <poll.h>

#include "net/socket.h"
#include "net/wire.h"
#include "obs/observability.h"

namespace powerapi::net {

/// Identifies one accepted connection for the lifetime of the server
/// (monotonic, never reused).
using ConnId = std::uint64_t;

/// Receiver for decoded telemetry, tagged with the originating connection.
/// Callbacks run on the server's event-loop thread.
class CollectorSink {
 public:
  virtual ~CollectorSink() = default;
  virtual void on_connect(ConnId /*conn*/) {}
  /// First frame of a well-behaved client; `agent_id` identifies the peer.
  virtual void on_hello(ConnId /*conn*/, std::string_view /*agent_id*/,
                        std::uint8_t /*version*/) {}
  /// The rows of one batch frame, in wire order (see WireSink::on_rows);
  /// the span is valid only for the call.
  virtual void on_rows(ConnId /*conn*/,
                       std::span<const api::AggregatedPower> /*rows*/) {}
  /// A remote metrics snapshot. `send_wall_ns` is the agent's local clock at
  /// emission; `recv_wall_ns` is this process's clock at decode — the pair
  /// feeds per-connection clock-offset estimation.
  virtual void on_metrics_snapshot(ConnId /*conn*/, std::int64_t /*send_wall_ns*/,
                                   std::int64_t /*recv_wall_ns*/,
                                   const obs::MetricsSnapshot& /*snapshot*/) {}
  /// Remote trace spans (agent-local timestamps; see on_metrics_snapshot
  /// for the clock stamps).
  virtual void on_spans(ConnId /*conn*/, std::int64_t /*send_wall_ns*/,
                        std::int64_t /*recv_wall_ns*/,
                        const std::vector<RemoteSpan>& /*spans*/) {}
  /// `reason` is "bye", "eof", or a decode/read error description.
  virtual void on_disconnect(ConnId /*conn*/, std::string_view /*reason*/) {}
};

struct CollectorServerOptions {
  std::string bind_addr = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port().
  std::uint16_t port = 0;
  std::size_t max_connections = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Per-connection read budget per poll_once (0 = unlimited). Small values
  /// simulate a slow reader: the client's unsent-bytes cap then engages and
  /// its drop accounting becomes observable in tests.
  std::size_t max_read_bytes_per_poll = 0;
  /// Optional self-observability (non-owning): "net.server.*" counters.
  obs::Observability* obs = nullptr;
};

class CollectorServer {
 public:
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t frames_decoded = 0;
    std::uint64_t records_decoded = 0;
    std::uint64_t snapshots_decoded = 0;  ///< Remote metrics snapshots.
    std::uint64_t spans_decoded = 0;      ///< Remote trace spans.
    std::uint64_t bytes_received = 0;
    std::uint64_t decode_errors = 0;  ///< Connections killed by bad input.
  };

  /// Binds and listens immediately; on failure listening() is false and
  /// error() says why. `sink` must outlive the server.
  CollectorServer(CollectorServerOptions options, CollectorSink& sink);
  ~CollectorServer();

  CollectorServer(const CollectorServer&) = delete;
  CollectorServer& operator=(const CollectorServer&) = delete;

  bool listening() const noexcept { return listener_.valid(); }
  const std::string& error() const noexcept { return error_; }
  /// The bound port (resolves ephemeral port 0 requests).
  std::uint16_t port() const noexcept { return port_; }

  /// Runs the loop on a background thread until stop().
  void start();
  /// Stops the background loop (if running) and closes every connection.
  void stop();
  /// One loop step — accept + read every ready connection — blocking at
  /// most `timeout_ms`. Manual mode only (not concurrently with start()).
  /// Returns true when it made progress (accepted, read, or closed).
  bool poll_once(int timeout_ms);

  std::size_t connection_count() const noexcept {
    return connection_count_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  struct Connection;

  bool accept_ready();
  bool read_connection(Connection& conn);
  void close_connection(std::size_t index, std::string_view reason);
  void loop();

  CollectorServerOptions options_;
  CollectorSink& sink_;
  Socket listener_;
  std::string error_;
  std::uint16_t port_ = 0;
  ConnId next_conn_id_ = 1;
  std::vector<std::unique_ptr<Connection>> connections_;
  /// poll_once()'s descriptor set, rebuilt in place on every call.
  std::vector<struct pollfd> fds_;

  std::atomic<std::size_t> connection_count_{0};
  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> bytes_received_{0};
  std::atomic<std::uint64_t> frames_decoded_{0};
  std::atomic<std::uint64_t> records_decoded_{0};
  std::atomic<std::uint64_t> snapshots_decoded_{0};
  std::atomic<std::uint64_t> spans_decoded_{0};
  std::atomic<std::uint64_t> decode_errors_{0};

  obs::Counter* obs_accepted_ = nullptr;
  obs::Counter* obs_closed_ = nullptr;
  obs::Counter* obs_bytes_ = nullptr;
  obs::Counter* obs_frames_ = nullptr;
  obs::Counter* obs_records_ = nullptr;
  obs::Counter* obs_decode_errors_ = nullptr;

  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace powerapi::net
