// CollectorStatus: the collector's per-agent health ledger plus a tiny
// line-oriented TCP status listener.
//
// CollectorStatus is a CollectorSink decorator — chain it in front of the
// BusBridge (or any sink) and it passively accounts every connection:
// row, snapshot and span counts, last-activity stamps, the agent's
// self-reported drop / reconnect / governor-actuation counters and
// self-watts (extracted from remote metrics snapshots), and the
// per-connection clock-offset estimate. Text and JSON renders carry one
// column each: agg (rows), snaps, spans, drops, reconnects, gov_act,
// self_watts and, once estimated, clock_offset_ns. When a
// TraceMerger is attached, remote spans and (send, recv) clock pairs flow
// into it, building the single merged Chrome trace across the fleet.
//
// The surface is pull-based: render_text() for humans ("status" command /
// periodic dumps), render_json() for machines (one line, JSONL-friendly),
// watchdog_sample() for Watchdog::check(). StatusListener serves the same
// renders over TCP — `echo status | nc host port` — without letting a
// slow reader touch the collection path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "net/collector_server.h"
#include "net/watchdog.h"
#include "obs/trace_merge.h"

namespace powerapi::net {

struct CollectorStatusOptions {
  /// Merged-trace destination (non-owning; null = spans are dropped here).
  obs::TraceMerger* merger = nullptr;
  /// Staleness clock override for deterministic tests (default
  /// obs::wall_now_ns).
  std::function<std::int64_t()> clock;
  /// Disconnected agents retained for post-mortem renders (oldest evicted).
  std::size_t max_dead_agents = 16;
};

class CollectorStatus final : public CollectorSink {
 public:
  struct AgentStatus {
    ConnId conn = 0;
    std::string label;
    bool connected = false;
    std::uint64_t aggregated = 0;  ///< Rows decoded.
    std::uint64_t snapshots = 0;
    std::uint64_t spans = 0;
    std::int64_t last_record_wall_ns = 0;    ///< Collector clock.
    std::int64_t last_snapshot_wall_ns = 0;  ///< Collector clock.
    std::int64_t clock_offset_ns = 0;
    bool has_offset = false;
    // Self-reported by the agent's metrics snapshots.
    double self_watts = 0.0;
    std::uint64_t records_dropped = 0;
    std::uint64_t reconnects = 0;
    /// Governor actuations the agent has applied (its "governor.actuations"
    /// counter); stays 0 for agents running uncapped.
    std::uint64_t governor_actuations = 0;
    std::string disconnect_reason;  ///< Set once disconnected.
  };

  /// Decorates `next`; both must outlive the server feeding this sink.
  CollectorStatus(CollectorSink& next, CollectorStatusOptions options = {});

  /// Lets renders include the server's wire totals (bytes, decode errors).
  /// Non-owning; call before the server starts feeding this sink.
  void attach_server(const CollectorServer* server) { server_ = server; }

  /// Point-in-time copy of every tracked agent (live first, then retained
  /// dead ones), sorted by connection id.
  std::vector<AgentStatus> agents() const;

  /// Sum of connected agents' self-reported watts.
  double fleet_self_watts() const;

  /// Human-readable multi-line table.
  void render_text(std::ostream& out) const;
  /// Single-line JSON object (JSONL-friendly).
  void render_json(std::ostream& out) const;

  /// The watchdog's view of the fleet.
  WatchdogSample watchdog_sample() const;

  // CollectorSink (server event-loop thread): account, then forward.
  void on_connect(ConnId conn) override;
  void on_hello(ConnId conn, std::string_view agent_id, std::uint8_t version) override;
  void on_rows(ConnId conn, std::span<const api::AggregatedPower> rows) override;
  void on_metrics_snapshot(ConnId conn, std::int64_t send_wall_ns,
                           std::int64_t recv_wall_ns,
                           const obs::MetricsSnapshot& snapshot) override;
  void on_spans(ConnId conn, std::int64_t send_wall_ns, std::int64_t recv_wall_ns,
                const std::vector<RemoteSpan>& spans) override;
  void on_disconnect(ConnId conn, std::string_view reason) override;

 private:
  struct Entry {
    AgentStatus status;
    obs::TraceMerger::SourceId source = 0;
    bool has_source = false;
  };

  Entry& entry_locked(ConnId conn);
  std::int64_t now_ns() const;
  void refresh_offset_locked(Entry& entry);

  CollectorSink& next_;
  CollectorStatusOptions options_;
  const CollectorServer* server_ = nullptr;

  mutable std::mutex mutex_;
  std::map<ConnId, Entry> live_;
  std::vector<Entry> dead_;  ///< Bounded post-mortem retention.
};

/// Line-oriented TCP status listener: each received line is a command —
/// "status" (or an empty line) answers with the text render, "json" with
/// the JSONL render. Runs on manual poll_once() pumping, single-threaded,
/// bounded connections and line lengths; it shares no locks with the
/// collection hot path beyond the status object's own mutex.
class StatusListener {
 public:
  /// Renders a response; `json` selects the format.
  using Render = std::function<void(std::ostream& out, bool json)>;

  StatusListener(std::uint16_t port, Render render,
                 std::string bind_addr = "127.0.0.1");
  ~StatusListener();

  StatusListener(const StatusListener&) = delete;
  StatusListener& operator=(const StatusListener&) = delete;

  bool listening() const noexcept { return listener_.valid(); }
  const std::string& error() const noexcept { return error_; }
  std::uint16_t port() const noexcept { return port_; }

  /// Accepts + serves ready clients; blocks at most `timeout_ms`.
  /// Returns true when it made progress.
  bool poll_once(int timeout_ms);

 private:
  struct Client {
    Socket socket;
    std::string in;   ///< Partial command line.
    std::string out;  ///< Unwritten response bytes.
  };

  static constexpr std::size_t kMaxClients = 8;
  static constexpr std::size_t kMaxLineBytes = 128;

  bool serve_client(Client& client);

  Render render_;
  Socket listener_;
  std::string error_;
  std::uint16_t port_ = 0;
  std::vector<Client> clients_;
};

}  // namespace powerapi::net
