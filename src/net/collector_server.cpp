#include "net/collector_server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.h"

namespace powerapi::net {

namespace {
constexpr const char* kLog = "net.server";
}  // namespace

/// One accepted client: its socket, its decode state, and a WireSink
/// adapter stamping the connection id onto every callback.
struct CollectorServer::Connection : WireSink {
  Connection(ConnId id_in, Socket socket_in, std::size_t max_frame_bytes,
             CollectorSink& sink_in)
      : id(id_in),
        socket(std::move(socket_in)),
        decoder(max_frame_bytes),
        sink(sink_in) {}

  void on_hello(std::string_view agent_id_in, std::uint8_t version) override {
    agent_id.assign(agent_id_in);
    sink.on_hello(id, agent_id_in, version);
  }
  void on_rows(std::span<const api::AggregatedPower> rows) override {
    sink.on_rows(id, rows);
  }
  void on_metrics_snapshot(std::int64_t send_wall_ns,
                           const obs::MetricsSnapshot& snapshot) override {
    sink.on_metrics_snapshot(id, send_wall_ns, obs::wall_now_ns(), snapshot);
  }
  void on_spans(std::int64_t send_wall_ns,
                const std::vector<RemoteSpan>& spans) override {
    sink.on_spans(id, send_wall_ns, obs::wall_now_ns(), spans);
  }
  void on_bye() override { said_bye = true; }

  ConnId id;
  Socket socket;
  FrameDecoder decoder;
  CollectorSink& sink;
  std::string agent_id;
  bool said_bye = false;
};

CollectorServer::CollectorServer(CollectorServerOptions options,
                                 CollectorSink& sink)
    : options_(std::move(options)), sink_(sink) {
  if (obs::Observability* obs = options_.obs) {
    obs_accepted_ = &obs->metrics.counter("net.server.connections_accepted");
    obs_closed_ = &obs->metrics.counter("net.server.connections_closed");
    obs_bytes_ = &obs->metrics.counter("net.server.bytes_received");
    obs_frames_ = &obs->metrics.counter("net.server.frames_decoded");
    obs_records_ = &obs->metrics.counter("net.server.records_decoded");
    obs_decode_errors_ = &obs->metrics.counter("net.server.decode_errors");
  }
  listener_ = listen_tcp(options_.bind_addr, options_.port, &error_);
  if (listener_.valid()) {
    port_ = local_port(listener_);
    POWERAPI_LOG_INFO(kLog) << "listening on " << options_.bind_addr << ":"
                            << port_;
  } else {
    POWERAPI_LOG_ERROR(kLog) << "listen failed: " << error_;
  }
}

CollectorServer::~CollectorServer() { stop(); }

void CollectorServer::start() {
  if (thread_.joinable() || !listening()) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void CollectorServer::loop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    poll_once(20);
  }
}

void CollectorServer::stop() {
  if (thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  while (!connections_.empty()) {
    close_connection(connections_.size() - 1, "server shutdown");
  }
  listener_.close();
}

bool CollectorServer::poll_once(int timeout_ms) {
  if (!listening() && connections_.empty()) return false;
  fds_.clear();
  if (listening()) {
    fds_.push_back({listener_.fd(), POLLIN, 0});
  }
  for (const auto& conn : connections_) {
    fds_.push_back({conn->socket.fd(), POLLIN, 0});
  }
  const int ready = ::poll(fds_.data(), fds_.size(), timeout_ms);
  if (ready <= 0) return false;

  bool progress = false;
  std::size_t fd_index = 0;
  if (listening()) {
    if ((fds_[fd_index].revents & POLLIN) != 0) progress |= accept_ready();
    ++fd_index;
  }
  // Walk backwards so close_connection's swap-and-pop never disturbs the
  // indices still to visit. fds_ was filled before any accept, so it lines
  // up with the first connections_ entries even after new accepts.
  const std::size_t polled = fds_.size() - fd_index;
  for (std::size_t i = polled; i-- > 0;) {
    if ((fds_[fd_index + i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    progress |= read_connection(*connections_[i]);
    if (!connections_[i]->socket.valid()) {
      close_connection(i, connections_[i]->decoder.failed()
                              ? connections_[i]->decoder.error()
                              : (connections_[i]->said_bye ? "bye" : "eof"));
      progress = true;
    }
  }
  return progress;
}

bool CollectorServer::accept_ready() {
  bool progress = false;
  for (;;) {
    Socket client(::accept(listener_.fd(), nullptr, nullptr));
    if (!client.valid()) break;  // EAGAIN / transient — try next poll.
    if (connections_.size() >= options_.max_connections) {
      POWERAPI_LOG_WARN(kLog) << "connection limit reached ("
                              << options_.max_connections << "), refusing";
      continue;  // client's dtor closes it.
    }
    set_nonblocking(client.fd());
    const int one = 1;
    ::setsockopt(client.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const ConnId id = next_conn_id_++;
    connections_.push_back(std::make_unique<Connection>(
        id, std::move(client), options_.max_frame_bytes, sink_));
    connection_count_.store(connections_.size(), std::memory_order_relaxed);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (obs_accepted_ != nullptr) obs_accepted_->add(1);
    sink_.on_connect(id);
    progress = true;
  }
  return progress;
}

bool CollectorServer::read_connection(Connection& conn) {
  bool progress = false;
  std::uint8_t buf[4096];
  std::size_t budget = options_.max_read_bytes_per_poll == 0
                           ? SIZE_MAX
                           : options_.max_read_bytes_per_poll;
  while (budget > 0) {
    const std::size_t want = std::min(budget, sizeof(buf));
    const ssize_t n = ::read(conn.socket.fd(), buf, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      POWERAPI_LOG_WARN(kLog) << "conn " << conn.id
                              << ": read failed: " << std::strerror(errno);
      conn.socket.close();
      return true;
    }
    if (n == 0) {  // EOF.
      conn.socket.close();
      return true;
    }
    progress = true;
    budget -= static_cast<std::size_t>(n);
    bytes_received_.fetch_add(static_cast<std::uint64_t>(n),
                              std::memory_order_relaxed);
    if (obs_bytes_ != nullptr) obs_bytes_->add(static_cast<std::uint64_t>(n));

    const std::uint64_t frames_before = conn.decoder.frames_decoded();
    const std::uint64_t records_before = conn.decoder.records_decoded();
    const std::uint64_t snapshots_before = conn.decoder.snapshots_decoded();
    const std::uint64_t spans_before = conn.decoder.spans_decoded();
    const bool ok =
        conn.decoder.consume(buf, static_cast<std::size_t>(n), conn);
    const std::uint64_t new_frames = conn.decoder.frames_decoded() - frames_before;
    const std::uint64_t new_records =
        conn.decoder.records_decoded() - records_before;
    snapshots_decoded_.fetch_add(
        conn.decoder.snapshots_decoded() - snapshots_before,
        std::memory_order_relaxed);
    spans_decoded_.fetch_add(conn.decoder.spans_decoded() - spans_before,
                             std::memory_order_relaxed);
    if (new_frames > 0) {
      frames_decoded_.fetch_add(new_frames, std::memory_order_relaxed);
      if (obs_frames_ != nullptr) obs_frames_->add(new_frames);
    }
    if (new_records > 0) {
      records_decoded_.fetch_add(new_records, std::memory_order_relaxed);
      if (obs_records_ != nullptr) obs_records_->add(new_records);
    }
    if (!ok) {
      // Protocol violation: this connection is beyond recovery (stream
      // state is lost), but only this connection.
      POWERAPI_LOG_WARN(kLog) << "conn " << conn.id << " ("
                              << (conn.agent_id.empty() ? "?" : conn.agent_id)
                              << "): " << conn.decoder.error();
      decode_errors_.fetch_add(1, std::memory_order_relaxed);
      if (obs_decode_errors_ != nullptr) obs_decode_errors_->add(1);
      conn.socket.close();
      return true;
    }
  }
  return progress;
}

void CollectorServer::close_connection(std::size_t index,
                                       std::string_view reason) {
  const std::unique_ptr<Connection> conn = std::move(connections_[index]);
  connections_[index] = std::move(connections_.back());
  connections_.pop_back();
  connection_count_.store(connections_.size(), std::memory_order_relaxed);
  connections_closed_.fetch_add(1, std::memory_order_relaxed);
  if (obs_closed_ != nullptr) obs_closed_->add(1);
  POWERAPI_LOG_INFO(kLog) << "conn " << conn->id << " ("
                          << (conn->agent_id.empty() ? "?" : conn->agent_id)
                          << ") closed: " << reason;
  sink_.on_disconnect(conn->id, reason);
}

CollectorServer::Stats CollectorServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.connections_closed = connections_closed_.load(std::memory_order_relaxed);
  stats.frames_decoded = frames_decoded_.load(std::memory_order_relaxed);
  stats.records_decoded = records_decoded_.load(std::memory_order_relaxed);
  stats.snapshots_decoded = snapshots_decoded_.load(std::memory_order_relaxed);
  stats.spans_decoded = spans_decoded_.load(std::memory_order_relaxed);
  stats.bytes_received = bytes_received_.load(std::memory_order_relaxed);
  stats.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace powerapi::net
