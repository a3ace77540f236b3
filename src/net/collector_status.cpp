#include "net/collector_status.h"

#include <algorithm>
#include <cerrno>
#include <iomanip>
#include <ostream>
#include <poll.h>
#include <sstream>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/trace.h"
#include "util/logging.h"

namespace powerapi::net {

namespace {
constexpr const char* kLog = "net.status";
}  // namespace

// --- CollectorStatus ---

CollectorStatus::CollectorStatus(CollectorSink& next, CollectorStatusOptions options)
    : next_(next), options_(std::move(options)) {}

std::int64_t CollectorStatus::now_ns() const {
  return options_.clock ? options_.clock() : obs::wall_now_ns();
}

CollectorStatus::Entry& CollectorStatus::entry_locked(ConnId conn) {
  auto [it, inserted] = live_.try_emplace(conn);
  if (inserted) {
    Entry& entry = it->second;
    entry.status.conn = conn;
    entry.status.label = "conn" + std::to_string(conn);
    entry.status.connected = true;
    if (options_.merger != nullptr) {
      entry.source = options_.merger->add_source(entry.status.label);
      entry.has_source = true;
    }
  }
  return it->second;
}

void CollectorStatus::refresh_offset_locked(Entry& entry) {
  if (!entry.has_source) return;
  entry.status.clock_offset_ns = options_.merger->offset_ns(entry.source);
  entry.status.has_offset = options_.merger->has_offset(entry.source);
}

void CollectorStatus::on_connect(ConnId conn) {
  {
    std::lock_guard lock(mutex_);
    Entry& entry = entry_locked(conn);
    entry.status.last_record_wall_ns = now_ns();
  }
  next_.on_connect(conn);
}

void CollectorStatus::on_hello(ConnId conn, std::string_view agent_id,
                               std::uint8_t version) {
  {
    std::lock_guard lock(mutex_);
    Entry& entry = entry_locked(conn);
    entry.status.label.assign(agent_id);
    entry.status.last_record_wall_ns = now_ns();
    if (entry.has_source) {
      options_.merger->set_label(entry.source, entry.status.label);
    }
  }
  next_.on_hello(conn, agent_id, version);
}

void CollectorStatus::on_rows(ConnId conn, std::span<const api::AggregatedPower> rows) {
  {
    std::lock_guard lock(mutex_);
    Entry& entry = entry_locked(conn);
    entry.status.aggregated += rows.size();
    entry.status.last_record_wall_ns = now_ns();
  }
  next_.on_rows(conn, rows);
}

void CollectorStatus::on_metrics_snapshot(ConnId conn, std::int64_t send_wall_ns,
                                          std::int64_t recv_wall_ns,
                                          const obs::MetricsSnapshot& snapshot) {
  {
    std::lock_guard lock(mutex_);
    Entry& entry = entry_locked(conn);
    ++entry.status.snapshots;
    entry.status.last_record_wall_ns = recv_wall_ns;
    entry.status.last_snapshot_wall_ns = recv_wall_ns;
    // The agent's self-reported health rides in its own metrics.
    entry.status.self_watts = snapshot.value_of("self.watts");
    entry.status.records_dropped = static_cast<std::uint64_t>(
        snapshot.value_of("net.client.records_dropped"));
    entry.status.reconnects =
        static_cast<std::uint64_t>(snapshot.value_of("net.client.reconnects"));
    entry.status.governor_actuations =
        static_cast<std::uint64_t>(snapshot.value_of("governor.actuations"));
    if (entry.has_source) {
      options_.merger->observe_offset(entry.source, send_wall_ns, recv_wall_ns);
      options_.merger->set_dropped(
          entry.source, static_cast<std::uint64_t>(
                            snapshot.value_of("obs.trace.spans_dropped")));
      refresh_offset_locked(entry);
    }
  }
  next_.on_metrics_snapshot(conn, send_wall_ns, recv_wall_ns, snapshot);
}

void CollectorStatus::on_spans(ConnId conn, std::int64_t send_wall_ns,
                               std::int64_t recv_wall_ns,
                               const std::vector<RemoteSpan>& spans) {
  {
    std::lock_guard lock(mutex_);
    Entry& entry = entry_locked(conn);
    entry.status.spans += spans.size();
    entry.status.last_record_wall_ns = recv_wall_ns;
    if (entry.has_source) {
      options_.merger->observe_offset(entry.source, send_wall_ns, recv_wall_ns);
      for (const RemoteSpan& span : spans) {
        options_.merger->add_span(entry.source, span.name, span.tid, span.ts_ns,
                                  span.dur_ns, span.seq);
      }
      refresh_offset_locked(entry);
    }
  }
  next_.on_spans(conn, send_wall_ns, recv_wall_ns, spans);
}

void CollectorStatus::on_disconnect(ConnId conn, std::string_view reason) {
  {
    std::lock_guard lock(mutex_);
    const auto it = live_.find(conn);
    if (it != live_.end()) {
      Entry entry = std::move(it->second);
      live_.erase(it);
      entry.status.connected = false;
      entry.status.disconnect_reason.assign(reason);
      dead_.push_back(std::move(entry));
      if (dead_.size() > options_.max_dead_agents) {
        dead_.erase(dead_.begin());
      }
    }
  }
  next_.on_disconnect(conn, reason);
}

std::vector<CollectorStatus::AgentStatus> CollectorStatus::agents() const {
  std::vector<AgentStatus> out;
  std::lock_guard lock(mutex_);
  out.reserve(live_.size() + dead_.size());
  for (const auto& [conn, entry] : live_) out.push_back(entry.status);
  for (const Entry& entry : dead_) out.push_back(entry.status);
  std::sort(out.begin(), out.end(),
            [](const AgentStatus& a, const AgentStatus& b) { return a.conn < b.conn; });
  return out;
}

double CollectorStatus::fleet_self_watts() const {
  std::lock_guard lock(mutex_);
  double total = 0.0;
  for (const auto& [conn, entry] : live_) total += entry.status.self_watts;
  return total;
}

void CollectorStatus::render_text(std::ostream& out) const {
  const std::vector<AgentStatus> all = agents();
  out << "collector status: " << all.size() << " agent(s), fleet self-watts "
      << fleet_self_watts() << "\n";
  if (server_ != nullptr) {
    const CollectorServer::Stats stats = server_->stats();
    out << "wire: " << stats.bytes_received << " B, " << stats.frames_decoded
        << " frames, " << stats.records_decoded << " records, "
        << stats.snapshots_decoded << " snapshots, " << stats.spans_decoded
        << " spans, " << stats.decode_errors << " decode errors\n";
  }
  for (const AgentStatus& agent : all) {
    out << "  " << agent.label << " (conn " << agent.conn << ") "
        << (agent.connected ? "up" : "down");
    if (!agent.connected && !agent.disconnect_reason.empty()) {
      out << " [" << agent.disconnect_reason << "]";
    }
    out << ": agg=" << agent.aggregated << " snaps=" << agent.snapshots
        << " spans=" << agent.spans << " drops=" << agent.records_dropped
        << " reconnects=" << agent.reconnects << " gov_act="
        << agent.governor_actuations << " self_watts=" << agent.self_watts;
    if (agent.has_offset) {
      out << " clock_offset_ns=" << agent.clock_offset_ns;
    }
    out << "\n";
  }
}

void CollectorStatus::render_json(std::ostream& out) const {
  const std::vector<AgentStatus> all = agents();
  out << "{\"fleet_self_watts\":" << fleet_self_watts();
  if (server_ != nullptr) {
    const CollectorServer::Stats stats = server_->stats();
    out << ",\"wire\":{\"bytes_received\":" << stats.bytes_received
        << ",\"frames_decoded\":" << stats.frames_decoded
        << ",\"records_decoded\":" << stats.records_decoded
        << ",\"snapshots_decoded\":" << stats.snapshots_decoded
        << ",\"spans_decoded\":" << stats.spans_decoded
        << ",\"decode_errors\":" << stats.decode_errors << "}";
  }
  out << ",\"agents\":[";
  bool first = true;
  for (const AgentStatus& agent : all) {
    if (!first) out << ',';
    first = false;
    out << "{\"label\":";
    obs::detail::write_json_string(out, agent.label);
    out << ",\"conn\":" << agent.conn
        << ",\"connected\":" << (agent.connected ? "true" : "false")
        << ",\"aggregated\":" << agent.aggregated
        << ",\"snapshots\":" << agent.snapshots << ",\"spans\":" << agent.spans
        << ",\"records_dropped\":" << agent.records_dropped
        << ",\"reconnects\":" << agent.reconnects
        << ",\"governor_actuations\":" << agent.governor_actuations
        << ",\"self_watts\":" << agent.self_watts
        << ",\"clock_offset_ns\":" << agent.clock_offset_ns
        << ",\"has_offset\":" << (agent.has_offset ? "true" : "false");
    if (!agent.connected) {
      out << ",\"disconnect_reason\":";
      obs::detail::write_json_string(out, agent.disconnect_reason);
    }
    out << "}";
  }
  out << "]}";
}

WatchdogSample CollectorStatus::watchdog_sample() const {
  WatchdogSample sample;
  std::lock_guard lock(mutex_);
  sample.agents.reserve(live_.size());
  for (const auto& [conn, entry] : live_) {
    WatchdogSample::Agent agent;
    agent.label = entry.status.label;
    agent.connected = entry.status.connected;
    agent.records_dropped = entry.status.records_dropped;
    agent.reconnects = entry.status.reconnects;
    agent.last_activity_wall_ns = entry.status.last_record_wall_ns;
    sample.agents.push_back(std::move(agent));
    sample.fleet_self_watts += entry.status.self_watts;
  }
  return sample;
}

// --- StatusListener ---

StatusListener::StatusListener(std::uint16_t port, Render render,
                               std::string bind_addr)
    : render_(std::move(render)) {
  listener_ = listen_tcp(bind_addr, port, &error_);
  if (listener_.valid()) {
    port_ = local_port(listener_);
    POWERAPI_LOG_INFO(kLog) << "status listener on " << bind_addr << ":" << port_;
  } else {
    POWERAPI_LOG_WARN(kLog) << "status listen failed: " << error_;
  }
}

StatusListener::~StatusListener() = default;

bool StatusListener::poll_once(int timeout_ms) {
  if (!listening()) return false;
  std::vector<struct pollfd> fds;
  fds.reserve(clients_.size() + 1);
  fds.push_back({listener_.fd(), POLLIN, 0});
  for (const Client& client : clients_) {
    fds.push_back({client.socket.fd(),
                   static_cast<short>(POLLIN | (client.out.empty() ? 0 : POLLOUT)),
                   0});
  }
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return false;

  bool progress = false;
  if ((fds[0].revents & POLLIN) != 0) {
    for (;;) {
      Socket client(::accept(listener_.fd(), nullptr, nullptr));
      if (!client.valid()) break;
      if (clients_.size() >= kMaxClients) continue;  // Refuse: dtor closes.
      set_nonblocking(client.fd());
      Client entry;
      entry.socket = std::move(client);
      clients_.push_back(std::move(entry));
      progress = true;
    }
  }
  // Backwards: serve_client may invalidate its socket, and swap-and-pop
  // must not disturb indices still to visit.
  for (std::size_t i = clients_.size(); i-- > 0;) {
    const std::size_t fd_index = i + 1;
    if (fd_index < fds.size() &&
        (fds[fd_index].revents & (POLLIN | POLLOUT | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    progress |= serve_client(clients_[i]);
    if (!clients_[i].socket.valid()) {
      clients_[i] = std::move(clients_.back());
      clients_.pop_back();
      progress = true;
    }
  }
  return progress;
}

bool StatusListener::serve_client(Client& client) {
  bool progress = false;
  // Drain input, answering each complete line.
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(client.socket.fd(), buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      client.socket.close();
      return true;
    }
    if (n == 0) {
      client.socket.close();
      return true;
    }
    progress = true;
    client.in.append(buf, static_cast<std::size_t>(n));
    if (client.in.size() > kMaxLineBytes) {
      client.socket.close();  // Hostile line length: drop.
      return true;
    }
    std::size_t newline;
    while ((newline = client.in.find('\n')) != std::string::npos) {
      std::string line = client.in.substr(0, newline);
      client.in.erase(0, newline + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      std::ostringstream response;
      render_(response, line == "json");
      client.out += response.str();
      if (client.out.empty() || client.out.back() != '\n') client.out += '\n';
    }
  }
  // Flush what we can; the rest waits for POLLOUT.
  while (!client.out.empty()) {
    const ssize_t n = ::send(client.socket.fd(), client.out.data(),
                             client.out.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      client.socket.close();
      return true;
    }
    progress = true;
    client.out.erase(0, static_cast<std::size_t>(n));
  }
  return progress;
}

}  // namespace powerapi::net
