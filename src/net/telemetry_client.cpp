#include "net/telemetry_client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/logging.h"

namespace powerapi::net {

namespace {

constexpr const char* kLog = "net.client";

std::int64_t now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void idle_wait(int timeout_ms) {
  if (timeout_ms > 0) ::poll(nullptr, 0, timeout_ms);
}

}  // namespace

TelemetryClient::TelemetryClient(TelemetryClientOptions options)
    : options_(std::move(options)), rng_(options_.jitter_seed) {
  if (options_.batch_max_records == 0) options_.batch_max_records = 1;
  if (options_.queue_max_records == 0) options_.queue_max_records = 1;
  if (obs::Observability* obs = options_.obs) {
    obs_enqueued_ = &obs->metrics.counter("net.client.records_enqueued");
    obs_sent_ = &obs->metrics.counter("net.client.records_sent");
    obs_dropped_ = &obs->metrics.counter("net.client.records_dropped");
    obs_frames_ = &obs->metrics.counter("net.client.frames_sent");
    obs_bytes_ = &obs->metrics.counter("net.client.bytes_sent");
    obs_reconnects_ = &obs->metrics.counter("net.client.reconnects");
    obs_obs_frames_ = &obs->metrics.counter("net.client.obs_frames_sent");
    obs_batch_records_ = &obs->metrics.histogram("net.client.batch_records",
                                                 std::int64_t{1} << 20);
    obs_flush_latency_ = &obs->metrics.histogram("net.client.flush_latency_ns");
  }
}

TelemetryClient::~TelemetryClient() { stop(0); }

// --- Producers ---

void TelemetryClient::report(const api::AggregatedPower& row) {
  api::AggregatedPower copy = row;  // Outside the lock: producers share it.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (pending_.size() >= options_.queue_max_records) {
      pending_.pop_front();  // Drop-oldest backpressure.
      records_dropped_.fetch_add(1, std::memory_order_relaxed);
      if (obs_dropped_ != nullptr) obs_dropped_->add(1);
    }
    pending_.push_back(std::move(copy));
  }
  records_enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (obs_enqueued_ != nullptr) obs_enqueued_->add(1);
}

// --- Event loop ---

void TelemetryClient::start() {
  if (thread_.joinable()) return;
  stop_requested_.store(false, std::memory_order_relaxed);
  stopped_ = false;
  thread_ = std::thread([this] { loop(); });
}

void TelemetryClient::loop() {
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    poll_once(20);
  }
}

void TelemetryClient::stop(std::int64_t flush_timeout_ms) {
  if (thread_.joinable()) {
    stop_requested_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  if (stopped_) return;
  stopped_ = true;
  // Best-effort final drain + orderly bye on whatever connection we have.
  const std::int64_t deadline = now_ms() + flush_timeout_ms;
  while (!drained() && now_ms() < deadline) {
    if (!poll_once(5) && state_ != ConnState::kConnecting) break;
  }
  if (state_ == ConnState::kConnected) {
    // Final obs emission so the collector sees the agent's last word
    // (terminal drop counts, final self-watts) before the bye.
    if (options_.obs != nullptr && options_.obs_interval_ms > 0) {
      last_obs_ms_ = 0;
      maybe_emit_obs(now_ms());
    }
    OutFrame bye;
    bye.bytes = WireEncoder::bye_frame();
    bye.opened_ms = now_ms();
    unsent_bytes_ += bye.bytes.size();
    out_frames_.push_back(std::move(bye));
    const std::int64_t bye_deadline = now_ms() + 50;
    while (!out_frames_.empty() && now_ms() < bye_deadline) {
      if (!write_frames()) break;
      if (!out_frames_.empty()) idle_wait(2);
    }
  }
  socket_.close();
  state_ = ConnState::kDisconnected;
  connected_.store(false, std::memory_order_relaxed);
  // Whatever the final drain could not deliver is lost for good now — count
  // it. Drops are never silent, including the ones at shutdown.
  std::uint64_t lost = encoder_.pending_records();
  for (const OutFrame& frame : out_frames_) lost += frame.records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    lost += pending_.size();
    pending_.clear();
  }
  if (lost > 0) {
    POWERAPI_LOG_WARN(kLog) << options_.agent_id << ": stopping with " << lost
                            << " undelivered records (counted as dropped)";
    records_dropped_.fetch_add(lost, std::memory_order_relaxed);
    if (obs_dropped_ != nullptr) obs_dropped_->add(lost);
  }
  encoder_.reset();
  out_frames_.clear();
  unsent_bytes_ = 0;
  update_inflight();
}

bool TelemetryClient::poll_once(int timeout_ms) {
  switch (state_) {
    case ConnState::kDisconnected:
      return step_disconnected(timeout_ms);
    case ConnState::kConnecting:
      return step_connecting(timeout_ms);
    case ConnState::kConnected:
      return step_connected(timeout_ms);
  }
  return false;
}

bool TelemetryClient::step_disconnected(int timeout_ms) {
  const std::int64_t now = now_ms();
  if (now < next_attempt_ms_) {
    idle_wait(static_cast<int>(
        std::min<std::int64_t>(timeout_ms, next_attempt_ms_ - now)));
    return false;
  }
  std::string error;
  socket_ = connect_tcp(options_.host, options_.port, &error);
  if (!socket_.valid()) {
    POWERAPI_LOG_WARN(kLog) << options_.agent_id << ": connect failed: " << error;
    schedule_backoff(now);
    return false;
  }
  state_ = ConnState::kConnecting;
  return step_connecting(timeout_ms);
}

bool TelemetryClient::step_connecting(int timeout_ms) {
  struct pollfd pfd {
    socket_.fd(), POLLOUT, 0
  };
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return false;
  const int err = connect_error(socket_);
  if (err != 0) {
    POWERAPI_LOG_WARN(kLog) << options_.agent_id
                            << ": connect failed: " << std::strerror(err);
    handle_disconnect(true);
    return false;
  }
  // Connected: fresh wire state, hello first.
  encoder_.reset();
  OutFrame hello;
  hello.bytes = WireEncoder::hello_frame(options_.agent_id);
  hello.opened_ms = now_ms();
  unsent_bytes_ += hello.bytes.size();
  out_frames_.push_back(std::move(hello));
  state_ = ConnState::kConnected;
  connected_.store(true, std::memory_order_relaxed);
  connects_.fetch_add(1, std::memory_order_relaxed);
  backoff_attempts_ = 0;
  last_obs_ms_ = 0;  // First obs emission goes out right away.
  POWERAPI_LOG_INFO(kLog) << options_.agent_id << ": connected to "
                          << options_.host << ":" << options_.port;
  return true;
}

bool TelemetryClient::step_connected(int timeout_ms) {
  bool progress = encode_batches(now_ms());
  progress |= maybe_emit_obs(now_ms());
  progress |= write_frames();
  if (state_ != ConnState::kConnected) return progress;

  // Sleep only when nothing moved; cap the sleep at the batch deadline (so
  // flush-on-deadline fires on time) and at the obs cadence deadline.
  int timeout = progress ? 0 : timeout_ms;
  if (encoder_.pending_records() > 0) {
    const std::int64_t due =
        batch_opened_ms_ + options_.flush_interval_ms - now_ms();
    timeout = static_cast<int>(
        std::clamp<std::int64_t>(due, 0, static_cast<std::int64_t>(timeout)));
  }
  if (options_.obs != nullptr && options_.obs_interval_ms > 0) {
    const std::int64_t due = last_obs_ms_ + options_.obs_interval_ms - now_ms();
    timeout = static_cast<int>(
        std::clamp<std::int64_t>(due, 0, static_cast<std::int64_t>(timeout)));
  }
  struct pollfd pfd {
    socket_.fd(),
        static_cast<short>(POLLIN | (out_frames_.empty() ? 0 : POLLOUT)), 0
  };
  const int ready = ::poll(&pfd, 1, timeout);
  if (ready > 0) {
    if ((pfd.revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
      // The collector never speaks in this protocol: readable means EOF or
      // error (or stray bytes we discard).
      char buf[256];
      const ssize_t n = ::read(socket_.fd(), buf, sizeof(buf));
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        POWERAPI_LOG_WARN(kLog) << options_.agent_id
                                << ": collector closed the connection";
        handle_disconnect(true);
        return progress;
      }
    }
    if ((pfd.revents & POLLOUT) != 0) progress |= write_frames();
  }
  progress |= encode_batches(now_ms());
  if (state_ == ConnState::kConnected) progress |= maybe_emit_obs(now_ms());
  if (state_ == ConnState::kConnected) progress |= write_frames();
  return progress;
}

bool TelemetryClient::maybe_emit_obs(std::int64_t now) {
  if (options_.obs == nullptr || options_.obs_interval_ms <= 0 ||
      state_ != ConnState::kConnected) {
    return false;
  }
  if (now - last_obs_ms_ < options_.obs_interval_ms) return false;
  // Obs frames yield to the slow-reader guard like everything else; the
  // cadence just slips until the socket drains.
  if (unsent_bytes_ >= options_.max_unsent_bytes) return false;
  last_obs_ms_ = now;
  // Close any open batch first: the obs frames intern into the shared
  // dictionary, and dict definitions must reach the decoder in stream
  // order.
  if (encoder_.pending_records() > 0) close_batch(now);
  const std::int64_t wall = obs::wall_now_ns();
  OutFrame metrics;
  metrics.bytes = encoder_.take_metrics_frame(options_.obs->metrics.snapshot(), wall);
  metrics.opened_ms = now;
  unsent_bytes_ += metrics.bytes.size();
  out_frames_.push_back(std::move(metrics));
  obs_frames_sent_.fetch_add(1, std::memory_order_relaxed);
  if (obs_obs_frames_ != nullptr) obs_obs_frames_->add(1);
  span_buf_.clear();
  if (options_.obs->trace.drain(span_buf_) > 0) {
    OutFrame spans;
    spans.bytes =
        encoder_.take_spans_frame(span_buf_, options_.obs->trace, wall);
    spans.opened_ms = now;
    unsent_bytes_ += spans.bytes.size();
    out_frames_.push_back(std::move(spans));
    obs_frames_sent_.fetch_add(1, std::memory_order_relaxed);
    if (obs_obs_frames_ != nullptr) obs_obs_frames_->add(1);
  }
  return true;
}

bool TelemetryClient::encode_batches(std::int64_t now) {
  bool progress = false;
  std::lock_guard<std::mutex> lock(mutex_);
  while (!pending_.empty() && unsent_bytes_ < options_.max_unsent_bytes) {
    if (encoder_.pending_records() == 0) batch_opened_ms_ = now;
    encoder_.add(pending_.front());
    pending_.pop_front();
    progress = true;
    if (encoder_.pending_records() >= options_.batch_max_records ||
        encoder_.pending_bytes() >= options_.batch_max_bytes) {
      close_batch(now);
    }
  }
  if (encoder_.pending_records() > 0 &&
      now - batch_opened_ms_ >= options_.flush_interval_ms) {
    close_batch(now);
    progress = true;
  }
  update_inflight();
  return progress;
}

void TelemetryClient::close_batch(std::int64_t now) {
  OutFrame frame;
  frame.records = encoder_.pending_records();
  frame.bytes = encoder_.take_batch_frame();
  frame.opened_ms = batch_opened_ms_;
  unsent_bytes_ += frame.bytes.size();
  if (obs_batch_records_ != nullptr) {
    obs_batch_records_->record(static_cast<std::int64_t>(frame.records));
  }
  (void)now;
  out_frames_.push_back(std::move(frame));
}

bool TelemetryClient::write_frames() {
  bool progress = false;
  while (!out_frames_.empty()) {
    OutFrame& frame = out_frames_.front();
    const std::size_t remaining = frame.bytes.size() - frame.offset;
    // MSG_NOSIGNAL: a peer that vanished mid-stream must surface as EPIPE
    // (handled as a disconnect below), not as a process-killing SIGPIPE.
    const ssize_t n = ::send(socket_.fd(), frame.bytes.data() + frame.offset,
                             remaining, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      POWERAPI_LOG_WARN(kLog) << options_.agent_id
                              << ": write failed: " << std::strerror(errno);
      handle_disconnect(true);
      return progress;
    }
    progress = true;
    frame.offset += static_cast<std::size_t>(n);
    unsent_bytes_ -= static_cast<std::size_t>(n);
    bytes_sent_.fetch_add(static_cast<std::uint64_t>(n), std::memory_order_relaxed);
    if (obs_bytes_ != nullptr) obs_bytes_->add(static_cast<std::uint64_t>(n));
    if (frame.offset < frame.bytes.size()) break;  // Partial write: wait.
    records_sent_.fetch_add(frame.records, std::memory_order_relaxed);
    frames_sent_.fetch_add(1, std::memory_order_relaxed);
    if (obs_sent_ != nullptr) obs_sent_->add(frame.records);
    if (obs_frames_ != nullptr) obs_frames_->add(1);
    if (obs_flush_latency_ != nullptr && frame.records > 0) {
      obs_flush_latency_->record((now_ms() - frame.opened_ms) * 1'000'000);
    }
    out_frames_.pop_front();
  }
  update_inflight();
  return progress;
}

void TelemetryClient::handle_disconnect(bool failure) {
  // Whatever was encoded for this connection dies with it: the dictionary
  // state it depends on is gone. Count it — drops are never silent.
  std::uint64_t lost = encoder_.pending_records();
  for (const OutFrame& frame : out_frames_) lost += frame.records;
  if (lost > 0) {
    records_dropped_.fetch_add(lost, std::memory_order_relaxed);
    if (obs_dropped_ != nullptr) obs_dropped_->add(lost);
  }
  out_frames_.clear();
  unsent_bytes_ = 0;
  encoder_.reset();
  socket_.close();
  state_ = ConnState::kDisconnected;
  connected_.store(false, std::memory_order_relaxed);
  update_inflight();
  if (failure) schedule_backoff(now_ms());
}

void TelemetryClient::schedule_backoff(std::int64_t now) {
  const std::uint32_t shift = std::min<std::uint32_t>(backoff_attempts_, 16);
  const std::int64_t ceiling = std::min<std::int64_t>(
      options_.backoff_max_ms, options_.backoff_initial_ms << shift);
  // Jitter in [ceiling/2, ceiling): desynchronizes a fleet of agents all
  // orphaned by the same collector restart.
  const std::int64_t wait =
      ceiling / 2 +
      static_cast<std::int64_t>(rng_.uniform(0.0, static_cast<double>(
                                                      std::max<std::int64_t>(1, ceiling / 2))));
  next_attempt_ms_ = now + wait;
  ++backoff_attempts_;
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  if (obs_reconnects_ != nullptr) obs_reconnects_->add(1);
}

void TelemetryClient::update_inflight() noexcept {
  std::uint64_t inflight = encoder_.pending_records();
  for (const OutFrame& frame : out_frames_) inflight += frame.records;
  inflight_records_.store(inflight, std::memory_order_relaxed);
}

bool TelemetryClient::drained() const noexcept {
  if (inflight_records_.load(std::memory_order_relaxed) != 0) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_.empty();
}

bool TelemetryClient::flush(std::int64_t timeout_ms) {
  const std::int64_t deadline = now_ms() + timeout_ms;
  while (!drained()) {
    if (now_ms() >= deadline) return false;
    if (thread_.joinable()) {
      idle_wait(2);  // The background thread is pumping.
    } else {
      poll_once(5);
    }
  }
  return true;
}

TelemetryClient::Stats TelemetryClient::stats() const {
  Stats stats;
  stats.records_enqueued = records_enqueued_.load(std::memory_order_relaxed);
  stats.records_sent = records_sent_.load(std::memory_order_relaxed);
  stats.records_dropped = records_dropped_.load(std::memory_order_relaxed);
  stats.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  stats.obs_frames_sent = obs_frames_sent_.load(std::memory_order_relaxed);
  stats.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  stats.connects = connects_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace powerapi::net
