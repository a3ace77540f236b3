#include "net/wire.h"

#include <cstring>

#include "util/crc32c.h"
#include "util/varint.h"

namespace powerapi::net {

namespace {

// Batch record kinds. Kinds 2 and 4 are retired (a per-estimate and a
// per-metric record) and decode as unknown, like any kind not listed.
enum RecordKind : std::uint8_t {
  kDict = 1,
  kAggregated = 3,
};

// Record kinds inside the obs-frame payloads (metrics snapshot / spans).
// Kind 1 is the dict record in every payload flavor, so the shared
// per-connection dictionary grows identically whichever frame defines a
// string first.
enum ObsRecordKind : std::uint8_t {
  kObsDict = 1,
  kObsValue = 2,      ///< Metrics frame: counter or gauge.
  kObsHistogram = 3,  ///< Metrics frame: histogram with buckets.
  kObsComplete = 2,   ///< Spans frame: complete span (with duration).
  kObsInstant = 3,    ///< Spans frame: instant event.
};

/// Histograms larger than this are a protocol violation (a real HDR
/// histogram has at most a few hundred non-empty buckets).
constexpr std::uint64_t kMaxHistogramBuckets = 1u << 16;

/// Dictionary ids per connection are capped so a corrupt stream cannot make
/// the decoder allocate unboundedly.
constexpr std::uint64_t kMaxDictEntries = 1u << 16;
constexpr std::uint64_t kMaxDictStringBytes = 4096;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 24));
}

std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// Doubles travel as their 8-byte little-endian bit pattern: exact
// round-trip (the e2e determinism check depends on it), no text formatting.
void put_f64(std::vector<std::uint8_t>& out, double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

double get_f64(const std::uint8_t* p) noexcept {
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) bits = (bits << 8) | p[i];
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Cursor over a payload: varint/f64 readers that fail on truncation.
struct Reader {
  const std::uint8_t* data;
  std::size_t size;
  std::size_t pos = 0;

  bool done() const noexcept { return pos >= size; }

  bool u8(std::uint8_t& out) noexcept {
    if (pos + 1 > size) return false;
    out = data[pos++];
    return true;
  }
  bool varint(std::uint64_t& out) noexcept {
    const std::size_t used = util::get_varint(data + pos, size - pos, out);
    pos += used;
    return used != 0;
  }
  bool svarint(std::int64_t& out) noexcept {
    const std::size_t used = util::get_varint_signed(data + pos, size - pos, out);
    pos += used;
    return used != 0;
  }
  bool f64(double& out) noexcept {
    if (pos + 8 > size) return false;
    out = get_f64(data + pos);
    pos += 8;
    return true;
  }
  bool bytes(std::size_t n, std::string_view& out) noexcept {
    if (pos + n > size) return false;
    out = std::string_view(reinterpret_cast<const char*>(data + pos), n);
    pos += n;
    return true;
  }
};

}  // namespace

// --- WireEncoder ---

std::uint64_t WireEncoder::intern(std::string_view text) {
  const auto it = dict_.find(text);
  if (it != dict_.end()) return it->second;
  const std::uint64_t id = dict_.size();
  dict_.emplace(std::string(text), id);
  batch_.push_back(kDict);
  util::put_varint(batch_, id);
  util::put_varint(batch_, text.size());
  batch_.insert(batch_.end(), text.begin(), text.end());
  return id;
}

void WireEncoder::put_timestamp(util::TimestampNs timestamp) {
  util::put_varint_signed(batch_, timestamp - last_ts_);
  last_ts_ = timestamp;
}

void WireEncoder::add(const api::AggregatedPower& row) {
  const std::uint64_t formula = intern(row.formula);
  const std::uint64_t group = intern(row.group);
  batch_.push_back(kAggregated);
  put_timestamp(row.timestamp);
  util::put_varint_signed(batch_, row.pid);
  util::put_varint(batch_, formula);
  util::put_varint(batch_, group);
  put_f64(batch_, row.watts);
  ++records_;
}

std::vector<std::uint8_t> WireEncoder::take_batch_frame() {
  std::vector<std::uint8_t> frame = make_frame(FrameType::kBatch, batch_);
  batch_.clear();
  records_ = 0;
  return frame;
}

std::vector<std::uint8_t> WireEncoder::take_metrics_frame(
    const obs::MetricsSnapshot& snapshot, std::int64_t send_wall_ns) {
  // batch_ doubles as the build buffer so intern() lands dict records in
  // stream order; the precondition (no pending batch) makes that safe.
  batch_.push_back(kObsPayloadVersion);
  util::put_varint_signed(batch_, send_wall_ns);
  for (const obs::MetricValue& metric : snapshot.metrics) {
    const std::uint64_t name = intern(metric.name);
    if (metric.kind == obs::MetricKind::kHistogram) {
      batch_.push_back(kObsHistogram);
      util::put_varint(batch_, name);
      util::put_varint(batch_, metric.hist.count);
      util::put_varint(batch_, metric.hist.overflow);
      put_f64(batch_, metric.hist.sum);
      util::put_varint(batch_, metric.hist.buckets.size());
      std::int64_t last_lower = 0;
      for (const auto& [lower, count] : metric.hist.buckets) {
        util::put_varint_signed(batch_, lower - last_lower);
        util::put_varint(batch_, count);
        last_lower = lower;
      }
    } else {
      batch_.push_back(kObsValue);
      batch_.push_back(static_cast<std::uint8_t>(metric.kind));
      util::put_varint(batch_, name);
      put_f64(batch_, metric.value);
    }
  }
  std::vector<std::uint8_t> frame = make_frame(FrameType::kMetricsSnapshot, batch_);
  batch_.clear();
  return frame;
}

std::vector<std::uint8_t> WireEncoder::take_spans_frame(
    const std::vector<obs::TraceCollector::Span>& spans,
    const obs::TraceCollector& trace, std::int64_t send_wall_ns) {
  batch_.push_back(kObsPayloadVersion);
  util::put_varint_signed(batch_, send_wall_ns);
  for (const obs::TraceCollector::Span& span : spans) {
    const std::uint64_t name = intern(trace.name_of(span.name));
    const bool instant = span.dur_ns < 0;
    batch_.push_back(instant ? kObsInstant : kObsComplete);
    util::put_varint(batch_, name);
    util::put_varint(batch_, span.tid);
    // Spans are roughly time-ordered per shard, so deltas against their own
    // base stay small without disturbing the batch-record timestamp base.
    util::put_varint_signed(batch_, span.ts_ns - last_span_ts_);
    last_span_ts_ = span.ts_ns;
    if (!instant) util::put_varint(batch_, static_cast<std::uint64_t>(span.dur_ns));
    util::put_varint(batch_, span.seq);
  }
  std::vector<std::uint8_t> frame = make_frame(FrameType::kSpans, batch_);
  batch_.clear();
  return frame;
}

void WireEncoder::reset() {
  batch_.clear();
  records_ = 0;
  dict_.clear();
  last_ts_ = 0;
  last_span_ts_ = 0;
}

std::vector<std::uint8_t> WireEncoder::make_frame(
    FrameType type, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  put_u32(frame, kWireMagic);
  frame.push_back(kWireVersion);
  frame.push_back(static_cast<std::uint8_t>(type));
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  std::uint32_t crc = util::crc32c(frame.data(), frame.size());
  crc = util::crc32c_extend(crc, payload.data(), payload.size());
  put_u32(frame, crc);
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

std::vector<std::uint8_t> WireEncoder::hello_frame(std::string_view agent_id) {
  std::vector<std::uint8_t> payload;
  util::put_varint(payload, kWireVersion);
  util::put_varint(payload, agent_id.size());
  payload.insert(payload.end(), agent_id.begin(), agent_id.end());
  return make_frame(FrameType::kHello, payload);
}

std::vector<std::uint8_t> WireEncoder::bye_frame() {
  return make_frame(FrameType::kBye, {});
}

// --- FrameDecoder ---

bool FrameDecoder::fail(std::string why) {
  failed_ = true;
  error_ = std::move(why);
  return false;
}

void FrameDecoder::reset() {
  buffer_.clear();
  consumed_ = 0;
  failed_ = false;
  error_.clear();
  dict_.clear();
  last_ts_ = 0;
  last_span_ts_ = 0;
}

bool FrameDecoder::consume(const std::uint8_t* data, std::size_t size,
                           WireSink& sink) {
  if (failed_) return false;
  buffer_.insert(buffer_.end(), data, data + size);
  while (buffer_.size() - consumed_ >= kFrameHeaderBytes) {
    const std::uint8_t* head = buffer_.data() + consumed_;
    if (get_u32(head) != kWireMagic) return fail("bad frame magic");
    const std::uint8_t version = head[4];
    if (version != kWireVersion) {
      return fail("unsupported wire version " + std::to_string(version));
    }
    const std::uint8_t type = head[5];
    const std::size_t payload_len = get_u32(head + 6);
    if (payload_len > max_frame_bytes_) {
      return fail("frame payload " + std::to_string(payload_len) +
                  " bytes exceeds limit " + std::to_string(max_frame_bytes_));
    }
    if (buffer_.size() - consumed_ < kFrameHeaderBytes + payload_len) {
      break;  // Torn frame: wait for the rest.
    }
    const std::uint8_t* payload = head + kFrameHeaderBytes;
    std::uint32_t crc = util::crc32c(head, 10);
    crc = util::crc32c_extend(crc, payload, payload_len);
    if (crc != get_u32(head + 10)) return fail("frame crc32c mismatch");
    if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
        type > static_cast<std::uint8_t>(FrameType::kSpans)) {
      return fail("unknown frame type " + std::to_string(type));
    }
    if (!decode_frame(static_cast<FrameType>(type), payload, payload_len, sink)) {
      return false;
    }
    ++frames_;
    consumed_ += kFrameHeaderBytes + payload_len;
  }
  // Compact: drop the decoded prefix once it dominates the buffer.
  if (consumed_ > 0 && consumed_ * 2 >= buffer_.size()) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  return true;
}

bool FrameDecoder::decode_frame(FrameType type, const std::uint8_t* payload,
                                std::size_t size, WireSink& sink) {
  if (type == FrameType::kBye) {
    if (size != 0) return fail("bye frame with payload");
    sink.on_bye();
    return true;
  }
  if (type == FrameType::kHello) {
    Reader r{payload, size};
    std::uint64_t version = 0;
    std::uint64_t name_len = 0;
    std::string_view agent_id;
    if (!r.varint(version) || !r.varint(name_len) || name_len > kMaxDictStringBytes ||
        !r.bytes(name_len, agent_id) || !r.done()) {
      return fail("malformed hello payload");
    }
    sink.on_hello(agent_id, static_cast<std::uint8_t>(version));
    return true;
  }
  if (type == FrameType::kMetricsSnapshot) {
    return decode_metrics_snapshot(payload, size, sink);
  }
  if (type == FrameType::kSpans) return decode_spans(payload, size, sink);
  return decode_batch(payload, size, sink);
}

bool FrameDecoder::decode_batch(const std::uint8_t* payload, std::size_t size,
                                WireSink& sink) {
  Reader r{payload, size};
  std::size_t rows = 0;
  while (!r.done()) {
    std::uint8_t kind = 0;
    if (!r.u8(kind)) return fail("truncated record kind");
    switch (kind) {
      case kDict: {
        std::uint64_t id = 0;
        std::uint64_t len = 0;
        std::string_view text;
        if (!r.varint(id) || !r.varint(len) || len > kMaxDictStringBytes ||
            !r.bytes(len, text)) {
          return fail("truncated dict record");
        }
        // Ids are assigned densely in stream order on the encoder side.
        if (id != dict_.size() || id >= kMaxDictEntries) {
          return fail("dict id " + std::to_string(id) + " out of sequence");
        }
        dict_.emplace_back(text);
        break;
      }
      case kAggregated: {
        std::int64_t ts_delta = 0;
        std::int64_t pid = 0;
        std::uint64_t formula = 0;
        std::uint64_t group = 0;
        double watts = 0.0;
        if (!r.svarint(ts_delta) || !r.svarint(pid) || !r.varint(formula) ||
            !r.varint(group) || !r.f64(watts)) {
          return fail("truncated aggregated record");
        }
        if (formula >= dict_.size() || group >= dict_.size()) {
          return fail("aggregated string id undefined");
        }
        if (rows == rows_.size()) rows_.emplace_back();
        api::AggregatedPower& row = rows_[rows++];
        last_ts_ += ts_delta;
        row.timestamp = last_ts_;
        row.pid = pid;
        row.formula.assign(dict_[formula]);
        row.group.assign(dict_[group]);
        row.watts = watts;
        break;
      }
      default:
        return fail("unknown record kind " + std::to_string(kind));
    }
  }
  if (rows > 0) {
    records_ += rows;
    sink.on_rows(std::span<const api::AggregatedPower>(rows_.data(), rows));
  }
  return true;
}

bool FrameDecoder::decode_metrics_snapshot(const std::uint8_t* payload,
                                           std::size_t size, WireSink& sink) {
  Reader r{payload, size};
  std::uint8_t payload_version = 0;
  std::int64_t send_wall_ns = 0;
  if (!r.u8(payload_version) || !r.svarint(send_wall_ns)) {
    return fail("truncated metrics-snapshot header");
  }
  if (payload_version != kObsPayloadVersion) {
    return fail("unsupported metrics-snapshot payload version " +
                std::to_string(payload_version));
  }
  obs::MetricsSnapshot snapshot;
  while (!r.done()) {
    std::uint8_t kind = 0;
    if (!r.u8(kind)) return fail("truncated metrics record kind");
    switch (kind) {
      case kObsDict: {
        std::uint64_t id = 0;
        std::uint64_t len = 0;
        std::string_view text;
        if (!r.varint(id) || !r.varint(len) || len > kMaxDictStringBytes ||
            !r.bytes(len, text)) {
          return fail("truncated dict record");
        }
        if (id != dict_.size() || id >= kMaxDictEntries) {
          return fail("dict id " + std::to_string(id) + " out of sequence");
        }
        dict_.emplace_back(text);
        break;
      }
      case kObsValue: {
        obs::MetricValue metric;
        std::uint8_t metric_kind = 0;
        std::uint64_t name = 0;
        if (!r.u8(metric_kind) ||
            metric_kind > static_cast<std::uint8_t>(obs::MetricKind::kHistogram) ||
            !r.varint(name) || !r.f64(metric.value)) {
          return fail("truncated metric value record");
        }
        if (name >= dict_.size()) return fail("metric name id undefined");
        metric.name = dict_[name];
        metric.kind = static_cast<obs::MetricKind>(metric_kind);
        snapshot.metrics.push_back(std::move(metric));
        break;
      }
      case kObsHistogram: {
        obs::MetricValue metric;
        metric.kind = obs::MetricKind::kHistogram;
        std::uint64_t name = 0;
        std::uint64_t bucket_count = 0;
        if (!r.varint(name) || !r.varint(metric.hist.count) ||
            !r.varint(metric.hist.overflow) || !r.f64(metric.hist.sum) ||
            !r.varint(bucket_count) || bucket_count > kMaxHistogramBuckets) {
          return fail("truncated histogram record");
        }
        if (name >= dict_.size()) return fail("metric name id undefined");
        metric.name = dict_[name];
        metric.hist.buckets.reserve(bucket_count);
        std::int64_t last_lower = 0;
        for (std::uint64_t i = 0; i < bucket_count; ++i) {
          std::int64_t lower_delta = 0;
          std::uint64_t count = 0;
          if (!r.svarint(lower_delta) || !r.varint(count)) {
            return fail("truncated histogram bucket");
          }
          last_lower += lower_delta;
          metric.hist.buckets.emplace_back(last_lower, count);
        }
        metric.value = static_cast<double>(metric.hist.count);
        snapshot.metrics.push_back(std::move(metric));
        break;
      }
      default:
        return fail("unknown metrics record kind " + std::to_string(kind));
    }
  }
  ++snapshots_;
  sink.on_metrics_snapshot(send_wall_ns, snapshot);
  return true;
}

bool FrameDecoder::decode_spans(const std::uint8_t* payload, std::size_t size,
                                WireSink& sink) {
  Reader r{payload, size};
  std::uint8_t payload_version = 0;
  std::int64_t send_wall_ns = 0;
  if (!r.u8(payload_version) || !r.svarint(send_wall_ns)) {
    return fail("truncated spans header");
  }
  if (payload_version != kObsPayloadVersion) {
    return fail("unsupported spans payload version " +
                std::to_string(payload_version));
  }
  std::vector<RemoteSpan> decoded;
  std::vector<std::uint64_t> name_ids;
  while (!r.done()) {
    std::uint8_t kind = 0;
    if (!r.u8(kind)) return fail("truncated span record kind");
    switch (kind) {
      case kObsDict: {
        std::uint64_t id = 0;
        std::uint64_t len = 0;
        std::string_view text;
        if (!r.varint(id) || !r.varint(len) || len > kMaxDictStringBytes ||
            !r.bytes(len, text)) {
          return fail("truncated dict record");
        }
        if (id != dict_.size() || id >= kMaxDictEntries) {
          return fail("dict id " + std::to_string(id) + " out of sequence");
        }
        dict_.emplace_back(text);
        break;
      }
      case kObsComplete:
      case kObsInstant: {
        RemoteSpan span;
        std::uint64_t name = 0;
        std::uint64_t tid = 0;
        std::int64_t ts_delta = 0;
        std::uint64_t dur = 0;
        const bool instant = kind == kObsInstant;
        if (!r.varint(name) || !r.varint(tid) || !r.svarint(ts_delta) ||
            (!instant && !r.varint(dur)) || !r.varint(span.seq)) {
          return fail("truncated span record");
        }
        if (name >= dict_.size()) return fail("span name id undefined");
        last_span_ts_ += ts_delta;
        name_ids.push_back(name);
        span.tid = static_cast<std::uint32_t>(tid);
        span.ts_ns = last_span_ts_;
        span.dur_ns = instant ? -1 : static_cast<std::int64_t>(dur);
        decoded.push_back(span);
        break;
      }
      default:
        return fail("unknown span record kind " + std::to_string(kind));
    }
  }
  // Name views are resolved only now: a dict record later in the frame grows
  // dict_, and the reallocation moves small-string buffers, so a view taken
  // mid-loop could dangle by the time the sink sees it.
  for (std::size_t i = 0; i < decoded.size(); ++i) {
    decoded[i].name = dict_[name_ids[i]];
  }
  spans_ += decoded.size();
  sink.on_spans(send_wall_ns, decoded);
  return true;
}

}  // namespace powerapi::net
