// The telemetry wire format: versioned, length-prefixed binary frames
// carrying batched pipeline records between an agent (TelemetryClient) and
// a collector (CollectorServer).
//
// Frame layout (multi-byte fields little-endian):
//
//   offset 0   u32  magic        0x50415750 ("PWAP")
//          4   u8   version      kWireVersion
//          5   u8   type         FrameType (hello / batch / bye)
//          6   u32  payload_len  bytes following the header
//         10   u32  crc32c       over header bytes [0,10) ++ payload
//         14   payload
//
// A batch payload is a concatenation of records, each introduced by a kind
// byte and packed with LEB128 varints (util/varint.h). A batch carries one
// record shape, the pipeline's api::AggregatedPower row:
//
//   kind 1  dict        id, strlen, bytes      — defines a string id (see below)
//   kind 3  aggregated  Δts, pid, formula-id, group-id, watts(f64)
//
// Kinds 2 and 4 (a per-estimate record and a per-metric record) are
// retired: the decoder rejects them as unknown, like any other kind.
//
// Two further frame kinds carry the observability plane (emitted only when
// an obs cadence is configured, so a stream without one holds only hello,
// batch and bye frames): a metrics-snapshot frame (full
// obs::MetricsRegistry snapshot — values plus histogram buckets; the only
// way metrics cross the wire) and a spans frame (drained
// obs::TraceCollector spans).
// Both start with a payload version byte and the agent's send wall clock,
// and intern names into the same per-connection dictionary as batches.
//
// Two stream-stateful compressions keep hot records small:
//  * Timestamps are delta-encoded (zigzag) against the previous record's
//    timestamp in stream order — at a fixed monitoring period the delta is
//    a repeating small constant, 1–3 bytes instead of 9.
//  * Strings (formula names, group labels, metric and span names) are
//    interned into a per-connection dictionary, mirroring the event bus's
//    topic interning: the first use emits a dict record (id + bytes), every
//    later use is a 1–2 byte id. A reconnect resets both sides' state (the
//    encoder re-emits its dictionary), so frames are self-contained per
//    connection, never per process lifetime.
//
// The row's observability-correlation field (seq) is process-local and
// does not cross the wire; decoded rows carry zero there.
//
// The decoder is an incremental state machine fed arbitrary byte chunks
// (torn frames, short reads). Any violation — bad magic/version, oversize
// length, CRC mismatch, truncated or unknown record — poisons the decoder
// and reports an error; the server drops that connection and keeps serving
// the rest.
//
// A batch frame's rows reach the sink together, in one on_rows() call made
// once the whole frame has decoded, so every layer behind the sink handles
// a frame, not a row. A frame that fails anywhere delivers none of its
// rows, and a frame of dict records only calls nothing.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "powerapi/messages.h"

namespace powerapi::net {

inline constexpr std::uint32_t kWireMagic = 0x50415750u;  // "PWAP" LE.
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kFrameHeaderBytes = 14;
/// Frames larger than this are a protocol violation (guards the collector
/// against hostile or corrupt length fields).
inline constexpr std::size_t kDefaultMaxFrameBytes = std::size_t{1} << 20;

enum class FrameType : std::uint8_t {
  kHello = 1,            ///< First frame on a connection: protocol version + agent id.
  kBatch = 2,            ///< Batched records.
  kBye = 3,              ///< Orderly shutdown (empty payload).
  kMetricsSnapshot = 4,  ///< Full obs::MetricsRegistry snapshot (versioned payload).
  kSpans = 5,            ///< Drained obs::TraceCollector spans (versioned payload).
};

/// Version byte leading every obs-frame payload (metrics snapshot / spans),
/// independent of the frame header version: the obs payloads can evolve
/// without a wire-wide version bump.
inline constexpr std::uint8_t kObsPayloadVersion = 1;

/// One decoded remote trace span. `name` views the decoder's dictionary and
/// is only valid for the duration of the on_spans() callback.
struct RemoteSpan {
  std::string_view name;
  std::uint32_t tid = 0;
  std::int64_t ts_ns = 0;   ///< Agent-local wall_now_ns() clock.
  std::int64_t dur_ns = 0;  ///< < 0 marks an instant event.
  std::uint64_t seq = 0;
};

/// Receiver interface for decoded frames/records. Every callback is pure:
/// a sink says what it does with each frame kind, if only to ignore it.
class WireSink {
 public:
  virtual ~WireSink() = default;
  virtual void on_hello(std::string_view agent_id, std::uint8_t version) = 0;
  /// The rows of one batch frame, in wire order; called only when the
  /// whole frame is valid and holds at least one row. The span views the
  /// decoder's reused buffer and is valid only for the call.
  virtual void on_rows(std::span<const api::AggregatedPower> rows) = 0;
  /// A full remote metrics snapshot; `send_wall_ns` is the agent's local
  /// wall clock at emission (clock-offset estimation pairs it with the
  /// receiver's clock at decode).
  virtual void on_metrics_snapshot(std::int64_t send_wall_ns,
                                   const obs::MetricsSnapshot& snapshot) = 0;
  virtual void on_spans(std::int64_t send_wall_ns,
                        const std::vector<RemoteSpan>& spans) = 0;
  virtual void on_bye() = 0;
};

/// Per-connection encoder: accumulates records into a batch payload and
/// frames it on demand. Owns the connection's string dictionary and
/// timestamp delta base; reset() on reconnect.
class WireEncoder {
 public:
  void add(const api::AggregatedPower& row);

  /// Semantic records buffered (dict entries not counted).
  std::size_t pending_records() const noexcept { return records_; }
  /// Encoded payload bytes buffered (dict entries counted — they ship).
  std::size_t pending_bytes() const noexcept { return batch_.size(); }

  /// Frames the buffered batch and clears it (dictionary and timestamp
  /// base persist — they are connection state, not batch state).
  std::vector<std::uint8_t> take_batch_frame();

  /// Frames a full metrics snapshot (counters/gauges as values, histograms
  /// with their bucket vectors), stamped with the agent's wall clock.
  /// Precondition: no pending batch records — the snapshot interns names
  /// into the shared connection dictionary, so its dict definitions must
  /// not jump ahead of an unframed batch.
  std::vector<std::uint8_t> take_metrics_frame(const obs::MetricsSnapshot& snapshot,
                                               std::int64_t send_wall_ns);

  /// Frames drained trace spans; `trace` resolves interned span names.
  /// Same precondition as take_metrics_frame().
  std::vector<std::uint8_t> take_spans_frame(
      const std::vector<obs::TraceCollector::Span>& spans,
      const obs::TraceCollector& trace, std::int64_t send_wall_ns);

  /// Forgets all connection state; the next batch re-emits dictionary
  /// entries and a full first timestamp. Call when (re)connecting.
  void reset();

  static std::vector<std::uint8_t> make_frame(FrameType type,
                                              const std::vector<std::uint8_t>& payload);
  static std::vector<std::uint8_t> hello_frame(std::string_view agent_id);
  static std::vector<std::uint8_t> bye_frame();

 private:
  std::uint64_t intern(std::string_view text);
  void put_timestamp(util::TimestampNs timestamp);

  std::vector<std::uint8_t> batch_;
  std::size_t records_ = 0;
  std::map<std::string, std::uint64_t, std::less<>> dict_;
  std::int64_t last_ts_ = 0;
  std::int64_t last_span_ts_ = 0;  ///< Span-stream delta base (separate clock).
};

/// Incremental frame decoder + per-connection decode state.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Feeds `size` bytes (any chunking). Complete frames are decoded into
  /// `sink` as they close. Returns false on a protocol violation: error()
  /// says why, and the decoder rejects further input until reset().
  bool consume(const std::uint8_t* data, std::size_t size, WireSink& sink);

  const std::string& error() const noexcept { return error_; }
  bool failed() const noexcept { return failed_; }
  std::uint64_t frames_decoded() const noexcept { return frames_; }
  std::uint64_t records_decoded() const noexcept { return records_; }
  std::uint64_t snapshots_decoded() const noexcept { return snapshots_; }
  std::uint64_t spans_decoded() const noexcept { return spans_; }
  /// Bytes buffered waiting for the rest of a frame.
  std::size_t buffered_bytes() const noexcept { return buffer_.size() - consumed_; }

  /// Back to a fresh connection state (dictionary, timestamps, error).
  void reset();

 private:
  bool fail(std::string why);
  bool decode_frame(FrameType type, const std::uint8_t* payload, std::size_t size,
                    WireSink& sink);
  bool decode_batch(const std::uint8_t* payload, std::size_t size, WireSink& sink);
  bool decode_metrics_snapshot(const std::uint8_t* payload, std::size_t size,
                               WireSink& sink);
  bool decode_spans(const std::uint8_t* payload, std::size_t size, WireSink& sink);

  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;  ///< Prefix of buffer_ already decoded.
  bool failed_ = false;
  std::string error_;
  std::uint64_t frames_ = 0;
  std::uint64_t records_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t spans_ = 0;
  std::vector<std::string> dict_;
  std::int64_t last_ts_ = 0;
  std::int64_t last_span_ts_ = 0;
  /// The rows of the batch frame being decoded. Rows are overwritten in
  /// place, frame after frame, so their strings keep their capacity and a
  /// steady stream decodes without allocating.
  std::vector<api::AggregatedPower> rows_;
};

}  // namespace powerapi::net
