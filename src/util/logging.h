// Thread-safe leveled logging.
//
// The library logs sparingly (model training milestones, backend fallbacks,
// bus dead letters); experiments and examples raise the level for
// narration. Output goes to a configurable sink, stderr by default.
#pragma once

#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace powerapi::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

std::string_view to_string(LogLevel level) noexcept;

/// Process-wide logger configuration. Cheap enough that call sites simply
/// check `enabled(level)` before formatting.
class Logger {
 public:
  using Sink = std::function<void(LogLevel, std::string_view component, std::string_view msg)>;

  static Logger& instance();

  void set_level(LogLevel level) noexcept;
  LogLevel level() const noexcept;
  bool enabled(LogLevel level) const noexcept;

  /// Replaces the output sink; pass nullptr to restore the stderr default.
  /// Safe against concurrent log() calls: a thread mid-log finishes on the
  /// sink it snapshotted (kept alive by refcount), so the sink must be
  /// thread-safe and the caller must expect it to run briefly past the
  /// swap. Sinks are invoked WITHOUT any logger lock held — a sink may
  /// itself log without deadlocking.
  void set_sink(Sink sink);

  void log(LogLevel level, std::string_view component, std::string_view message);

 private:
  Logger();
  struct Impl;
  Impl* impl_;  // Intentionally leaked singleton state: outlives static dtors.
};

/// Stream-style log statement builder:
///   LogMessage(LogLevel::kInfo, "model").stream() << "trained " << n << " rows";
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

inline bool log_enabled(LogLevel level) { return Logger::instance().enabled(level); }

/// Parses "debug" / "info" / "warn" / "error" / "off" (case-insensitive;
/// "warning" also accepted); nullopt on anything else.
std::optional<LogLevel> parse_log_level(std::string_view text) noexcept;

/// Applies the POWERAPI_LOG_LEVEL environment variable (if set and valid)
/// to the global logger. Shared by examples and benches so every binary
/// honors the same knob.
void configure_logging();

/// configure_logging() plus command-line handling: consumes a leading
/// "--log-level=X" (or "--log-level X") argument from argv, which wins over
/// the environment. Unrecognized levels warn and are otherwise ignored.
void configure_logging(int& argc, char** argv);

}  // namespace powerapi::util

/// Convenience macros gated on the active level; they expand to a dead branch
/// when disabled so argument formatting is never paid for suppressed levels.
#define POWERAPI_LOG(level, component)                       \
  if (!::powerapi::util::log_enabled(level)) {               \
  } else                                                     \
    ::powerapi::util::LogMessage(level, component).stream()

#define POWERAPI_LOG_DEBUG(component) POWERAPI_LOG(::powerapi::util::LogLevel::kDebug, component)
#define POWERAPI_LOG_INFO(component) POWERAPI_LOG(::powerapi::util::LogLevel::kInfo, component)
#define POWERAPI_LOG_WARN(component) POWERAPI_LOG(::powerapi::util::LogLevel::kWarn, component)
#define POWERAPI_LOG_ERROR(component) POWERAPI_LOG(::powerapi::util::LogLevel::kError, component)
