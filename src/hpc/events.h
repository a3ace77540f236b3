// Generic hardware performance events — the vocabulary of the whole library.
//
// These are the portable "generic" events of the perf_event_open man page
// (the paper's reference [8]): available across Intel/AMD, which is exactly
// why the paper restricts itself to them. The simulator's counter lanes
// follow this enum's order, and the perf_event_open reader speaks it.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "simcpu/counters.h"

namespace powerapi::hpc {

enum class EventId {
  kCycles,
  kInstructions,
  kCacheReferences,
  kCacheMisses,
  kBranchInstructions,
  kBranchMisses,
  kBusCycles,
  kStalledCyclesFrontend,
  kStalledCyclesBackend,
  kRefCycles,
};

inline constexpr std::size_t kEventCount = 10;

/// All generic events, in enum order.
std::span<const EventId> all_events() noexcept;

/// The three events the paper's study found most correlated with power on
/// multi-core systems: instructions, cache-references, cache-misses.
std::span<const EventId> paper_events() noexcept;

/// perf-style event name ("cache-references", ...).
std::string_view to_string(EventId id) noexcept;

/// Reverse lookup from a perf-style name.
std::optional<EventId> event_from_string(std::string_view name) noexcept;

/// Extracts one event's value from a counter block.
std::uint64_t get_event(const simcpu::CounterBlock& block, EventId id) noexcept;

/// A fixed-size per-event value array, cheaper than a map on hot paths.
class EventValues {
 public:
  std::uint64_t& operator[](EventId id) noexcept {
    return values_[static_cast<std::size_t>(id)];
  }
  std::uint64_t operator[](EventId id) const noexcept {
    return values_[static_cast<std::size_t>(id)];
  }

  /// Populates every event from a counter block.
  static EventValues from_block(const simcpu::CounterBlock& block) noexcept;

  EventValues delta_since(const EventValues& previous) const noexcept;

  bool operator==(const EventValues&) const noexcept = default;

 private:
  std::array<std::uint64_t, kEventCount> values_{};
};

}  // namespace powerapi::hpc
