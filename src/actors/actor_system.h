// The actor runtime. An actor processes its messages one at a time, in
// arrival order, on whichever thread drains it; there is no thread pool.
//  * drain() processes messages deterministically on the calling thread.
//    All simulation experiments and most tests run here. One thread drains
//    at a time, which is what makes every mailbox single-consumer.
//  * tell() is safe from any thread, including while another drains: a
//    FleetMonitor's host slices tell fleet-level actors (bus-subscribed
//    sinks, metrics reporters) from their threads, and the caller drains
//    them between steps.
//
// A host's own pipeline stages are not actors (see powerapi/pipeline.h):
// only hops that cross a thread or a process boundary, or that fan out to
// fleet-level consumers, go through here.
//
// Hot-path design (see DESIGN.md §4 "Dispatcher architecture"):
//  * Actor lookup is a wait-free chunked slot table indexed by ActorId —
//    tell() never scans the actor list or blocks on a concurrent spawn.
//  * Mailboxes are lock-free Vyukov MPSC queues (see mailbox.h).
//  * A drain round skips an idle actor on its mailbox's size counter, one
//    load.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "actors/actor.h"
#include "actors/mailbox.h"
#include "actors/message.h"

namespace powerapi::obs {
class Histogram;
class Observability;
}  // namespace powerapi::obs

namespace powerapi::actors {

class ActorSystem {
 public:
  /// Kept for fleet_bench.cpp; remove in the next benchmark PR. Only
  /// kManual constructs a system; FleetMonitor::Options reuses the type to
  /// pick serial or parallel host slices.
  enum class Mode { kManual, kThreaded };

  /// `obs` (optional, non-owning, must outlive the system) turns on runtime
  /// self-instrumentation: mailbox enqueue-to-drain latency and a snapshot
  /// collector exposing actor counts and mailbox depths as "actors.*"
  /// metrics.
  explicit ActorSystem(obs::Observability* obs = nullptr);
  /// Kept for fleet_bench.cpp; remove in the next benchmark PR. Throws
  /// std::invalid_argument on kThreaded.
  explicit ActorSystem(Mode mode, obs::Observability* obs = nullptr);
  ~ActorSystem();

  ActorSystem(const ActorSystem&) = delete;
  ActorSystem& operator=(const ActorSystem&) = delete;

  /// Spawns an actor; pre_start() runs before the first message.
  ActorRef spawn(std::string name, std::unique_ptr<Actor> actor);

  template <typename A, typename... Args>
  ActorRef spawn_as(std::string name, Args&&... args) {
    return spawn(std::move(name), std::make_unique<A>(std::forward<Args>(args)...));
  }

  /// Enqueues a message (any thread). Messages to stopped/unknown actors
  /// count as dead letters.
  void tell(const ActorRef& target, Payload payload, ActorRef sender = {});

  /// Stops an actor after its current message: post_stop() runs, its
  /// remaining mailbox drains to dead letters.
  void stop(const ActorRef& ref);

  /// Processes messages until quiescent or `max_messages` processed.
  /// Returns the number processed. Deterministic: actors are visited in
  /// spawn order, one message per visit (fair round-robin).
  std::size_t drain(std::size_t max_messages = SIZE_MAX);

  /// Kept for fleet_bench.cpp; remove in the next benchmark PR. Calls
  /// drain().
  void await_idle() { drain(); }

  /// Stops all actors. Idempotent; runs in ~dtor.
  void shutdown();

  /// Kept for fleet_bench.cpp; remove in the next benchmark PR.
  Mode mode() const noexcept { return Mode::kManual; }
  /// Messages processed so far. Exact once the system is quiescent.
  std::uint64_t messages_processed() const noexcept {
    return messages_processed_.load(std::memory_order_relaxed);
  }
  std::uint64_t dead_letters() const noexcept {
    return dead_letters_.load(std::memory_order_relaxed);
  }
  std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }
  std::uint64_t restarts() const noexcept {
    return restarts_.load(std::memory_order_relaxed);
  }
  std::size_t actor_count() const;
  obs::Observability* observability() const noexcept { return obs_; }

 private:
  struct Cell {
    ActorId id = kNoActor;
    std::string name;
    std::unique_ptr<Actor> actor;
    Mailbox mailbox;
    std::atomic<bool> stopped{false};
  };

  // --- O(1) registry: a lazily grown chunked slot table indexed by id. ---
  // Lookup is two acquire loads; chunks are allocated under cells_mutex_ at
  // spawn time and never freed before the system is destroyed, so readers
  // need no locks and no hazard tracking.
  static constexpr std::size_t kChunkBits = 10;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;  // 1024
  static constexpr std::size_t kChunkMask = kChunkSize - 1;
  static constexpr std::size_t kMaxChunks = 4096;  // ~4M actors per system.

  struct SlotChunk {
    std::array<std::atomic<Cell*>, kChunkSize> slots{};
  };

  Cell* lookup(ActorId id) const noexcept;
  Cell* find_cell(ActorId id) const noexcept;  ///< lookup + not-stopped.
  void process_one(Cell& cell, Envelope& envelope);
  /// One drain visit: processes at most one message (or flushes a
  /// stopped cell's backlog); returns whether a message was processed.
  bool drain_visit(Cell& cell);
  void drain_dead_letters(Cell& cell);
  void handle_failure(Cell& cell, const std::exception& error);

  // Observability handles, interned once at construction; null when the
  // system is not observed, so hot paths pay one pointer test.
  obs::Observability* obs_ = nullptr;
  obs::Histogram* mailbox_latency_ = nullptr;
  std::uint64_t obs_collector_ = 0;
  mutable std::mutex cells_mutex_;  ///< Guards spawns/chunk growth, not lookups.
  std::vector<std::unique_ptr<Cell>> cells_;
  std::atomic<std::uint64_t> cells_version_{1};  ///< Bumped per spawn; lets drain() cache its snapshot.
  std::array<std::atomic<SlotChunk*>, kMaxChunks> chunks_{};
  std::atomic<ActorId> next_id_{1};
  alignas(64) std::atomic<std::uint64_t> messages_processed_{0};
  alignas(64) std::atomic<std::uint64_t> dead_letters_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> restarts_{0};
};

}  // namespace powerapi::actors
