// The actor runtime. An actor processes its messages one at a time, in
// arrival order, on whichever thread drains it; there is no thread pool.
//  * drain() processes messages deterministically on the calling thread.
//    All simulation experiments and most tests run here.
//  * Cells may be spawned into drain groups, and drain_group() drains one
//    group; different groups may drain on different threads at once
//    (FleetMonitor's host slices). Each group drains on one thread at a
//    time, which is what makes every mailbox single-consumer.
//  * tell() is safe from any thread, including while a group drains.
//
// Hot-path design (see DESIGN.md §4 "Dispatcher architecture"):
//  * Actor lookup is a wait-free chunked slot table indexed by ActorId —
//    tell() never scans the actor list or blocks on a concurrent spawn.
//  * Mailboxes are lock-free Vyukov MPSC queues (see mailbox.h).
//  * A drain round skips an idle actor on its mailbox's size counter and
//    an idle group on the group's drain hint, one load each.
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

  /// A drain group: a subset of the cells that drain_group() drains on its
  /// own. Every cell belongs to exactly one group; cells spawned without one
  /// join kDefaultGroup.
  using GroupId = std::uint32_t;
  static constexpr GroupId kDefaultGroup = 0;

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

  /// Spawns an actor into `group`; pre_start() runs before the first
  /// message.
  ActorRef spawn(std::string name, std::unique_ptr<Actor> actor,
                 GroupId group = kDefaultGroup);

  template <typename A, typename... Args>
  ActorRef spawn_as(std::string name, Args&&... args) {
    return spawn(std::move(name), std::make_unique<A>(std::forward<Args>(args)...));
  }

  template <typename A, typename... Args>
  ActorRef spawn_in(GroupId group, std::string name, Args&&... args) {
    return spawn(std::move(name), std::make_unique<A>(std::forward<Args>(args)...), group);
  }

  /// Adds an empty drain group and returns its id. Groups are created and
  /// filled while nothing drains concurrently: membership is frozen while
  /// drain_group() runs on another thread.
  GroupId add_group();

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

  /// drain() over one group's cells, in their spawn order. Distinct groups
  /// may drain on distinct threads at once — tell() is safe from any
  /// thread — but one group drains on one thread at a time.
  /// A group whose hint is clear (nothing told into it since its last
  /// drain) returns 0 after one load, without visiting a cell: FleetMonitor's
  /// settle() skips the host groups its slices already drained that way.
  std::size_t drain_group(GroupId group, std::size_t max_messages = SIZE_MAX);

  /// Kept for fleet_bench.cpp; remove in the next benchmark PR. Calls
  /// drain().
  void await_idle() { drain(); }

  /// Stops all actors. Idempotent; runs in ~dtor.
  void shutdown();

  /// Kept for fleet_bench.cpp; remove in the next benchmark PR.
  Mode mode() const noexcept { return Mode::kManual; }
  /// Messages processed so far, drain groups included. Exact once the
  /// system is quiescent.
  std::uint64_t messages_processed() const;
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
  struct Group;
  struct Cell {
    ActorId id = kNoActor;
    std::string name;
    std::unique_ptr<Actor> actor;
    Mailbox mailbox;
    std::atomic<bool> stopped{false};
    Group* group = nullptr;  ///< Set at spawn, never changes.
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

  /// A drain group: its cells in spawn order, a drain hint, and what it
  /// processed. `processed` is written only by the thread draining the group
  /// (a plain load and store, no read-modify-write), on a line of its own.
  struct Group {
    std::vector<Cell*> cells;
    /// Set by every tell into a member, cleared by drain_group() before each
    /// round it visits.
    std::atomic<bool> has_mail{false};
    alignas(64) std::atomic<std::uint64_t> processed{0};
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
  /// Drain groups, indexed by GroupId; grown under cells_mutex_.
  std::vector<std::unique_ptr<Group>> groups_;
  std::atomic<ActorId> next_id_{1};
  // Counted by drain(); drain_group() counts into its Group instead.
  alignas(64) std::atomic<std::uint64_t> messages_processed_{0};
  alignas(64) std::atomic<std::uint64_t> dead_letters_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> restarts_{0};
};

}  // namespace powerapi::actors
