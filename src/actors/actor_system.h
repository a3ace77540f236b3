// The actor runtime.
//
// Two dispatch modes cover the library's needs:
//  * kManual    — no threads; drain() processes messages deterministically.
//                 All simulation experiments and most tests run here.
//                 Cells may be spawned into drain groups, and drain_group()
//                 drains one group; different groups may drain on different
//                 threads at once (FleetMonitor's host slices).
//  * kThreaded  — a work-stealing worker pool dispatches actors concurrently
//                 with the classic schedule-on-first-message protocol; used
//                 for live monitoring and exercised by the concurrency tests
//                 and the Figure-2 throughput benchmark.
//
// Hot-path design (see DESIGN.md §4 "Dispatcher architecture"):
//  * Actor lookup is a wait-free chunked slot table indexed by ActorId —
//    tell() never scans the actor list or blocks on a concurrent spawn.
//  * Mailboxes are lock-free Vyukov MPSC queues (see mailbox.h).
//  * Each worker owns a run queue; idle workers steal from random victims
//    and park on a condition variable only when the whole system is empty.
//  * Idle tracking folds per-message counter traffic into one atomic
//    add/sub per scheduling slot instead of two per message.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "actors/actor.h"
#include "actors/mailbox.h"
#include "actors/message.h"

namespace powerapi::obs {
class Counter;
class Histogram;
class Observability;
}  // namespace powerapi::obs

namespace powerapi::actors {

class ActorSystem {
 public:
  enum class Mode { kManual, kThreaded };

  /// A drain group: a subset of the cells that drain_group() drains on its
  /// own. Every cell belongs to exactly one group; cells spawned without one
  /// join kDefaultGroup.
  using GroupId = std::uint32_t;
  static constexpr GroupId kDefaultGroup = 0;

  /// `obs` (optional, non-owning, must outlive the system) turns on runtime
  /// self-instrumentation: mailbox enqueue-to-drain latency, dispatcher
  /// steal/park counters, and a snapshot collector exposing actor counts,
  /// mailbox depths and run-queue depth as "actors.*" metrics.
  explicit ActorSystem(Mode mode, std::size_t workers = 2,
                       obs::Observability* obs = nullptr);
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

  /// kManual only: processes messages until quiescent or `max_messages`
  /// processed. Returns the number processed. Deterministic: actors are
  /// visited in spawn order, one message per visit (fair round-robin).
  std::size_t drain(std::size_t max_messages = SIZE_MAX);

  /// kManual only: drain() over one group's cells, in their spawn order.
  /// Distinct groups may drain on distinct threads at once — tell() is safe
  /// from any thread — but one group drains on one thread at a time.
  std::size_t drain_group(GroupId group, std::size_t max_messages = SIZE_MAX);

  /// kThreaded only: blocks until every mailbox is empty and no message is
  /// being processed.
  void await_idle();

  /// Stops workers (threaded) and all actors. Idempotent; runs in ~dtor.
  void shutdown();

  Mode mode() const noexcept { return mode_; }
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
    std::atomic<bool> scheduled{false};
    std::atomic<bool> stopped{false};
    /// Manual-mode drain hint: set after every push, cleared by drain() when
    /// the mailbox is observed empty (with a re-check for a racing push).
    /// Lets drain rounds skip idle actors with one load instead of a consume
    /// attempt; in a steady fleet tick ~95% of per-round visits are idle.
    std::atomic<bool> has_mail{false};
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

  // --- Work-stealing dispatcher state. ---
  struct alignas(64) WorkerQueue {
    std::mutex mutex;
    std::deque<Cell*> cells;
  };

  Cell* lookup(ActorId id) const noexcept;
  Cell* find_cell(ActorId id) const noexcept;  ///< lookup + not-stopped.
  void process_one(Cell& cell, Envelope& envelope);
  /// One manual-mode visit: processes at most one message (or flushes a
  /// stopped cell's backlog); returns whether a message was processed.
  bool drain_visit(Cell& cell);
  void require_manual(const char* what) const;
  std::size_t drain_dead_letters(Cell& cell);
  void schedule(Cell& cell);
  void enqueue_cell(Cell& cell);
  Cell* try_pop_local(std::size_t index);
  Cell* try_steal(std::size_t thief_index, std::uint64_t& rng_state);
  Cell* acquire_work(std::size_t index, std::uint64_t& rng_state);
  void run_cell(Cell& cell);
  void worker_loop(std::size_t index);
  void handle_failure(Cell& cell, const std::exception& error);
  void fold_processed(std::uint64_t handled);

  Mode mode_;
  // Observability handles, interned once at construction; null when the
  // system is not observed, so hot paths pay one pointer test.
  obs::Observability* obs_ = nullptr;
  obs::Counter* steals_metric_ = nullptr;
  obs::Counter* parks_metric_ = nullptr;
  obs::Histogram* mailbox_latency_ = nullptr;
  std::uint64_t obs_collector_ = 0;
  mutable std::mutex cells_mutex_;  ///< Guards spawns/chunk growth, not lookups.
  std::vector<std::unique_ptr<Cell>> cells_;
  std::atomic<std::uint64_t> cells_version_{1};  ///< Bumped per spawn; lets drain() cache its snapshot.
  std::array<std::atomic<SlotChunk*>, kMaxChunks> chunks_{};
  /// Cells per drain group, in spawn order; grown under cells_mutex_.
  std::vector<std::unique_ptr<std::vector<Cell*>>> groups_;
  std::atomic<ActorId> next_id_{1};
  // Hot counters on separate cache lines: producers hammer pending_ while
  // workers hammer messages_processed_.
  alignas(64) std::atomic<std::uint64_t> messages_processed_{0};
  alignas(64) std::atomic<std::uint64_t> dead_letters_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> restarts_{0};

  // Threaded dispatch state.
  std::vector<std::unique_ptr<WorkerQueue>> worker_queues_;
  std::vector<std::thread> workers_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> external_rr_{0};  ///< Round-robin for non-worker producers.

  // Parked-worker wakeup protocol: producers bump the epoch after enqueueing
  // and notify only when someone is actually parked.
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::atomic<int> parked_{0};
  std::atomic<std::uint64_t> unpark_epoch_{0};

  // Idle tracking: producers add one relaxed increment per tell; workers
  // fold one subtraction per scheduling slot (not per message).
  alignas(64) std::atomic<std::int64_t> pending_{0};  ///< Enqueued but not yet processed.
  std::condition_variable idle_cv_;
  std::mutex idle_mutex_;
};

}  // namespace powerapi::actors
