// The actor runtime. An actor processes its messages one at a time, in
// arrival order, on whichever thread drains it; there is no thread pool.
//  * drain() processes messages deterministically on the calling thread.
//    One thread drains at a time, which is what makes every mailbox
//    single-consumer.
//  * tell() is safe from any thread, including while another drains.
//
// What is left to carry (DESIGN.md §4 "Dispatcher architecture"): the
// fleet's bus-subscribed sinks and a collector's subscribers, told from the
// draining thread itself, and the end-to-end benchmark's governor shim,
// the only actors a FleetMonitor's slice threads still tell. So the
// runtime is plain: an actor table indexed by id under a reader-writer
// mutex, locked mailboxes (mailbox.h), and a drain round that skips an
// idle actor on its mailbox's size counter, one load.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
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

  /// Spawns an actor. Ids are dense, from 1, in spawn order.
  ActorRef spawn(std::string name, std::unique_ptr<Actor> actor);

  template <typename A, typename... Args>
  ActorRef spawn_as(std::string name, Args&&... args) {
    return spawn(std::move(name), std::make_unique<A>(std::forward<Args>(args)...));
  }

  /// Enqueues a message (any thread). Messages to stopped/unknown actors
  /// count as dead letters.
  void tell(const ActorRef& target, Payload payload, ActorRef sender = {});

  /// Stops an actor: post_stop() runs, its remaining mailbox drains to
  /// dead letters.
  void stop(const ActorRef& ref);

  /// Processes messages until quiescent or `max_messages` processed.
  /// Returns the number processed. Deterministic: actors are visited in
  /// spawn order, one message per visit (fair round-robin). A receive()
  /// that throws propagates out; its message counts as processed, and the
  /// next drain() carries on behind it.
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
  std::size_t actor_count() const;
  obs::Observability* observability() const noexcept { return obs_; }

 private:
  struct Cell {
    std::unique_ptr<Actor> actor;
    Mailbox mailbox;
    std::atomic<bool> stopped{false};
  };

  /// The live cell of `ref`, or null when unknown or stopped.
  Cell* find_cell(const ActorRef& ref) const;
  /// One drain visit: processes at most one message (or flushes a
  /// stopped cell's backlog); returns whether a message was processed.
  bool drain_visit(Cell& cell);

  // Observability handles, interned once at construction; null when the
  // system is not observed, so hot paths pay one pointer test.
  obs::Observability* obs_ = nullptr;
  obs::Histogram* mailbox_latency_ = nullptr;
  std::uint64_t obs_collector_ = 0;
  /// Shared by tell()s (they only read cells_), exclusive for spawn(), so
  /// slice threads telling at once never make each other sleep.
  mutable std::shared_mutex cells_mutex_;
  std::vector<std::unique_ptr<Cell>> cells_;  ///< Actor id - 1; guarded by cells_mutex_.
  std::atomic<std::uint64_t> cells_version_{1};  ///< Bumped per spawn.
  // The draining thread's copy of cells_, rebuilt when cells_version_ moves.
  std::vector<Cell*> snapshot_;
  std::uint64_t snapshot_version_ = 0;
  alignas(64) std::atomic<std::uint64_t> messages_processed_{0};
  alignas(64) std::atomic<std::uint64_t> dead_letters_{0};
};

}  // namespace powerapi::actors
