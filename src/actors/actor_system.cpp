#include "actors/actor_system.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/observability.h"
#include "util/logging.h"

namespace powerapi::actors {

namespace {

// Identifies the worker thread's home system/queue so schedule() can push
// to the local run queue without any shared round-robin traffic.
thread_local ActorSystem* tls_worker_system = nullptr;
thread_local std::size_t tls_worker_index = 0;

std::uint64_t xorshift64(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

}  // namespace

void ActorRef::tell(Payload payload) const { tell(std::move(payload), ActorRef()); }

void ActorRef::tell(Payload payload, ActorRef sender) const {
  if (!valid()) return;
  system_->tell(*this, std::move(payload), sender);
}

ActorSystem::ActorSystem(Mode mode, std::size_t workers, obs::Observability* obs)
    : mode_(mode), obs_(obs) {
  groups_.push_back(std::make_unique<std::vector<Cell*>>());  // kDefaultGroup.
  if (obs_ != nullptr) {
    steals_metric_ = &obs_->metrics.counter("actors.dispatch.steals");
    parks_metric_ = &obs_->metrics.counter("actors.dispatch.parks");
    mailbox_latency_ = &obs_->metrics.histogram("actors.mailbox.latency_ns");
    // Depth-style gauges are computed only when someone snapshots — per-event
    // bookkeeping for them would cost more than the metrics are worth.
    obs_collector_ = obs_->metrics.add_collector([this](obs::SnapshotBuilder& builder) {
      std::size_t actors = 0;
      std::size_t depth_total = 0;
      std::size_t depth_max = 0;
      {
        std::lock_guard lock(cells_mutex_);
        for (const auto& cell : cells_) {
          if (cell->stopped.load(std::memory_order_acquire)) continue;
          ++actors;
          const std::size_t depth = cell->mailbox.size();
          depth_total += depth;
          depth_max = std::max(depth_max, depth);
        }
      }
      std::size_t queued = 0;
      for (const auto& queue : worker_queues_) {
        std::lock_guard lock(queue->mutex);
        queued += queue->cells.size();
      }
      builder.gauge("actors.count", static_cast<double>(actors));
      builder.gauge("actors.mailbox.depth", static_cast<double>(depth_total));
      builder.gauge("actors.mailbox.max_depth", static_cast<double>(depth_max));
      builder.gauge("actors.dispatch.queue_depth", static_cast<double>(queued));
      builder.gauge("actors.messages_processed",
                    static_cast<double>(messages_processed()));
      builder.gauge("actors.dead_letters", static_cast<double>(dead_letters()));
      builder.gauge("actors.failures", static_cast<double>(failures()));
      builder.gauge("actors.restarts", static_cast<double>(restarts()));
    });
  }
  if (mode_ == Mode::kThreaded) {
    if (workers == 0) throw std::invalid_argument("ActorSystem: zero workers");
    running_.store(true, std::memory_order_release);
    worker_queues_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      worker_queues_.push_back(std::make_unique<WorkerQueue>());
    }
    workers_.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      workers_.emplace_back([this, i] { worker_loop(i); });
    }
  }
}

ActorSystem::~ActorSystem() {
  shutdown();
  for (auto& slot : chunks_) {
    delete slot.load(std::memory_order_relaxed);
  }
}

ActorRef ActorSystem::spawn(std::string name, std::unique_ptr<Actor> actor,
                           GroupId group) {
  if (!actor) throw std::invalid_argument("ActorSystem::spawn: null actor");
  {
    std::lock_guard lock(cells_mutex_);
    if (group >= groups_.size()) {
      throw std::out_of_range("ActorSystem::spawn: no such group");
    }
  }
  auto cell = std::make_unique<Cell>();
  cell->id = next_id_.fetch_add(1, std::memory_order_relaxed);
  if ((cell->id >> kChunkBits) >= kMaxChunks) {
    throw std::length_error("ActorSystem::spawn: actor id space exhausted");
  }
  cell->name = std::move(name);
  cell->actor = std::move(actor);
  const ActorRef ref(this, cell->id);
  cell->actor->self_ = ref;
  cell->actor->name_ = cell->name;
  cell->actor->pre_start();
  {
    std::lock_guard lock(cells_mutex_);
    const std::size_t chunk_index = cell->id >> kChunkBits;
    SlotChunk* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new SlotChunk();
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    chunk->slots[cell->id & kChunkMask].store(cell.get(), std::memory_order_release);
    groups_[group]->push_back(cell.get());
    cells_.push_back(std::move(cell));
    cells_version_.fetch_add(1, std::memory_order_release);
  }
  return ref;
}

ActorSystem::GroupId ActorSystem::add_group() {
  std::lock_guard lock(cells_mutex_);
  groups_.push_back(std::make_unique<std::vector<Cell*>>());
  return static_cast<GroupId>(groups_.size() - 1);
}

ActorSystem::Cell* ActorSystem::lookup(ActorId id) const noexcept {
  const std::size_t chunk_index = id >> kChunkBits;
  if (chunk_index >= kMaxChunks) return nullptr;
  const SlotChunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) return nullptr;
  return chunk->slots[id & kChunkMask].load(std::memory_order_acquire);
}

ActorSystem::Cell* ActorSystem::find_cell(ActorId id) const noexcept {
  Cell* cell = lookup(id);
  if (cell == nullptr || cell->stopped.load(std::memory_order_acquire)) return nullptr;
  return cell;
}

std::size_t ActorSystem::actor_count() const {
  std::lock_guard lock(cells_mutex_);
  std::size_t n = 0;
  for (const auto& cell : cells_) {
    if (!cell->stopped.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

void ActorSystem::tell(const ActorRef& target, Payload payload, ActorRef sender) {
  Cell* cell = target.system() == this ? find_cell(target.id()) : nullptr;
  if (cell == nullptr) {
    dead_letters_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Envelope envelope{std::move(payload), sender};
  if (obs_ != nullptr && obs_->enabled()) envelope.enqueue_ns = obs::wall_now_ns();
  if (mode_ == Mode::kThreaded) {
    // pending_ feeds await_idle(), which only exists in threaded mode;
    // manual mode skips the counter traffic entirely.
    pending_.fetch_add(1, std::memory_order_relaxed);
    cell->mailbox.push(std::move(envelope));
    schedule(*cell);
  } else {
    cell->mailbox.push(std::move(envelope));
    // Publish the drain hint after the push so a drain round that observes
    // the hint also observes the message (push's size increment is seq_cst).
    cell->has_mail.store(true, std::memory_order_release);
  }
}

void ActorSystem::enqueue_cell(Cell& cell) {
  std::size_t index;
  if (tls_worker_system == this) {
    index = tls_worker_index;  // Local queue: no shared counter traffic.
  } else {
    index = external_rr_.fetch_add(1, std::memory_order_relaxed) % worker_queues_.size();
  }
  {
    std::lock_guard lock(worker_queues_[index]->mutex);
    worker_queues_[index]->cells.push_back(&cell);
  }
  // Wake a parked worker, if any. The epoch bump happens-before the parked_
  // check so a worker that re-scans after recording the epoch cannot miss
  // this enqueue; notify_one is only reached when someone actually parked,
  // keeping the loaded hot path free of condvar traffic.
  unpark_epoch_.fetch_add(1, std::memory_order_release);
  if (parked_.load(std::memory_order_seq_cst) > 0) {
    { std::lock_guard lock(park_mutex_); }
    park_cv_.notify_one();
  }
}

void ActorSystem::schedule(Cell& cell) {
  // Cheap pre-check before the CAS: on the loaded path the cell is almost
  // always already scheduled, and a seq_cst load (a plain load on x86) is
  // far cheaper than a failing locked CAS. Safety: our mailbox push's
  // seq_cst size increment precedes this load in program order, and the
  // consumer's seq_cst "release token, then re-check size" sequence means
  // that if we read a stale `true` the consumer's subsequent size check is
  // after our increment in the seq_cst total order — it sees the message
  // and re-schedules. No lost wakeup.
  if (cell.scheduled.load(std::memory_order_seq_cst)) return;
  bool expected = false;
  if (!cell.scheduled.compare_exchange_strong(expected, true, std::memory_order_seq_cst)) {
    return;  // Another producer won the race.
  }
  enqueue_cell(cell);
}

void ActorSystem::handle_failure(Cell& cell, const std::exception& error) {
  failures_.fetch_add(1, std::memory_order_relaxed);
  const SupervisionDirective directive = cell.actor->on_failure(error);
  switch (directive) {
    case SupervisionDirective::kResume:
      POWERAPI_LOG_WARN("actors") << cell.name << " resumed after failure: " << error.what();
      break;
    case SupervisionDirective::kRestart:
      POWERAPI_LOG_WARN("actors") << cell.name << " restarting after failure: " << error.what();
      restarts_.fetch_add(1, std::memory_order_relaxed);
      cell.actor->post_stop();
      cell.actor->pre_start();
      break;
    case SupervisionDirective::kStop:
      POWERAPI_LOG_WARN("actors") << cell.name << " stopped after failure: " << error.what();
      cell.stopped.store(true, std::memory_order_release);
      cell.actor->post_stop();
      break;
  }
}

void ActorSystem::process_one(Cell& cell, Envelope& envelope) {
  try {
    cell.actor->receive(envelope);
  } catch (const std::exception& e) {
    handle_failure(cell, e);
  }
}

std::size_t ActorSystem::drain_dead_letters(Cell& cell) {
  // Single place that converts a stopped actor's backlog into dead letters,
  // so the pending/dead-letter books are kept exactly once per message.
  const std::size_t n = cell.mailbox.consume(
      SIZE_MAX, [](Envelope&&) { return true; /* dropped */ });
  if (n != 0) dead_letters_.fetch_add(n, std::memory_order_relaxed);
  return n;
}

void ActorSystem::fold_processed(std::uint64_t handled) {
  if (handled == 0) return;
  const auto signed_handled = static_cast<std::int64_t>(handled);
  if (pending_.fetch_sub(signed_handled, std::memory_order_acq_rel) == signed_handled) {
    std::lock_guard lock(idle_mutex_);
    idle_cv_.notify_all();
  }
}

void ActorSystem::require_manual(const char* what) const {
  if (mode_ != Mode::kManual) {
    throw std::logic_error(std::string("ActorSystem::") + what + ": only valid in manual mode");
  }
}

bool ActorSystem::drain_visit(Cell& cell) {
  // Idle skip: most visits in a steady tick hit an empty mailbox, and the
  // hint turns each of those into a single relaxed-ish load. The visit order
  // over non-idle cells is unchanged, so kManual message ordering (and
  // therefore golden output) is identical.
  if (!cell.has_mail.load(std::memory_order_acquire)) return false;
  bool processed = false;
  if (cell.stopped.load(std::memory_order_acquire)) {
    drain_dead_letters(cell);
  } else {
    // One message per visit, processed in place (no move out of the node).
    processed = cell.mailbox.consume(1, [&](Envelope&& envelope) {
      if (mailbox_latency_ != nullptr && envelope.enqueue_ns != 0) {
        mailbox_latency_->record(obs::wall_now_ns() - envelope.enqueue_ns);
      }
      process_one(cell, envelope);
      return true;
    }) != 0;
  }
  if (cell.mailbox.empty()) {
    // Clear-then-recheck: if a concurrent tell lands between the empty()
    // observation and the clear, the recheck re-arms the hint, so no message
    // is stranded behind a cleared flag.
    cell.has_mail.store(false, std::memory_order_relaxed);
    if (!cell.mailbox.empty()) cell.has_mail.store(true, std::memory_order_relaxed);
  }
  return processed;
}

std::size_t ActorSystem::drain(std::size_t max_messages) {
  require_manual("drain");
  std::size_t processed = 0;
  bool progressed = true;
  // Snapshot cells so spawn-during-drain is legal; the snapshot is cached
  // across rounds and rebuilt only when a spawn bumps cells_version_, so
  // the per-round cost is one relaxed load instead of a lock + allocation.
  std::vector<Cell*> snapshot;
  std::uint64_t snapshot_version = 0;  // cells_version_ starts at 1: first round always builds.
  while (progressed && processed < max_messages) {
    progressed = false;
    if (cells_version_.load(std::memory_order_acquire) != snapshot_version) {
      std::lock_guard lock(cells_mutex_);
      snapshot.clear();
      snapshot.reserve(cells_.size());
      for (const auto& cell : cells_) snapshot.push_back(cell.get());
      snapshot_version = cells_version_.load(std::memory_order_relaxed);
    }
    for (Cell* cell : snapshot) {
      if (processed >= max_messages) break;
      if (drain_visit(*cell)) {
        ++processed;
        progressed = true;
      }
    }
  }
  if (processed != 0) messages_processed_.fetch_add(processed, std::memory_order_relaxed);
  return processed;
}

std::size_t ActorSystem::drain_group(GroupId group, std::size_t max_messages) {
  require_manual("drain_group");
  // No lock: membership is frozen while groups drain concurrently, and a
  // spawn into this group from one of its own actors (same thread) is seen
  // by the size re-read below.
  const std::vector<Cell*>& cells = *groups_.at(group);
  std::size_t processed = 0;
  bool progressed = true;
  while (progressed && processed < max_messages) {
    progressed = false;
    for (std::size_t i = 0; i < cells.size() && processed < max_messages; ++i) {
      if (drain_visit(*cells[i])) {
        ++processed;
        progressed = true;
      }
    }
  }
  if (processed != 0) messages_processed_.fetch_add(processed, std::memory_order_relaxed);
  return processed;
}

ActorSystem::Cell* ActorSystem::try_pop_local(std::size_t index) {
  WorkerQueue& q = *worker_queues_[index];
  std::lock_guard lock(q.mutex);
  if (q.cells.empty()) return nullptr;
  Cell* cell = q.cells.front();  // FIFO locally: fair across actors.
  q.cells.pop_front();
  return cell;
}

ActorSystem::Cell* ActorSystem::try_steal(std::size_t thief_index, std::uint64_t& rng_state) {
  const std::size_t n = worker_queues_.size();
  if (n <= 1) return nullptr;
  const std::size_t offset = static_cast<std::size_t>(xorshift64(rng_state));
  for (std::size_t attempt = 0; attempt < n - 1; ++attempt) {
    const std::size_t victim = (thief_index + 1 + (offset + attempt) % (n - 1)) % n;
    WorkerQueue& q = *worker_queues_[victim];
    std::lock_guard lock(q.mutex);
    if (q.cells.empty()) continue;
    Cell* cell = q.cells.back();  // Steal the newest: leaves the victim's FIFO head alone.
    q.cells.pop_back();
    if (steals_metric_ != nullptr && obs_->enabled()) steals_metric_->add();
    return cell;
  }
  return nullptr;
}

ActorSystem::Cell* ActorSystem::acquire_work(std::size_t index, std::uint64_t& rng_state) {
  for (;;) {
    if (Cell* cell = try_pop_local(index)) return cell;
    if (Cell* cell = try_steal(index, rng_state)) return cell;

    if (!running_.load(std::memory_order_acquire)) {
      // Shutdown: one final sweep so queued work never strands; exit only
      // when every queue is observed empty.
      if (Cell* cell = try_pop_local(index)) return cell;
      if (Cell* cell = try_steal(index, rng_state)) return cell;
      return nullptr;
    }

    // Park. Epoch is read BEFORE the re-scan: any enqueue that the re-scan
    // misses bumps the epoch afterwards and fails the wait predicate.
    parked_.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t epoch = unpark_epoch_.load(std::memory_order_acquire);
    Cell* cell = try_pop_local(index);
    if (cell == nullptr) cell = try_steal(index, rng_state);
    if (cell != nullptr) {
      parked_.fetch_sub(1, std::memory_order_relaxed);
      return cell;
    }
    if (parks_metric_ != nullptr && obs_->enabled()) parks_metric_->add();
    {
      std::unique_lock lock(park_mutex_);
      // Bounded wait as a belt-and-braces backstop: a missed wakeup costs a
      // millisecond, never a hang.
      park_cv_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return unpark_epoch_.load(std::memory_order_acquire) != epoch ||
               !running_.load(std::memory_order_acquire);
      });
    }
    parked_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ActorSystem::run_cell(Cell& cell) {
  constexpr std::size_t kThroughput = 64;  // Messages per scheduling slot.
  std::uint64_t handled = 0;
  std::uint64_t folded = 0;
  if (cell.stopped.load(std::memory_order_acquire)) {
    folded = drain_dead_letters(cell);
  } else {
    // Batch drain: envelopes are processed in place (no per-message move
    // out of the node) and the mailbox folds its size counter once. The
    // lambda's return value stops the batch as soon as the actor stops
    // (e.g. a kStop supervision directive mid-slot). Enqueue-to-drain
    // latency reads the clock once per slot, not per message.
    const std::int64_t drain_ns =
        mailbox_latency_ != nullptr ? obs::wall_now_ns() : 0;
    handled = cell.mailbox.consume(kThroughput, [&](Envelope&& envelope) {
      if (drain_ns != 0 && envelope.enqueue_ns != 0) {
        mailbox_latency_->record(drain_ns - envelope.enqueue_ns);
      }
      process_one(cell, envelope);
      return !cell.stopped.load(std::memory_order_acquire);
    });
    if (cell.stopped.load(std::memory_order_acquire)) folded = drain_dead_letters(cell);
  }
  if (handled != 0) messages_processed_.fetch_add(handled, std::memory_order_relaxed);
  fold_processed(handled + folded);

  // Release the scheduling token, then re-check for late arrivals. A
  // stopped cell with a non-empty backlog is re-scheduled too: the next
  // slot converts the backlog to dead letters, keeping await_idle() exact.
  cell.scheduled.store(false, std::memory_order_seq_cst);
  if (!cell.mailbox.empty()) schedule(cell);
}

void ActorSystem::worker_loop(std::size_t index) {
  tls_worker_system = this;
  tls_worker_index = index;
  std::uint64_t rng_state = 0x9E3779B97F4A7C15ull ^ (index + 1);
  while (Cell* cell = acquire_work(index, rng_state)) {
    run_cell(*cell);
  }
  tls_worker_system = nullptr;
}

void ActorSystem::await_idle() {
  if (mode_ != Mode::kThreaded) {
    throw std::logic_error("ActorSystem::await_idle: only valid in threaded mode");
  }
  std::unique_lock lock(idle_mutex_);
  idle_cv_.wait(lock, [this] { return pending_.load(std::memory_order_acquire) == 0; });
}

void ActorSystem::stop(const ActorRef& ref) {
  Cell* cell = ref.system() == this ? find_cell(ref.id()) : nullptr;
  if (cell == nullptr) return;
  cell->stopped.store(true, std::memory_order_release);
  cell->actor->post_stop();
  // Flush any backlog to dead letters so await_idle() cannot strand on a
  // stopped-but-unscheduled mailbox.
  if (mode_ == Mode::kThreaded && !cell->mailbox.empty()) schedule(*cell);
}

void ActorSystem::shutdown() {
  // Drop the snapshot collector first: it walks cells_ and worker_queues_
  // through `this`, which must not happen once teardown begins. Idempotent.
  if (obs_ != nullptr && obs_collector_ != 0) {
    obs_->metrics.remove_collector(obs_collector_);
    obs_collector_ = 0;
  }
  if (mode_ == Mode::kThreaded && running_.exchange(false, std::memory_order_acq_rel)) {
    {
      std::lock_guard lock(park_mutex_);
    }
    park_cv_.notify_all();
    for (auto& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
    workers_.clear();
  }
  // Mark everything stopped under the lock, but run post_stop hooks outside
  // it: a hook may legitimately publish (e.g. an aggregator flushing), which
  // re-enters tell()/find_cell() and would deadlock on cells_mutex_.
  std::vector<Cell*> to_stop;
  {
    std::lock_guard lock(cells_mutex_);
    for (auto& cell : cells_) {
      if (!cell->stopped.exchange(true, std::memory_order_acq_rel)) {
        to_stop.push_back(cell.get());
      }
    }
  }
  for (Cell* cell : to_stop) cell->actor->post_stop();
}

}  // namespace powerapi::actors
