#include "actors/actor_system.h"

#include <algorithm>
#include <stdexcept>

#include "obs/observability.h"
#include "util/logging.h"

namespace powerapi::actors {

void ActorRef::tell(Payload payload) const { tell(std::move(payload), ActorRef()); }

void ActorRef::tell(Payload payload, ActorRef sender) const {
  if (!valid()) return;
  system_->tell(*this, std::move(payload), sender);
}

ActorSystem::ActorSystem(obs::Observability* obs) : obs_(obs) {
  groups_.push_back(std::make_unique<Group>());  // kDefaultGroup.
  if (obs_ != nullptr) {
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
      builder.gauge("actors.count", static_cast<double>(actors));
      builder.gauge("actors.mailbox.depth", static_cast<double>(depth_total));
      builder.gauge("actors.mailbox.max_depth", static_cast<double>(depth_max));
      builder.gauge("actors.messages_processed",
                    static_cast<double>(messages_processed()));
      builder.gauge("actors.dead_letters", static_cast<double>(dead_letters()));
      builder.gauge("actors.failures", static_cast<double>(failures()));
      builder.gauge("actors.restarts", static_cast<double>(restarts()));
    });
  }
}

ActorSystem::ActorSystem(Mode mode, obs::Observability* obs) : ActorSystem(obs) {
  if (mode != Mode::kManual) {
    throw std::invalid_argument("ActorSystem: only kManual constructs a system");
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
    cell->group = groups_[group].get();
    cell->group->cells.push_back(cell.get());
    cells_.push_back(std::move(cell));
    cells_version_.fetch_add(1, std::memory_order_release);
  }
  return ref;
}

ActorSystem::GroupId ActorSystem::add_group() {
  std::lock_guard lock(cells_mutex_);
  groups_.push_back(std::make_unique<Group>());
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

std::uint64_t ActorSystem::messages_processed() const {
  std::uint64_t total = messages_processed_.load(std::memory_order_relaxed);
  std::lock_guard lock(cells_mutex_);
  for (const auto& group : groups_) total += group->processed.load(std::memory_order_relaxed);
  return total;
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
  cell->mailbox.push(std::move(envelope));
  // Publish the group hint after the push so a drain round that takes the
  // hint also observes the message.
  cell->group->has_mail.store(true, std::memory_order_release);
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

void ActorSystem::drain_dead_letters(Cell& cell) {
  // Single place that converts a stopped actor's backlog into dead letters,
  // so the dead-letter book is kept exactly once per message.
  const std::size_t n = cell.mailbox.consume(SIZE_MAX, [](Envelope&&) { /* dropped */ });
  if (n != 0) dead_letters_.fetch_add(n, std::memory_order_relaxed);
}

bool ActorSystem::drain_visit(Cell& cell) {
  // Idle skip: most visits in a steady tick hit an empty mailbox, and the
  // mailbox's size counter turns each of those into one load. The counter
  // is the drain hint: push raises it before linking the envelope and only
  // the consumer lowers it, so nothing has to be cleared and re-checked, and
  // a racing tell cannot leave its message behind a stale "empty". The
  // visit order over non-idle cells is unchanged, so message ordering (and
  // therefore golden output) is identical.
  if (cell.mailbox.empty()) return false;
  if (cell.stopped.load(std::memory_order_acquire)) {
    drain_dead_letters(cell);
    return false;
  }
  // One message per visit, processed in place (no move out of the node).
  // Finds nothing while a producer is mid-push; the size stays raised, so a
  // later visit takes the message.
  return cell.mailbox.consume(1, [&](Envelope&& envelope) {
    if (mailbox_latency_ != nullptr && envelope.enqueue_ns != 0) {
      mailbox_latency_->record(obs::wall_now_ns() - envelope.enqueue_ns);
    }
    process_one(cell, envelope);
  }) != 0;
}

std::size_t ActorSystem::drain(std::size_t max_messages) {
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
  // No lock: membership is frozen while groups drain concurrently, and a
  // spawn into this group from one of its own actors (same thread) is seen
  // by the size re-read below.
  Group& owner = *groups_.at(group);
  const std::vector<Cell*>& cells = owner.cells;
  // Rounds run while the last one progressed or the hint is set. Each round
  // clears the hint before its visits: mail told after the clear sets it
  // again, mail told before it is seen by the visits (acquire).
  const auto take_hint = [&owner] {
    return owner.has_mail.load(std::memory_order_relaxed) &&
           owner.has_mail.exchange(false, std::memory_order_acquire);
  };
  std::size_t processed = 0;
  bool progressed = false;
  while (processed < max_messages && (progressed || take_hint())) {
    progressed = false;
    for (std::size_t i = 0; i < cells.size() && processed < max_messages; ++i) {
      if (drain_visit(*cells[i])) {
        ++processed;
        progressed = true;
      }
    }
  }
  // Cut short by the cap: mail may remain.
  if (processed >= max_messages) owner.has_mail.store(true, std::memory_order_relaxed);
  // Only this thread writes the group's count: no read-modify-write, and no
  // line shared with groups draining on other threads.
  if (processed != 0) {
    owner.processed.store(owner.processed.load(std::memory_order_relaxed) + processed,
                          std::memory_order_relaxed);
  }
  return processed;
}

void ActorSystem::stop(const ActorRef& ref) {
  Cell* cell = ref.system() == this ? find_cell(ref.id()) : nullptr;
  if (cell == nullptr) return;
  cell->stopped.store(true, std::memory_order_release);
  // The backlog keeps its hint set: the next drain visit turns it into
  // dead letters.
  cell->actor->post_stop();
}

void ActorSystem::shutdown() {
  // Drop the snapshot collector first: it walks cells_ through `this`,
  // which must not happen once teardown begins. Idempotent.
  if (obs_ != nullptr && obs_collector_ != 0) {
    obs_->metrics.remove_collector(obs_collector_);
    obs_collector_ = 0;
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
