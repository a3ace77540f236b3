#include "actors/actor_system.h"

#include <algorithm>
#include <stdexcept>

#include "obs/observability.h"

namespace powerapi::actors {

void ActorRef::tell(Payload payload) const { tell(std::move(payload), ActorRef()); }

void ActorRef::tell(Payload payload, ActorRef sender) const {
  if (!valid()) return;
  system_->tell(*this, std::move(payload), sender);
}

ActorSystem::ActorSystem(obs::Observability* obs) : obs_(obs) {
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
    });
  }
}

ActorSystem::ActorSystem(Mode mode, obs::Observability* obs) : ActorSystem(obs) {
  if (mode != Mode::kManual) {
    throw std::invalid_argument("ActorSystem: only kManual constructs a system");
  }
}

ActorSystem::~ActorSystem() { shutdown(); }

ActorRef ActorSystem::spawn(std::string name, std::unique_ptr<Actor> actor) {
  if (!actor) throw std::invalid_argument("ActorSystem::spawn: null actor");
  auto cell = std::make_unique<Cell>();
  cell->actor = std::move(actor);
  cell->actor->name_ = std::move(name);
  std::lock_guard lock(cells_mutex_);
  const ActorRef ref(this, cells_.size() + 1);
  cell->actor->self_ = ref;
  cells_.push_back(std::move(cell));
  cells_version_.fetch_add(1, std::memory_order_release);
  return ref;
}

ActorSystem::Cell* ActorSystem::find_cell(const ActorRef& ref) const {
  if (ref.system() != this) return nullptr;
  Cell* cell = nullptr;
  {
    std::shared_lock lock(cells_mutex_);
    if (ref.id() == kNoActor || ref.id() > cells_.size()) return nullptr;
    cell = cells_[ref.id() - 1].get();
  }
  return cell->stopped.load(std::memory_order_acquire) ? nullptr : cell;
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
  Cell* cell = find_cell(target);
  if (cell == nullptr) {
    dead_letters_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Envelope envelope{std::move(payload), sender};
  if (obs_ != nullptr && obs_->enabled()) envelope.enqueue_ns = obs::wall_now_ns();
  cell->mailbox.push(std::move(envelope));
}

bool ActorSystem::drain_visit(Cell& cell) {
  // Idle skip: most visits in a steady tick hit an empty mailbox, and the
  // mailbox's size counter turns each of those into one load. Only the
  // consumer lowers it, so a racing tell cannot leave its message behind a
  // stale "empty".
  if (cell.mailbox.empty()) return false;
  if (cell.stopped.load(std::memory_order_acquire)) {
    // A stopped cell's backlog (and any tell that raced the stop) becomes
    // dead letters, each counted once.
    dead_letters_.fetch_add(cell.mailbox.clear(), std::memory_order_relaxed);
    return false;
  }
  Envelope envelope;
  if (!cell.mailbox.pop(envelope)) return false;
  messages_processed_.fetch_add(1, std::memory_order_relaxed);
  if (mailbox_latency_ != nullptr && envelope.enqueue_ns != 0) {
    mailbox_latency_->record(obs::wall_now_ns() - envelope.enqueue_ns);
  }
  cell.actor->receive(envelope);
  return true;
}

std::size_t ActorSystem::drain(std::size_t max_messages) {
  std::size_t processed = 0;
  bool progressed = true;
  while (progressed && processed < max_messages) {
    progressed = false;
    // Spawn-during-drain is legal: a spawn bumps cells_version_, and the
    // next round picks the new cell up.
    if (cells_version_.load(std::memory_order_acquire) != snapshot_version_) {
      std::lock_guard lock(cells_mutex_);
      snapshot_.clear();
      for (const auto& cell : cells_) snapshot_.push_back(cell.get());
      snapshot_version_ = cells_version_.load(std::memory_order_relaxed);
    }
    for (Cell* cell : snapshot_) {
      if (processed >= max_messages) break;
      if (drain_visit(*cell)) {
        ++processed;
        progressed = true;
      }
    }
  }
  return processed;
}

void ActorSystem::stop(const ActorRef& ref) {
  Cell* cell = find_cell(ref);
  if (cell == nullptr || cell->stopped.exchange(true, std::memory_order_acq_rel)) return;
  // The backlog keeps its mailbox size raised: the next drain visit turns
  // it into dead letters.
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
  // it: a hook may legitimately tell, which re-enters find_cell() and would
  // deadlock on cells_mutex_.
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
