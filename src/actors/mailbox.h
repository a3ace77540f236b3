// Actor mailbox: many producers (any thread may tell), one consumer (one
// thread drains the actor system at a time).
//
// Producers append to `incoming_` under a mutex. The consumer takes
// envelopes from its own `draining_` vector and, once that runs dry, swaps
// the two under the same mutex, so it locks once per batch, not per
// message. Both vectors keep their capacity across swaps: a steady-state
// tell allocates nothing. The size counter counts envelopes in either
// vector; it is raised under the mutex with the append and lowered only by
// the consumer, so a drain visit can skip an idle actor on one load, and a
// non-zero size always means pop() finds an envelope.
#pragma once

#include <atomic>
#include <cstddef>
#include <mutex>
#include <utility>
#include <vector>

#include "actors/message.h"

namespace powerapi::actors {

class Mailbox {
 public:
  /// Enqueues. Any thread.
  void push(Envelope&& envelope) {
    std::lock_guard lock(mutex_);
    incoming_.push_back(std::move(envelope));
    size_.fetch_add(1);
  }

  /// Moves the oldest envelope into `out`; false when empty. Consumer only.
  bool pop(Envelope& out) {
    if (next_ == draining_.size() && !refill()) return false;
    out = std::move(draining_[next_++]);
    size_.fetch_sub(1);
    return true;
  }

  /// Drops every queued envelope; returns how many. Consumer only.
  std::size_t clear() {
    std::size_t dropped = draining_.size() - next_;
    {
      std::lock_guard lock(mutex_);
      dropped += incoming_.size();
      incoming_.clear();
    }
    draining_.clear();
    next_ = 0;
    size_.fetch_sub(dropped);
    return dropped;
  }

  /// Any thread; exact once quiescent.
  std::size_t size() const noexcept { return size_.load(); }
  bool empty() const noexcept { return size() == 0; }

 private:
  /// Swaps the producers' batch in; false when it is empty.
  bool refill() {
    draining_.clear();
    next_ = 0;
    std::lock_guard lock(mutex_);
    draining_.swap(incoming_);
    return !draining_.empty();
  }

  std::mutex mutex_;
  std::vector<Envelope> incoming_;  ///< Guarded by mutex_.
  std::vector<Envelope> draining_;  ///< Consumer only, read from next_.
  std::size_t next_ = 0;
  std::atomic<std::size_t> size_{0};
};

}  // namespace powerapi::actors
