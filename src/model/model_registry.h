// Versioned, hot-swappable power-model storage.
//
// The learn→deploy loop needs two things the old "every formula owns a
// CpuPowerModel copy" design could not give: (1) one immutable model shared
// by every consumer (a fleet's 32 RegressionFormulas reference one snapshot
// instead of 32 copies), and (2) atomic replacement while the pipeline is
// running (the Calibrator publishes a refit without stopping a tick).
//
// Snapshots are immutable `shared_ptr<const Snapshot>` replaced under a
// mutex (libstdc++ 12's std::atomic<std::shared_ptr> releases a load's
// lock bit with a relaxed store, which TSan reports as a race with a
// concurrent publish). A reader's pinned snapshot stays valid across any
// number of swaps, so a swap never invalidates an in-flight read. Every
// snapshot carries a monotonically increasing version so estimates can be
// traced to the model that produced them.
//
// Hot readers go through refresh(): the published version is mirrored in a
// plain atomic, so a reader whose pin is current pays one acquire load and
// writes nothing — no lock, no shared refcount traffic on lines every
// reader of the registry shares. Only the first read after a publish takes
// the mutex to re-pin.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "model/power_model.h"

namespace powerapi::model {

class ModelRegistry {
 public:
  using Version = std::uint64_t;

  /// One immutable (version, model) pair. Readers hold it by shared_ptr.
  struct Snapshot {
    Version version = 0;
    CpuPowerModel model;
  };

  /// The initial model becomes version 1.
  explicit ModelRegistry(CpuPowerModel initial);

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// The current snapshot; never null. For cold paths: takes the mutex and
  /// bumps the shared refcount.
  std::shared_ptr<const Snapshot> current() const {
    std::lock_guard lock(mutex_);
    return current_;
  }

  /// The current snapshot, via the caller's own pin: `pinned` (null before
  /// the first call) is re-pinned only when the published version differs
  /// from the pinned one, so a read with no publish in between writes
  /// nothing. A read that happens after publish() returns sees the
  /// published version.
  const Snapshot& refresh(std::shared_ptr<const Snapshot>& pinned) const {
    if (pinned == nullptr || pinned->version != version_.load(std::memory_order_acquire)) {
      pinned = current();
    }
    return *pinned;
  }

  /// Latest published version (1 at construction).
  Version version() const noexcept { return version_.load(std::memory_order_acquire); }

  /// Replaces the model with `next`; returns the new version, one past the
  /// replaced one. Concurrent publishers are serialized.
  Version publish(CpuPowerModel next);

 private:
  mutable std::mutex mutex_;  ///< Guards current_.
  std::shared_ptr<const Snapshot> current_;
  /// current_'s version, stored after current_ (release), so a reader that
  /// sees a version then finds that snapshot current (or a newer one).
  std::atomic<Version> version_{1};
};

}  // namespace powerapi::model
