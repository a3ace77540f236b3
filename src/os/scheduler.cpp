#include "os/scheduler.h"

#include <algorithm>

namespace powerapi::os {

namespace {
/// Places `runnable[offset..]` (wrapping) into the slots in the order
/// `slot_of(k)` gives for k = 0, 1, ..., one task per slot, until either
/// runs out.
template <typename SlotOf>
void place(std::span<Task* const> runnable, std::span<Task*> slots, std::size_t order_size,
           SlotOf slot_of, std::size_t offset) {
  std::fill(slots.begin(), slots.end(), nullptr);
  const std::size_t n = runnable.size();
  if (n == 0) return;
  std::size_t r = offset % n;
  std::size_t placed = 0;
  for (std::size_t k = 0; k < order_size && placed < n; ++k) {
    const std::size_t slot = slot_of(k);
    // `slots` may be a prefix of the hardware threads when trailing cores
    // are parked; slot orders still span the full topology, so skip any
    // slot past the active range instead of indexing out of bounds.
    if (slot >= slots.size()) continue;
    slots[slot] = runnable[r];
    if (++r == n) r = 0;
    ++placed;
  }
}

/// Packed slot order (SMT siblings together: 0,1 on core 0, then 2,3 on
/// core 1, ...) is the identity, so only the active prefix is visited.
void place_packed(std::span<Task* const> runnable, std::span<Task*> slots,
                  std::size_t offset) {
  place(runnable, slots, slots.size(), [](std::size_t k) { return k; }, offset);
}
}  // namespace

void RoundRobinScheduler::assign(std::span<Task* const> runnable, std::span<Task*> slots,
                                 const simcpu::CpuSpec& /*spec*/) {
  place_packed(runnable, slots, next_offset_);
  if (!runnable.empty()) {
    // Advance by the number of slots so waiting tasks move to the front.
    next_offset_ = (next_offset_ + slots.size()) % runnable.size();
  }
}

void PackScheduler::assign(std::span<Task* const> runnable, std::span<Task*> slots,
                           const simcpu::CpuSpec& /*spec*/) {
  place_packed(runnable, slots, 0);
}

void SpreadScheduler::assign(std::span<Task* const> runnable, std::span<Task*> slots,
                             const simcpu::CpuSpec& spec) {
  if (order_.empty()) {
    // Thread 0 of every core before any sibling: 0,2 then 1,3 on a
    // 2-core/SMT-2 part.
    order_.reserve(spec.hw_threads());
    for (std::size_t sibling = 0; sibling < spec.threads_per_core; ++sibling) {
      for (std::size_t core = 0; core < spec.cores; ++core) {
        order_.push_back(core * spec.threads_per_core + sibling);
      }
    }
  }
  place(runnable, slots, order_.size(), [this](std::size_t k) { return order_[k]; }, 0);
}

}  // namespace powerapi::os
