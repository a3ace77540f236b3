// Zero-allocation gate for the simulator's steady state: after a warm-up,
// one kernel quantum (os::System::tick → simcpu::Machine::tick →
// CacheHierarchy::tick_into) must not touch the heap. This binary replaces
// the global operator new/delete with counting wrappers over malloc/free,
// which is why it is its own executable: no other suite shares the hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

#include "os/scheduler.h"
#include "os/system.h"
#include "util/rng.h"
#include "workloads/behaviors.h"
#include "workloads/stress.h"

namespace {
std::atomic<std::size_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded == 0 ? a : rounded)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace powerapi::os {
namespace {

/// The end-to-end fleet benchmark's host mix: four apps cycling through a
/// CPU-bound batch job, a bursty web server and an LLC-overflowing cache
/// scan, plus the background daemon.
std::unique_ptr<System> mixed_host(simcpu::CpuSpec spec, System::Options options = {}) {
  const util::Rng rng(7);
  auto host = std::make_unique<System>(std::move(spec), std::move(options));
  for (std::size_t app = 0; app < 4; ++app) {
    switch (app % 3) {
      case 0:
        host->spawn("batch", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::cpu_stress(0.85), 0));
        break;
      case 1:
        host->spawn("web", std::make_unique<workloads::BurstyBehavior>(
                               workloads::mixed_stress(0.3, 8.0 * 1024 * 1024),
                               util::ms_to_ns(20), util::ms_to_ns(30), 0,
                               rng.fork(10 + app)));
        break;
      default:
        host->spawn("cache", std::make_unique<workloads::SteadyBehavior>(
                                 workloads::memory_stress(24.0 * 1024 * 1024), 0));
        break;
    }
  }
  host->spawn("kdaemon", workloads::make_background_daemon(rng.fork(1)));
  return host;
}

System::Options with_scheduler(std::unique_ptr<Scheduler> scheduler) {
  System::Options options;
  options.scheduler = std::move(scheduler);
  return options;
}

/// Heap allocations made by 1000 quanta after a 1 s warm-up.
std::size_t allocations_per_1000_ticks(System& host) {
  host.run_for(util::seconds_to_ns(1.0));
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 1000; ++i) host.tick();
  return g_allocations.load() - before;
}

TEST(SimulatorAllocations, CounterSeesAllocations) {
  const std::size_t before = g_allocations.load();
  auto probe = std::make_unique<int>(1);
  EXPECT_EQ(g_allocations.load() - before, 1u);
}

TEST(SimulatorAllocations, RoundRobinQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::i3_2120(),
                         with_scheduler(std::make_unique<RoundRobinScheduler>()));
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, PackQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::i3_2120(), with_scheduler(std::make_unique<PackScheduler>()));
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, SpreadQuantumAllocatesNothing) {
  auto host =
      mixed_host(simcpu::i3_2120(), with_scheduler(std::make_unique<SpreadScheduler>()));
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, BigLittleQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::big_little());
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

TEST(SimulatorAllocations, TurboQuantumAllocatesNothing) {
  const simcpu::CpuSpec spec = simcpu::i7_2600();
  auto host = mixed_host(spec);
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
  // The mix leaves cores idle, so the clock sits in a turbo bin.
  EXPECT_GT(host->machine().last_effective_frequency_hz(), spec.max_frequency_hz());
}

TEST(SimulatorAllocations, ParkedCoreQuantumAllocatesNothing) {
  auto host = mixed_host(simcpu::i3_2120());
  ASSERT_EQ(host->set_parked_cores(1), 1u);
  EXPECT_EQ(allocations_per_1000_ticks(*host), 0u);
}

}  // namespace
}  // namespace powerapi::os
