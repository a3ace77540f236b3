// MPSC actor mailbox: many producers (any thread may tell), one consumer
// (one thread drains the actor system at a time).
//
// Implementation: Vyukov-style intrusive MPSC node queue. push() is
// wait-free for practical purposes (one atomic exchange + one store, no
// locks, no CAS loop); consume() dequeues on the single consumer, touching
// at most two cache lines per envelope. A separate size counter lets empty()
// be queried from any thread: a drain visit skips an idle actor on it.
//
// consume() may transiently find nothing while size() > 0 when a producer
// has exchanged the head but not yet linked its node; callers treat that as
// "retry later" (the size stays raised, so a later visit tries again),
// never as loss.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "actors/message.h"

namespace powerapi::actors {

class Mailbox {
 public:
  Mailbox() noexcept : head_(&stub_), tail_(&stub_) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  ~Mailbox() {
    // Drain remaining nodes (messages abandoned at system shutdown).
    consume(SIZE_MAX, [](Envelope&&) {});
  }

  /// Enqueues. Any thread.
  void push(Envelope&& envelope) {
    Node* node = new (allocate_block()) Node(std::move(envelope));
    // Raised before the envelope is linked, so a consumer that pops the
    // envelope has seen the raise and the counter never underflows.
    size_.fetch_add(1, std::memory_order_seq_cst);
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  /// Batch drain: pops up to `max` envelopes, invoking `fn(Envelope&&)` for
  /// each. The size counter is folded once per batch rather than per
  /// message. Returns the number consumed. Single consumer only.
  template <typename Fn>
  std::size_t consume(std::size_t max, Fn&& fn) {
    std::size_t n = 0;
    while (n < max) {
      Node* node = pop_node();
      if (node == nullptr) break;
      fn(std::move(node->envelope));
      recycle(node);
      ++n;
    }
    if (n != 0) size_.fetch_sub(n, std::memory_order_relaxed);
    return n;
  }

  /// Approximate from producers' perspective; exact once quiescent.
  std::size_t size() const noexcept { return size_.load(std::memory_order_seq_cst); }

  bool empty() const noexcept { return size() == 0; }

 private:
  struct Node {
    Node() = default;
    explicit Node(Envelope&& e) : envelope(std::move(e)) {}
    std::atomic<Node*> next{nullptr};
    Envelope envelope;
  };

  // A fixed 64 avoids the ABI-instability of hardware_destructive_
  // interference_size (and its -Winterference-size noise): the exact
  // constant only affects padding, not correctness.
  static constexpr std::size_t kCacheLine = 64;

  // --- Node block recycling -------------------------------------------
  // Steady-state messaging must never hit the global allocator: a
  // per-thread cache of raw node blocks fronts a process-wide spill pool.
  // Producer and consumer are usually different threads, so blocks drift
  // from consumer caches (which free) to producer caches (which allocate)
  // through the spill pool in batches of kTransferBatch — one pool mutex
  // acquisition per kTransferBatch messages, not per message.
  static constexpr std::size_t kLocalCacheCap = 256;
  static constexpr std::size_t kTransferBatch = 128;
  static constexpr std::size_t kSpillPoolCap = 1u << 14;  ///< ~1 MiB of nodes.

  struct SpillPool {
    std::mutex mutex;
    std::vector<void*> blocks;
  };

  static SpillPool& spill_pool() {
    // Leaked singleton: thread caches spill into it from thread_local
    // destructors, whose run order vs. static destruction is unsequenced.
    static SpillPool* pool = new SpillPool();
    return *pool;
  }

  struct LocalCache {
    std::array<void*, kLocalCacheCap> blocks;
    std::size_t count = 0;

    ~LocalCache() {
      SpillPool& pool = spill_pool();
      std::lock_guard lock(pool.mutex);
      while (count != 0) {
        void* block = blocks[--count];
        if (pool.blocks.size() < kSpillPoolCap) {
          pool.blocks.push_back(block);
        } else {
          ::operator delete(block);
        }
      }
    }
  };

  static LocalCache& local_cache() {
    static thread_local LocalCache cache;
    return cache;
  }

  static void* allocate_block() {
    LocalCache& cache = local_cache();
    if (cache.count == 0) {
      SpillPool& pool = spill_pool();
      std::lock_guard lock(pool.mutex);
      while (cache.count < kTransferBatch && !pool.blocks.empty()) {
        cache.blocks[cache.count++] = pool.blocks.back();
        pool.blocks.pop_back();
      }
    }
    if (cache.count != 0) return cache.blocks[--cache.count];
    return ::operator new(sizeof(Node));
  }

  static void release_block(void* block) {
    LocalCache& cache = local_cache();
    if (cache.count == kLocalCacheCap) {
      SpillPool& pool = spill_pool();
      std::lock_guard lock(pool.mutex);
      if (pool.blocks.size() + kTransferBatch <= kSpillPoolCap) {
        while (cache.count > kLocalCacheCap - kTransferBatch) {
          pool.blocks.push_back(cache.blocks[--cache.count]);
        }
      } else {
        while (cache.count > kLocalCacheCap - kTransferBatch) {
          ::operator delete(cache.blocks[--cache.count]);
        }
      }
    }
    cache.blocks[cache.count++] = block;
  }

  /// Destroys a popped node and returns its block to the pool. The stub is
  /// part of the mailbox object itself and is never reclaimed.
  void recycle(Node* node) {
    if (node == &stub_) return;
    node->~Node();
    release_block(node);
  }

  /// Vyukov MPSC dequeue. Returns the node owning the front envelope, or
  /// nullptr when empty (or transiently mid-push). The returned node is
  /// owned by the caller except when it is &stub_ (whose envelope was
  /// moved in by a producer and is safe to move out exactly once).
  Node* pop_node() {
    Node* tail = tail_;
    Node* next = tail->next.load(std::memory_order_acquire);
    if (tail == &stub_) {
      if (next == nullptr) return nullptr;  // Empty (or producer mid-push).
      tail_ = next;
      tail = next;
      next = next->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {  // At least two nodes: pop the front one.
      tail_ = next;
      return tail;
    }
    Node* head = head_.load(std::memory_order_acquire);
    if (tail != head) return nullptr;  // Producer mid-push: transient empty.
    // Single node left: re-insert the stub behind it so the queue is never
    // without a node, then pop.
    push_node(&stub_);
    next = tail->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      tail_ = next;
      return tail;
    }
    return nullptr;  // Another producer slipped in between; retry later.
  }

  void push_node(Node* node) {
    node->next.store(nullptr, std::memory_order_relaxed);
    Node* prev = head_.exchange(node, std::memory_order_acq_rel);
    prev->next.store(node, std::memory_order_release);
  }

  alignas(kCacheLine) std::atomic<Node*> head_;        ///< Producer side.
  alignas(kCacheLine) Node* tail_;                     ///< Consumer side.
  Node stub_;
  alignas(kCacheLine) std::atomic<std::size_t> size_{0};
};

}  // namespace powerapi::actors
