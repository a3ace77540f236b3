// Concurrency stress tests for the actor runtime: producers on many threads
// tell() into a system that one consumer thread drain()s at the same time
// (the cross-thread tells FleetMonitor's host slices make into
// default-group actors), including ping-pong rings and spawn/stop racing a
// message storm; plus the event bus's lock-free publish racing subscribe
// and intern. Every storm ends with a final drain() at quiescence and
// asserts zero message loss with exact bookkeeping: sent == processed +
// dead_letters. Designed to run under ThreadSanitizer (the CI sanitizer job
// builds this suite with -fsanitize=thread); all cross-thread test state is
// atomic.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"

namespace powerapi::actors {
namespace {

/// Counts every message it receives.
class Counter final : public Actor {
 public:
  explicit Counter(std::atomic<std::uint64_t>* total) : total_(total) {}
  void receive(Envelope&) override { total_->fetch_add(1, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t>* total_;
};

/// A thread that drain()s `system` in a loop until stopped; join() stops it.
/// The storms' producers tell() while it runs, then the test drains once
/// more at quiescence. It counts the drain() calls it has completed.
class Consumer {
 public:
  explicit Consumer(ActorSystem& system)
      : thread_([this, &system] {
          while (!done_.load(std::memory_order_acquire)) {
            system.drain();
            passes_.fetch_add(1, std::memory_order_acq_rel);
          }
        }) {}
  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;
  ~Consumer() {
    if (thread_.joinable()) join();
  }
  void join() {
    done_.store(true, std::memory_order_release);
    thread_.join();
  }
  /// drain() calls completed so far; whatever they delivered is visible to
  /// the caller.
  std::uint64_t passes() const { return passes_.load(std::memory_order_acquire); }
  /// passes(), read so that every drain() beginning after the next count
  /// sees what the caller wrote before this call (a tell). It is a
  /// read-modify-write, which the consumer's next count reads from; a plain
  /// load may be ordered before the caller's earlier stores.
  std::uint64_t mark() { return passes_.fetch_add(0, std::memory_order_acq_rel); }

 private:
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> passes_{0};
  std::thread thread_;
};

TEST(ActorStress, ManyProducersManyActorsStorm) {
  constexpr int kProducers = 4;
  constexpr int kActors = 16;
  constexpr int kPerProducer = 25000;
  ActorSystem system;
  std::atomic<std::uint64_t> received{0};
  std::vector<ActorRef> actors;
  actors.reserve(kActors);
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(system.spawn_as<Counter>("counter", &received));
  }

  Consumer consumer(system);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&actors, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        actors[static_cast<std::size_t>(p + i) % actors.size()].tell(i);
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  system.drain();

  constexpr std::uint64_t kTotal = std::uint64_t{kProducers} * kPerProducer;
  EXPECT_EQ(received.load(), kTotal);
  EXPECT_EQ(system.messages_processed(), kTotal);
  EXPECT_EQ(system.dead_letters(), 0u);
}

/// Forwards a hop-count token around a ring until it reaches zero.
class RingNode final : public Actor {
 public:
  explicit RingNode(std::atomic<std::uint64_t>* hops) : hops_(hops) {}
  void set_next(ActorRef next) { next_ = next; }

  void receive(Envelope& envelope) override {
    hops_->fetch_add(1, std::memory_order_relaxed);
    if (const int* remaining = envelope.payload.get<int>()) {
      if (*remaining > 0) next_.tell(*remaining - 1, self());
    }
  }

 private:
  std::atomic<std::uint64_t>* hops_;
  ActorRef next_;
};

TEST(ActorStress, PingPongRings) {
  // Actor-to-actor sends: each receive forwards to the next ring node, so
  // most messages are told from inside the consumer's drain, while the
  // main thread tells the ring entries into the running drain loop.
  constexpr int kRings = 4;
  constexpr int kNodesPerRing = 4;
  constexpr int kHops = 5000;
  ActorSystem system;
  std::atomic<std::uint64_t> hops{0};

  std::vector<ActorRef> entries;
  for (int r = 0; r < kRings; ++r) {
    std::vector<RingNode*> nodes;
    std::vector<ActorRef> refs;
    for (int n = 0; n < kNodesPerRing; ++n) {
      auto owned = std::make_unique<RingNode>(&hops);
      nodes.push_back(owned.get());
      refs.push_back(system.spawn("ring", std::move(owned)));
    }
    for (int n = 0; n < kNodesPerRing; ++n) {
      // Safe before any message flows; receive() only reads next_ afterwards.
      nodes[static_cast<std::size_t>(n)]->set_next(
          refs[static_cast<std::size_t>(n + 1) % refs.size()]);
    }
    entries.push_back(refs.front());
  }
  // Each token is received kHops + 1 times (hop counts kHops .. 0).
  constexpr std::uint64_t kExpected = std::uint64_t{kRings} * (kHops + 1);
  Consumer consumer(system);
  for (const auto& entry : entries) entry.tell(kHops);
  // Let the consumer carry the tokens round; the final drain() picks up
  // whatever it left (a stranded token would still be missing after it).
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (hops.load(std::memory_order_relaxed) < kExpected &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::yield();
  }
  consumer.join();
  system.drain();

  EXPECT_EQ(hops.load(), kExpected);
  EXPECT_EQ(system.messages_processed(), kExpected);
  EXPECT_EQ(system.dead_letters(), 0u);
}

TEST(ActorStress, SpawnDuringStorm) {
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 10000;
  constexpr int kLateActors = 200;
  ActorSystem system;
  std::atomic<std::uint64_t> received{0};
  std::vector<ActorRef> actors;
  for (int i = 0; i < 8; ++i) {
    actors.push_back(system.spawn_as<Counter>("early", &received));
  }

  Consumer consumer(system);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&actors, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        actors[static_cast<std::size_t>(p + i) % actors.size()].tell(i);
      }
    });
  }
  // Spawn fresh actors while the storm runs; each gets one message.
  std::uint64_t late_sent = 0;
  for (int i = 0; i < kLateActors; ++i) {
    const auto late = system.spawn_as<Counter>("late", &received);
    late.tell(i);
    ++late_sent;
  }
  for (auto& t : producers) t.join();
  consumer.join();
  system.drain();

  const std::uint64_t total = std::uint64_t{kProducers} * kPerProducer + late_sent;
  EXPECT_EQ(received.load(), total);
  EXPECT_EQ(system.messages_processed(), total);
  EXPECT_EQ(system.dead_letters(), 0u);
}

TEST(ActorStress, StopDuringStormLosesNothing) {
  // Half the actors are stopped mid-storm. Every sent message must be
  // accounted for exactly once: processed before the stop took effect, or a
  // dead letter (rejected at tell() or drained from a stopped backlog).
  constexpr int kProducers = 3;
  constexpr int kActors = 8;
  constexpr int kPerProducer = 20000;
  ActorSystem system;
  std::atomic<std::uint64_t> received{0};
  std::vector<ActorRef> actors;
  for (int i = 0; i < kActors; ++i) {
    actors.push_back(system.spawn_as<Counter>("victim", &received));
  }

  Consumer consumer(system);
  std::atomic<std::uint64_t> sent{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&actors, &sent, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        actors[static_cast<std::size_t>(p + i) % actors.size()].tell(i);
        sent.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Let the storm develop, then stop every other actor under fire.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  for (int i = 0; i < kActors; i += 2) system.stop(actors[static_cast<std::size_t>(i)]);
  actors[0].tell(-1);  // Actor 0 is stopped: a guaranteed dead letter.
  sent.fetch_add(1, std::memory_order_relaxed);
  for (auto& t : producers) t.join();
  consumer.join();
  system.drain();

  const std::uint64_t total = sent.load();
  EXPECT_EQ(total, std::uint64_t{kProducers} * kPerProducer + 1);
  EXPECT_EQ(system.messages_processed() + system.dead_letters(), total);
  EXPECT_EQ(received.load(), system.messages_processed());
  EXPECT_GT(system.dead_letters(), 0u);  // The stopped half rejected something.
}

TEST(ActorStress, TellRacingDrainNeverStrandsAMessage) {
  // Each producer keeps exactly one message in flight to its own actor and
  // waits for it to be received before telling the next, while the
  // consumer loops drain(). Every tell races a drain visit of the same
  // cell. A visit that misses the message must leave it visible to the
  // next one; a skip flag the visit clears after the tell has set it would
  // strand the message: no drain() processes it until the next tell into
  // that cell, which its producer never sends. The check counts the
  // consumer's progress, not time, so a descheduled thread cannot fail it:
  // a message is stranded once two whole drain() passes that began after
  // its tell() returned have finished without delivering it (one such pass
  // must already deliver it).
  constexpr int kProducers = 3;
  constexpr auto kBudget = std::chrono::milliseconds(1900);
  ActorSystem system;
  std::array<std::atomic<std::uint64_t>, kProducers> received{};
  std::vector<ActorRef> actors;
  for (auto& count : received) actors.push_back(system.spawn_as<Counter>("own", &count));

  const auto deadline = std::chrono::steady_clock::now() + kBudget;
  std::atomic<int> stranded{0};
  std::atomic<std::uint64_t> sent{0};
  Consumer consumer(system);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      const auto index = static_cast<std::size_t>(p);
      std::uint64_t mine = 0;
      while (stranded.load(std::memory_order_relaxed) == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        actors[index].tell(0);
        ++mine;
        // The pass running now (it completes as told + 1) may have begun
        // before the tell; passes told + 2 and told + 3 begin after it.
        const std::uint64_t told = consumer.mark();
        while (received[index].load(std::memory_order_acquire) != mine) {
          if (consumer.passes() >= told + 3 &&
              received[index].load(std::memory_order_acquire) != mine) {
            stranded.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
      }
      sent.fetch_add(mine, std::memory_order_relaxed);
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();

  RecordProperty("tells", std::to_string(sent.load()));
  EXPECT_EQ(stranded.load(), 0) << "after " << sent.load() << " tells";
  system.drain();
  EXPECT_EQ(system.messages_processed(), sent.load());
}

TEST(BusStress, SubscribeAndInternRacePublishers) {
  // Four threads publish to one topic, and to whatever topic was interned
  // last, while the main thread adds subscribers and interns enough topics
  // to grow the topic table by several chunks. Every publish must reach the
  // subscribers of some list that was current during it — never a freed or
  // torn one — so deliveries, receipts and dead letters balance exactly.
  constexpr int kPublishers = 4;
  constexpr int kPerPublisher = 4000;
  constexpr int kLateSubscribers = 16;
  constexpr int kLateTopics = 1000;
  ActorSystem system;
  EventBus bus(system);
  std::atomic<std::uint64_t> received{0};
  const EventBus::TopicId hot = bus.intern("hot");
  bus.subscribe(hot, system.spawn_as<Counter>("first", &received));
  std::atomic<EventBus::TopicId> latest{bus.intern("late0")};

  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> unheard{0};
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&] {
      for (int i = 0; i < kPerPublisher; ++i) {
        const std::size_t to_hot = bus.publish(hot, i);
        EXPECT_GE(to_hot, 1u);
        const std::size_t to_late = bus.publish(latest.load(std::memory_order_acquire), i);
        delivered.fetch_add(to_hot + to_late, std::memory_order_relaxed);
        if (to_late == 0) unheard.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 1; i <= kLateTopics; ++i) {
    const EventBus::TopicId topic = bus.intern("late" + std::to_string(i));
    if (i % 64 == 0) bus.subscribe(topic, system.spawn_as<Counter>("late", &received));
    latest.store(topic, std::memory_order_release);
    if (i % (kLateTopics / kLateSubscribers) == 0) {
      bus.subscribe(hot, system.spawn_as<Counter>("hot", &received));
    }
  }
  for (auto& t : publishers) t.join();
  system.drain();

  EXPECT_EQ(bus.subscriber_count(hot), 1u + kLateSubscribers);
  EXPECT_EQ(received.load(), delivered.load());
  EXPECT_EQ(system.messages_processed(), delivered.load());
  EXPECT_EQ(bus.dead_letter_count(), unheard.load());
  EXPECT_EQ(system.dead_letters(), 0u);
}

}  // namespace
}  // namespace powerapi::actors
