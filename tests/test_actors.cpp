// Tests for the actor runtime: manual drain determinism, drain groups,
// supervision, dead letters, the event bus, tickers, and the threaded
// dispatcher's concurrency guarantees.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "actors/timers.h"

namespace powerapi::actors {
namespace {

class Recorder final : public Actor {
 public:
  void receive(Envelope& envelope) override {
    if (const auto* v = envelope.payload.get<int>()) {
      values.push_back(*v);
    }
  }
  std::vector<int> values;
};

TEST(ActorSystem, DeliversInFifoOrderPerActor) {
  ActorSystem system(ActorSystem::Mode::kManual);
  auto owned = std::make_unique<Recorder>();
  Recorder* recorder = owned.get();
  const auto ref = system.spawn("recorder", std::move(owned));
  for (int i = 0; i < 10; ++i) ref.tell(i);
  EXPECT_EQ(system.drain(), 10u);
  EXPECT_EQ(recorder->values, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ActorSystem, DrainIsDeterministicRoundRobin) {
  // Two actors, interleaved sends: drain must process one message per actor
  // per round, in spawn order.
  ActorSystem system(ActorSystem::Mode::kManual);
  std::vector<std::string> log;
  class Logging final : public Actor {
   public:
    Logging(std::vector<std::string>* log, std::string tag) : log_(log), tag_(std::move(tag)) {}
    void receive(Envelope&) override { log_->push_back(tag_); }

   private:
    std::vector<std::string>* log_;
    std::string tag_;
  };
  const auto a = system.spawn("a", std::make_unique<Logging>(&log, "a"));
  const auto b = system.spawn("b", std::make_unique<Logging>(&log, "b"));
  a.tell(1);
  a.tell(2);
  b.tell(3);
  system.drain();
  EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a"}));
}

TEST(ActorSystem, MessagesToUnknownActorsAreDeadLetters) {
  ActorSystem system(ActorSystem::Mode::kManual);
  ActorRef bogus(&system, 999);
  bogus.tell(1);
  EXPECT_EQ(system.dead_letters(), 1u);
  ActorRef invalid;
  invalid.tell(2);  // No system: silently ignored, no crash.
  EXPECT_EQ(system.messages_processed(), 0u);
}

TEST(ActorSystem, StopDrainsRemainingToDeadLetters) {
  ActorSystem system(ActorSystem::Mode::kManual);
  auto owned = std::make_unique<Recorder>();
  const auto ref = system.spawn("r", std::move(owned));
  ref.tell(1);
  system.stop(ref);
  ref.tell(2);  // Post-stop sends are dead letters immediately.
  system.drain();
  EXPECT_EQ(system.dead_letters(), 2u);  // Both the queued and the late one.
  EXPECT_EQ(system.actor_count(), 0u);
}

TEST(ActorSystem, StoppedThenDrainedMessageIsDeadLetteredExactlyOnce) {
  // A message queued before stop() must be converted to a dead letter by the
  // drain-dead-letters path exactly once: repeated drains must not double
  // count, and the books must balance (nothing processed, nothing lost).
  ActorSystem system(ActorSystem::Mode::kManual);
  const auto ref = system.spawn("r", std::make_unique<Recorder>());
  ref.tell(1);
  system.stop(ref);
  EXPECT_EQ(system.dead_letters(), 0u);  // Backlog not yet drained.
  system.drain();
  EXPECT_EQ(system.dead_letters(), 1u);
  system.drain();
  system.drain();
  EXPECT_EQ(system.dead_letters(), 1u);  // Exactly once, not re-counted.
  EXPECT_EQ(system.messages_processed(), 0u);
}

TEST(ActorSystem, MaxMessagesBoundsDrain) {
  ActorSystem system(ActorSystem::Mode::kManual);
  const auto ref = system.spawn("r", std::make_unique<Recorder>());
  for (int i = 0; i < 10; ++i) ref.tell(i);
  EXPECT_EQ(system.drain(3), 3u);
  EXPECT_EQ(system.drain(), 7u);
}

TEST(ActorSystem, DrainGroupTouchesOnlyItsGroup) {
  // drain_group() drains one group to quiescence in spawn order and leaves
  // every other group's mail queued; a stopped member's backlog becomes
  // dead letters there, exactly once.
  ActorSystem system(ActorSystem::Mode::kManual);
  const ActorSystem::GroupId group = system.add_group();
  auto in_group = std::make_unique<Recorder>();
  Recorder* member = in_group.get();
  const auto a = system.spawn("a", std::move(in_group), group);
  const auto doomed = system.spawn_in<Recorder>(group, "doomed");
  auto outside = std::make_unique<Recorder>();
  Recorder* other = outside.get();
  const auto b = system.spawn("b", std::move(outside));
  for (int i = 0; i < 3; ++i) {
    a.tell(i);
    b.tell(i);
    doomed.tell(i);
  }
  system.stop(doomed);

  EXPECT_EQ(system.drain_group(group), 3u);
  EXPECT_EQ(member->values, (std::vector<int>{0, 1, 2}));
  EXPECT_TRUE(other->values.empty());
  EXPECT_EQ(system.dead_letters(), 3u);
  EXPECT_EQ(system.drain_group(group), 0u);
  EXPECT_EQ(system.dead_letters(), 3u);  // Not re-counted.

  EXPECT_EQ(system.drain_group(ActorSystem::kDefaultGroup), 3u);
  EXPECT_EQ(other->values, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(system.messages_processed(), 6u);
  EXPECT_THROW(system.spawn_in<Recorder>(group + 1, "nowhere"), std::out_of_range);
  EXPECT_THROW(system.drain_group(group + 1), std::out_of_range);
}

TEST(ActorSystem, GroupsDrainConcurrently) {
  // One thread per group: cross-group tells land in MPSC mailboxes while
  // both groups drain, and the caller drains what arrived afterwards.
  ActorSystem system(ActorSystem::Mode::kManual);
  class Forwarder final : public Actor {
   public:
    explicit Forwarder(ActorRef next) : next_(next) {}
    void receive(Envelope& envelope) override {
      ++handled;
      if (const auto* v = envelope.payload.get<int>()) next_.tell(*v);
    }
    int handled = 0;

   private:
    ActorRef next_;
  };
  auto sink_owned = std::make_unique<Recorder>();
  Recorder* sink = sink_owned.get();
  const auto sink_ref = system.spawn("sink", std::move(sink_owned));
  std::vector<ActorSystem::GroupId> groups;
  std::vector<ActorRef> heads;
  for (int g = 0; g < 2; ++g) {
    groups.push_back(system.add_group());
    heads.push_back(system.spawn_in<Forwarder>(groups.back(), "fwd", sink_ref));
  }
  constexpr int kPerGroup = 5000;
  std::vector<std::thread> threads;
  for (int g = 0; g < 2; ++g) {
    threads.emplace_back([&, g] {
      for (int i = 0; i < kPerGroup; ++i) {
        heads[static_cast<std::size_t>(g)].tell(i);
        system.drain_group(groups[static_cast<std::size_t>(g)]);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(system.drain(), 2u * kPerGroup);
  EXPECT_EQ(sink->values.size(), 2u * kPerGroup);
  EXPECT_EQ(system.messages_processed(), 4u * kPerGroup);
}

// --- Supervision ---

class Flaky final : public Actor {
 public:
  explicit Flaky(SupervisionDirective directive) : directive_(directive) {}

  void pre_start() override { ++starts; }
  void post_stop() override { ++stops; }
  void receive(Envelope& envelope) override {
    if (envelope.payload.get<std::string>()) {
      throw std::runtime_error("poison");
    }
    ++handled;
  }
  SupervisionDirective on_failure(const std::exception&) override { return directive_; }

  int starts = 0;
  int stops = 0;
  int handled = 0;

 private:
  SupervisionDirective directive_;
};

TEST(Supervision, ResumeKeepsProcessing) {
  ActorSystem system(ActorSystem::Mode::kManual);
  auto owned = std::make_unique<Flaky>(SupervisionDirective::kResume);
  Flaky* actor = owned.get();
  const auto ref = system.spawn("flaky", std::move(owned));
  ref.tell(1);
  ref.tell(std::string("boom"));
  ref.tell(2);
  system.drain();
  EXPECT_EQ(actor->handled, 2);
  EXPECT_EQ(system.failures(), 1u);
  EXPECT_EQ(system.restarts(), 0u);
}

TEST(Supervision, RestartCyclesLifecycle) {
  ActorSystem system(ActorSystem::Mode::kManual);
  auto owned = std::make_unique<Flaky>(SupervisionDirective::kRestart);
  Flaky* actor = owned.get();
  const auto ref = system.spawn("flaky", std::move(owned));
  EXPECT_EQ(actor->starts, 1);
  ref.tell(std::string("boom"));
  ref.tell(7);
  system.drain();
  EXPECT_EQ(actor->starts, 2);  // pre_start ran again.
  EXPECT_EQ(actor->stops, 1);
  EXPECT_EQ(actor->handled, 1);  // Message after the failure still handled.
  EXPECT_EQ(system.restarts(), 1u);
}

TEST(Supervision, StopRemovesActor) {
  ActorSystem system(ActorSystem::Mode::kManual);
  const auto ref = system.spawn("flaky",
                                std::make_unique<Flaky>(SupervisionDirective::kStop));
  ref.tell(std::string("boom"));
  ref.tell(1);
  system.drain();
  EXPECT_EQ(system.actor_count(), 0u);
  EXPECT_GE(system.dead_letters(), 1u);  // The trailing message.
}

// --- EventBus ---

TEST(EventBus, FanoutAndUnsubscribe) {
  ActorSystem system(ActorSystem::Mode::kManual);
  EventBus bus(system);
  auto o1 = std::make_unique<Recorder>();
  auto o2 = std::make_unique<Recorder>();
  Recorder* r1 = o1.get();
  Recorder* r2 = o2.get();
  const auto a1 = system.spawn("r1", std::move(o1));
  const auto a2 = system.spawn("r2", std::move(o2));
  bus.subscribe("topic", a1);
  bus.subscribe("topic", a2);
  bus.subscribe("topic", a2);  // Duplicate ignored.
  EXPECT_EQ(bus.subscriber_count("topic"), 2u);

  EXPECT_EQ(bus.publish("topic", 42), 2u);
  system.drain();
  EXPECT_EQ(r1->values, std::vector<int>{42});
  EXPECT_EQ(r2->values, std::vector<int>{42});

  bus.unsubscribe("topic", a1);
  EXPECT_EQ(bus.publish("topic", 43), 1u);
  system.drain();
  EXPECT_EQ(r1->values.size(), 1u);
  EXPECT_EQ(r2->values.size(), 2u);
  EXPECT_EQ(bus.publish("other-topic", 1), 0u);
}

/// Counts copies/moves of itself; used to prove fast paths construct nothing.
struct CopyCounted {
  CopyCounted() = default;
  CopyCounted(const CopyCounted&) { copies.fetch_add(1, std::memory_order_relaxed); }
  CopyCounted& operator=(const CopyCounted&) = delete;
  CopyCounted(CopyCounted&&) noexcept { moves.fetch_add(1, std::memory_order_relaxed); }
  CopyCounted& operator=(CopyCounted&&) = delete;
  static inline std::atomic<int> copies{0};
  static inline std::atomic<int> moves{0};
};

TEST(EventBus, ZeroSubscriberPublishConstructsNothing) {
  // Publishing to a topic with no subscribers (or one never seen) must take
  // the early-return fast path: no Payload is built, no copy of the value is
  // made, and the call reports zero deliveries.
  ActorSystem system(ActorSystem::Mode::kManual);
  EventBus bus(system);
  const CopyCounted value;
  CopyCounted::copies.store(0);
  CopyCounted::moves.store(0);

  EXPECT_EQ(bus.publish("never-subscribed", value), 0u);  // Unknown topic.
  const auto topic = bus.intern("known-but-empty");
  EXPECT_EQ(bus.publish(topic, value), 0u);  // Interned, zero subscribers.
  EXPECT_EQ(CopyCounted::copies.load(), 0);
  EXPECT_EQ(CopyCounted::moves.load(), 0);
  EXPECT_EQ(system.messages_processed(), 0u);
  EXPECT_EQ(system.dead_letters(), 0u);

  // Sanity: with a subscriber the same publish does copy (exactly once into
  // the envelope for the single-subscriber inline path).
  bus.subscribe(topic, system.spawn_as<Recorder>("sub"));
  EXPECT_EQ(bus.publish(topic, value), 1u);
  EXPECT_EQ(CopyCounted::copies.load(), 1);
}

// --- Ticker ---

TEST(Ticker, FiresOncePerPeriodWithCatchUp) {
  Ticker ticker(0, 100);
  EXPECT_EQ(ticker.due(50), 0u);
  EXPECT_EQ(ticker.due(100), 1u);
  EXPECT_EQ(ticker.due(150), 0u);
  EXPECT_EQ(ticker.due(450), 3u);  // Catch-up after a stall.
  EXPECT_EQ(ticker.last_tick(), 400);
  EXPECT_THROW(Ticker(0, 0), std::invalid_argument);
}

// --- Threaded mode ---

TEST(ThreadedActorSystem, ProcessesAllMessages) {
  ActorSystem system(ActorSystem::Mode::kThreaded, 3);
  class Counting final : public Actor {
   public:
    void receive(Envelope&) override { count.fetch_add(1, std::memory_order_relaxed); }
    std::atomic<int> count{0};
  };
  auto owned = std::make_unique<Counting>();
  Counting* actor = owned.get();
  const auto ref = system.spawn("counting", std::move(owned));

  constexpr int kMessages = 20000;
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&ref] {
      for (int i = 0; i < kMessages / 4; ++i) ref.tell(i);
    });
  }
  for (auto& s : senders) s.join();
  system.await_idle();
  EXPECT_EQ(actor->count.load(), kMessages);
  system.shutdown();
}

TEST(ThreadedActorSystem, SingleThreadedReceiveGuarantee) {
  ActorSystem system(ActorSystem::Mode::kThreaded, 4);
  class Exclusive final : public Actor {
   public:
    void receive(Envelope&) override {
      const bool was_busy = busy.exchange(true);
      EXPECT_FALSE(was_busy);  // No concurrent receive for the same actor.
      int spin = 0;
      for (int i = 0; i < 50; ++i) spin += i;
      benchmark_sink += spin;
      busy.store(false);
      ++handled;
    }
    std::atomic<bool> busy{false};
    int handled = 0;  // Safe: only touched inside receive.
    int benchmark_sink = 0;
  };
  auto owned = std::make_unique<Exclusive>();
  Exclusive* actor = owned.get();
  const auto ref = system.spawn("exclusive", std::move(owned));
  std::vector<std::thread> senders;
  for (int t = 0; t < 4; ++t) {
    senders.emplace_back([&ref] {
      for (int i = 0; i < 2000; ++i) ref.tell(i);
    });
  }
  for (auto& s : senders) s.join();
  system.await_idle();
  EXPECT_EQ(actor->handled, 8000);
  system.shutdown();
}

TEST(ThreadedActorSystem, ModeGuards) {
  ActorSystem manual(ActorSystem::Mode::kManual);
  EXPECT_THROW(manual.await_idle(), std::logic_error);
  ActorSystem threaded(ActorSystem::Mode::kThreaded, 1);
  EXPECT_THROW(threaded.drain(), std::logic_error);
  threaded.shutdown();
  EXPECT_THROW(ActorSystem(ActorSystem::Mode::kThreaded, 0), std::invalid_argument);
}

TEST(ActorSystem, ShutdownIsIdempotentAndStopsActors) {
  ActorSystem system(ActorSystem::Mode::kManual);
  auto owned = std::make_unique<Flaky>(SupervisionDirective::kResume);
  Flaky* actor = owned.get();
  system.spawn("f", std::move(owned));
  system.shutdown();
  system.shutdown();
  EXPECT_EQ(actor->stops, 1);
}

}  // namespace
}  // namespace powerapi::actors
