// Tests for the actor runtime: drain determinism, supervision, dead letters,
// the event bus and tickers.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
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
  ActorSystem system;
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
  ActorSystem system;
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
  ActorSystem system;
  ActorRef bogus(&system, 999);
  bogus.tell(1);
  EXPECT_EQ(system.dead_letters(), 1u);
  ActorRef invalid;
  invalid.tell(2);  // No system: silently ignored, no crash.
  EXPECT_EQ(system.messages_processed(), 0u);
}

TEST(ActorSystem, StopDrainsRemainingToDeadLetters) {
  ActorSystem system;
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
  ActorSystem system;
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
  ActorSystem system;
  const auto ref = system.spawn("r", std::make_unique<Recorder>());
  for (int i = 0; i < 10; ++i) ref.tell(i);
  EXPECT_EQ(system.drain(3), 3u);
  EXPECT_EQ(system.drain(), 7u);
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
  ActorSystem system;
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
  ActorSystem system;
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
  ActorSystem system;
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
  ActorSystem system;
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
  ActorSystem system;
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

TEST(ActorSystem, ModeShimsAreDrainOnly) {
  // Mode, mode() and await_idle() survive only as shims for the end-to-end
  // benchmark: a threaded system no longer exists, and await_idle() drains.
  EXPECT_THROW(ActorSystem(ActorSystem::Mode::kThreaded), std::invalid_argument);
  ActorSystem system(ActorSystem::Mode::kManual);
  EXPECT_EQ(system.mode(), ActorSystem::Mode::kManual);
  auto owned = std::make_unique<Recorder>();
  Recorder* recorder = owned.get();
  const auto ref = system.spawn("r", std::move(owned));
  for (int i = 0; i < 3; ++i) ref.tell(i);
  system.await_idle();
  EXPECT_EQ(recorder->values, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(system.messages_processed(), 3u);
}

TEST(ActorSystem, ShutdownIsIdempotentAndStopsActors) {
  ActorSystem system;
  auto owned = std::make_unique<Flaky>(SupervisionDirective::kResume);
  Flaky* actor = owned.get();
  system.spawn("f", std::move(owned));
  system.shutdown();
  system.shutdown();
  EXPECT_EQ(actor->stops, 1);
}

}  // namespace
}  // namespace powerapi::actors
