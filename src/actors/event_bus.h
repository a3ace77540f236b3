// Topic-based publish/subscribe event bus.
//
// The paper's architecture routes SensorMessages and PowerEstimations over
// an event bus with topic classification (Akka's EventBus). Here a host's
// pipeline calls its stages directly and uses the bus only at its edges:
// ticks ("h0/tick") and aggregated rows ("h0/power:aggregated") for
// whoever subscribes, plus fleet and collector topics
// ("fleet/power:aggregated", "remote/power:aggregated").
//
// Hot-path design: topic strings are interned to dense integer TopicIds at
// subscribe time (one string lookup ever, integer indexing per publish).
// Topics live in a chunked table that is never reallocated, and each holds
// an immutable subscriber list behind an atomic pointer, so a publish takes
// no bus lock and writes no shared cache line: two acquire loads find the
// list, then one tell per subscriber. Subscribe and
// unsubscribe (rare, assembly-time) swap in a fresh list under the writer
// mutex and keep the old one alive until the bus dies, so a publisher still
// walking it never sees it freed. Publishing to a topic with no subscribers
// constructs and copies nothing — but it IS counted: a zero-subscriber
// publish is a dead letter (a typo'd topic silently eats the whole pipeline
// downstream of it), tallied always and warned about at a rate-limited
// cadence.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "actors/actor_system.h"
#include "actors/message.h"
#include "obs/observability.h"

namespace powerapi::actors {

class EventBus {
 public:
  /// Dense handle for an interned topic string.
  using TopicId = std::uint32_t;
  static constexpr TopicId kNoTopic = std::numeric_limits<TopicId>::max();

  explicit EventBus(ActorSystem& system) : system_(&system) {}
  ~EventBus();

  /// Attaches an observability bundle (non-owning; must outlive the bus):
  /// registers a snapshot collector exposing per-topic publish/drop counts
  /// ("bus.topic.<name>.publishes" / ".drops") and "bus.dead_letters", and
  /// turns on per-publish counting. Call before concurrent use.
  void set_observability(obs::Observability* obs);

  /// Publishes that reached zero subscribers (counted with or without an
  /// observability bundle attached).
  std::uint64_t dead_letter_count() const noexcept {
    return dead_letters_.load(std::memory_order_relaxed);
  }

  /// Returns the id for `topic`, interning it on first use. Components
  /// call this once (typically at construction) and publish by id.
  TopicId intern(std::string_view topic);

  /// Id lookup without interning; kNoTopic when the topic was never seen.
  TopicId find(std::string_view topic) const;

  void subscribe(std::string_view topic, ActorRef subscriber);
  void subscribe(TopicId topic, ActorRef subscriber);
  void unsubscribe(std::string_view topic, ActorRef subscriber);
  void unsubscribe(TopicId topic, ActorRef subscriber);

  /// Delivers `payload` to every subscriber of `topic`: the payload is
  /// materialized once and shared by refcount across deliveries. Returns
  /// the number of actors notified. With zero subscribers the payload is
  /// never constructed.
  template <typename T>
  std::size_t publish(TopicId topic, T&& payload, ActorRef sender = {}) {
    const SubscriberList* subs = subscribers(topic);
    const std::size_t n = deliver(subs, std::forward<T>(payload), sender);
    // record_publish is off the delivered fast path: it is only entered for
    // dead letters or when observability is attached AND enabled, so a
    // dormant bundle costs one relaxed load + one branch per publish.
    if (n == 0 || observing()) {
      record_publish(topic, n);
    }
    return n;
  }

  /// String-topic convenience overload (cold paths and tests). An unknown
  /// topic is the zero-subscriber fast path: nothing is constructed, but the
  /// dead letter is still counted (the topic is interned to track it).
  template <typename T>
  std::size_t publish(std::string_view topic, T&& payload, ActorRef sender = {}) {
    const SubscriberList* subs = subscribers(find(topic));
    const std::size_t n = deliver(subs, std::forward<T>(payload), sender);
    if (n == 0 || observing()) {
      record_publish(intern(topic), n);
    }
    return n;
  }

  std::size_t subscriber_count(std::string_view topic) const;
  std::size_t subscriber_count(TopicId topic) const;

 private:
  using SubscriberList = std::vector<ActorRef>;

  /// One interned topic. `subscribers` stays null until the topic is
  /// interned (it doubles as the "interned" flag: `name` is written before
  /// it is published), then always points at an immutable list.
  struct Topic {
    std::atomic<const SubscriberList*> subscribers{nullptr};
    std::string name;
    std::atomic<std::uint64_t> publishes{0};
    std::atomic<std::uint64_t> drops{0};
  };

  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkBits;  // 256
  static constexpr std::size_t kMaxChunks = 4096;  // ~1M topics per bus.

  struct TopicChunk {
    std::array<Topic, kChunkSize> topics;
  };

  // Lock-free lookups; null for an id that was never interned.
  TopicChunk* chunk_of(TopicId id) const noexcept {
    const std::size_t index = id >> kChunkBits;
    return index < kMaxChunks ? chunks_[index].load(std::memory_order_acquire) : nullptr;
  }
  const SubscriberList* subscribers(TopicId id) const noexcept {
    const TopicChunk* chunk = chunk_of(id);
    if (chunk == nullptr) return nullptr;
    return chunk->topics[id & (kChunkSize - 1)].subscribers.load(std::memory_order_acquire);
  }
  Topic* topic_at(TopicId id) const noexcept;
  TopicId intern_locked(std::string_view topic);
  void subscribe_locked(TopicId topic, ActorRef subscriber);
  /// Publishes `next` as the topic's list; the old list stays alive.
  void replace_subscribers_locked(Topic& topic, SubscriberList next);
  void record_publish(TopicId topic, std::size_t delivered);

  /// True when an observability bundle is attached and currently enabled.
  bool observing() const noexcept {
    const auto* obs = obs_.load(std::memory_order_relaxed);
    return obs != nullptr && obs->enabled();
  }

  /// A single subscriber gets the payload inline (no refcount allocation).
  /// Fan-out of a value that fits std::any's inline storage — a scalar, or
  /// a one-pointer handle such as api::RowBatch — is copied per delivery,
  /// allocation-free. Larger values are materialized once and shared by
  /// refcount across deliveries.
  template <typename T>
  std::size_t deliver(const SubscriberList* subs, T&& payload, ActorRef sender) {
    using Value = std::decay_t<T>;
    if (!subs || subs->empty()) return 0;
    if (subs->size() == 1) {
      system_->tell(subs->front(), Payload(std::forward<T>(payload)), sender);
      return 1;
    }
    if constexpr (std::is_nothrow_move_constructible_v<Value> &&
                  sizeof(Value) <= sizeof(void*) && alignof(Value) <= alignof(void*)) {
      const Value& value = payload;
      for (const auto& ref : *subs) {
        system_->tell(ref, Payload(value), sender);
      }
    } else {
      const Payload shared = Payload::shared(std::forward<T>(payload));
      for (const auto& ref : *subs) {
        system_->tell(ref, shared, sender);
      }
    }
    return subs->size();
  }

  ActorSystem* system_;
  std::atomic<obs::Observability*> obs_{nullptr};
  std::uint64_t obs_collector_ = 0;
  std::atomic<std::uint64_t> dead_letters_{0};
  std::array<std::atomic<TopicChunk*>, kMaxChunks> chunks_{};
  /// Guards interning, subscription changes and the fields below; never
  /// taken by a publish by id.
  mutable std::mutex mutex_;
  std::map<std::string, TopicId, std::less<>> ids_;
  /// Every subscriber list ever published, freed with the bus.
  std::vector<std::unique_ptr<const SubscriberList>> lists_;
};

}  // namespace powerapi::actors
