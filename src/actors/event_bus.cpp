#include "actors/event_bus.h"

#include <algorithm>
#include <stdexcept>

#include "obs/observability.h"
#include "util/logging.h"

namespace powerapi::actors {

EventBus::~EventBus() {
  obs::Observability* obs = obs_.load(std::memory_order_relaxed);
  if (obs != nullptr && obs_collector_ != 0) {
    obs->metrics.remove_collector(obs_collector_);
  }
  for (auto& chunk : chunks_) delete chunk.load(std::memory_order_relaxed);
}

void EventBus::set_observability(obs::Observability* obs) {
  obs::Observability* previous = obs_.exchange(obs, std::memory_order_relaxed);
  if (previous != nullptr && obs_collector_ != 0) {
    previous->metrics.remove_collector(obs_collector_);
    obs_collector_ = 0;
  }
  if (obs == nullptr) return;
  obs_collector_ = obs->metrics.add_collector([this](obs::SnapshotBuilder& builder) {
    builder.gauge("bus.dead_letters", static_cast<double>(dead_letter_count()));
    std::lock_guard lock(mutex_);
    for (TopicId id = 0; id < ids_.size(); ++id) {
      const Topic& topic = *topic_at(id);
      const std::uint64_t publishes = topic.publishes.load(std::memory_order_relaxed);
      const std::uint64_t drops = topic.drops.load(std::memory_order_relaxed);
      if (publishes == 0 && drops == 0) continue;
      builder.gauge("bus.topic." + topic.name + ".publishes",
                    static_cast<double>(publishes));
      if (drops != 0) {
        builder.gauge("bus.topic." + topic.name + ".drops", static_cast<double>(drops));
      }
    }
  });
}

EventBus::Topic* EventBus::topic_at(TopicId id) const noexcept {
  TopicChunk* chunk = chunk_of(id);
  if (chunk == nullptr) return nullptr;
  Topic& topic = chunk->topics[id & (kChunkSize - 1)];
  if (topic.subscribers.load(std::memory_order_acquire) == nullptr) return nullptr;
  return &topic;
}

void EventBus::record_publish(TopicId id, std::size_t delivered) {
  if (delivered == 0) dead_letters_.fetch_add(1, std::memory_order_relaxed);
  Topic* topic = topic_at(id);
  if (topic == nullptr) return;
  topic->publishes.fetch_add(1, std::memory_order_relaxed);
  if (delivered != 0) return;
  const std::uint64_t drops = topic->drops.fetch_add(1, std::memory_order_relaxed) + 1;
  // Rate-limit the warning: first drop per topic, then every 4096th — a
  // misrouted 1 kHz sensor stream must not melt the log.
  if (drops != 1 && drops % 4096 != 0) return;
  POWERAPI_LOG_WARN("bus") << "publish to topic '" << topic->name
                           << "' reached no subscribers (" << drops
                           << " dead letters)";
}

EventBus::TopicId EventBus::intern_locked(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<TopicId>(ids_.size());
  const std::size_t chunk_index = id >> kChunkBits;
  if (chunk_index >= kMaxChunks) {
    throw std::length_error("EventBus: topic id space exhausted");
  }
  TopicChunk* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new TopicChunk();
    chunks_[chunk_index].store(chunk, std::memory_order_release);
  }
  Topic& topic = chunk->topics[id & (kChunkSize - 1)];
  topic.name = name;
  ids_.emplace(std::string(name), id);
  replace_subscribers_locked(topic, {});  // Publishes the name with the list.
  return id;
}

void EventBus::replace_subscribers_locked(Topic& topic, SubscriberList next) {
  lists_.push_back(std::make_unique<const SubscriberList>(std::move(next)));
  topic.subscribers.store(lists_.back().get(), std::memory_order_release);
}

EventBus::TopicId EventBus::intern(std::string_view topic) {
  std::lock_guard lock(mutex_);
  return intern_locked(topic);
}

EventBus::TopicId EventBus::find(std::string_view topic) const {
  std::lock_guard lock(mutex_);
  const auto it = ids_.find(topic);
  return it == ids_.end() ? kNoTopic : it->second;
}

void EventBus::subscribe(std::string_view topic, ActorRef subscriber) {
  if (!subscriber.valid()) return;
  std::lock_guard lock(mutex_);
  subscribe_locked(intern_locked(topic), subscriber);
}

void EventBus::subscribe(TopicId topic, ActorRef subscriber) {
  if (!subscriber.valid()) return;
  std::lock_guard lock(mutex_);
  subscribe_locked(topic, subscriber);
}

void EventBus::subscribe_locked(TopicId id, ActorRef subscriber) {
  Topic* topic = topic_at(id);
  if (topic == nullptr) return;
  const SubscriberList& current = *topic->subscribers.load(std::memory_order_relaxed);
  if (std::find(current.begin(), current.end(), subscriber) != current.end()) {
    return;  // Duplicate ignored.
  }
  SubscriberList next = current;
  next.push_back(subscriber);
  replace_subscribers_locked(*topic, std::move(next));
}

void EventBus::unsubscribe(std::string_view topic, ActorRef subscriber) {
  unsubscribe(find(topic), subscriber);
}

void EventBus::unsubscribe(TopicId id, ActorRef subscriber) {
  std::lock_guard lock(mutex_);
  Topic* topic = topic_at(id);
  if (topic == nullptr) return;
  const SubscriberList& current = *topic->subscribers.load(std::memory_order_relaxed);
  if (std::find(current.begin(), current.end(), subscriber) == current.end()) return;
  SubscriberList next;
  next.reserve(current.size() - 1);
  for (const auto& ref : current) {
    if (!(ref == subscriber)) next.push_back(ref);
  }
  replace_subscribers_locked(*topic, std::move(next));
}

std::size_t EventBus::subscriber_count(std::string_view topic) const {
  return subscriber_count(find(topic));
}

std::size_t EventBus::subscriber_count(TopicId topic) const {
  const SubscriberList* subs = subscribers(topic);
  return subs == nullptr ? 0 : subs->size();
}

}  // namespace powerapi::actors
