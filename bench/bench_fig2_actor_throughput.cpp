// Experiment F2 — Figure 2 of the paper: the actor architecture. The paper
// claims an actor "can handle millions of messages per second ... a key
// property for supporting real-time power estimations". This google-benchmark
// binary measures the runtime's message throughput: single-actor drain, an
// actor chain shaped like Figure 2, event-bus fan-out (the hop that remains
// an actor hop: aggregated rows to bus-subscribed sinks and governor
// relays), and per-thread dispatch (threads each draining a system of their
// own).
#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <vector>

#include "actors/actor_system.h"
#include "actors/event_bus.h"
#include "gbench_json.h"

using namespace powerapi;

namespace {

/// Counts received messages; optionally forwards to a next stage.
class CountingActor final : public actors::Actor {
 public:
  explicit CountingActor(actors::ActorRef next = {}) : next_(next) {}

  void receive(actors::Envelope& envelope) override {
    count_.fetch_add(1, std::memory_order_relaxed);
    if (next_.valid()) next_.tell(envelope.payload, self());
  }

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }

 private:
  actors::ActorRef next_;
  std::atomic<std::uint64_t> count_{0};
};

void BM_ManualDrainSingleActor(benchmark::State& state) {
  actors::ActorSystem system;
  const auto actor = system.spawn_as<CountingActor>("sink");
  const std::int64_t batch = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) actor.tell(i);
    system.drain();
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ManualDrainSingleActor)->Arg(1024)->Arg(16384);

void BM_ManualPipelineChain(benchmark::State& state) {
  // Sensor -> Formula -> Aggregator -> Reporter chain, as in Figure 2 (a
  // host's Pipeline makes these hops plain calls; this is the actor cost
  // they would have).
  actors::ActorSystem system;
  const auto reporter = system.spawn_as<CountingActor>("reporter");
  const auto aggregator = system.spawn_as<CountingActor>("aggregator", reporter);
  const auto formula = system.spawn_as<CountingActor>("formula", aggregator);
  const auto sensor = system.spawn_as<CountingActor>("sensor", formula);
  const std::int64_t batch = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) sensor.tell(i);
    system.drain();
  }
  // Each injected message traverses 4 actors.
  state.SetItemsProcessed(state.iterations() * batch * 4);
}
BENCHMARK(BM_ManualPipelineChain)->Arg(4096);

void BM_EventBusFanout(benchmark::State& state) {
  actors::ActorSystem system;
  actors::EventBus bus(system);
  const std::int64_t subscribers = state.range(0);
  for (std::int64_t i = 0; i < subscribers; ++i) {
    bus.subscribe("power:aggregated", system.spawn_as<CountingActor>("sub"));
  }
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) bus.publish("power:aggregated", i);
    system.drain();
  }
  state.SetItemsProcessed(state.iterations() * 256 * subscribers);
}
BENCHMARK(BM_EventBusFanout)->Arg(1)->Arg(8)->Arg(64);

void BM_EventBusFanoutFatPayload(benchmark::State& state) {
  // Fan-out of a payload too big for inline storage (a 2 KiB sample vector,
  // the size of a many-target feature matrix): the bus materializes it once
  // per publish and shares it by refcount, so per-subscriber cost is a
  // pointer copy instead of a deep copy. Publishes by interned TopicId, as
  // the pipeline does.
  actors::ActorSystem system;
  actors::EventBus bus(system);
  const auto topic = bus.intern("burst");
  const std::int64_t subscribers = state.range(0);
  for (std::int64_t i = 0; i < subscribers; ++i) {
    bus.subscribe(topic, system.spawn_as<CountingActor>("sub"));
  }
  const std::vector<double> samples(256, 1.5);
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) bus.publish(topic, samples);
    system.drain();
  }
  state.SetItemsProcessed(state.iterations() * 256 * subscribers);
}
BENCHMARK(BM_EventBusFanoutFatPayload)->Arg(1)->Arg(8)->Arg(64);

// Per-thread dispatch: each benchmark thread owns an actor system of 8
// actors, tells a batch into it and drain()s it — parallel threads that
// share no actor state. Setup builds the systems before the threads start.
constexpr int kActorsPerSlice = 8;
std::vector<std::unique_ptr<actors::ActorSystem>> g_slice_systems;
std::vector<std::vector<actors::ActorRef>> g_slice_actors;

void SetupSlices(const benchmark::State& state) {
  const auto threads = static_cast<std::size_t>(state.threads());
  g_slice_systems.clear();
  g_slice_actors.assign(threads, {});
  for (std::size_t t = 0; t < threads; ++t) {
    g_slice_systems.push_back(std::make_unique<actors::ActorSystem>());
    for (int i = 0; i < kActorsPerSlice; ++i) {
      g_slice_actors[t].push_back(g_slice_systems[t]->spawn_as<CountingActor>("slice"));
    }
  }
}

void TeardownSlices(const benchmark::State&) {
  g_slice_actors.clear();
  g_slice_systems.clear();
}

void BM_HostSliceDispatch(benchmark::State& state) {
  const auto index = static_cast<std::size_t>(state.thread_index());
  const auto& slice = g_slice_actors[index];
  actors::ActorSystem& system = *g_slice_systems[index];
  const std::int64_t batch = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) {
      slice[static_cast<std::size_t>(i) % slice.size()].tell(i);
    }
    benchmark::DoNotOptimize(system.drain());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
// Wall time: the rate is the threads' combined throughput, which
// per-thread CPU time would not show. 64 messages is a few host-ticks'
// worth; 8192 is a backlog far deeper than any workload's (a collector's
// mailbox peaks at 512).
BENCHMARK(BM_HostSliceDispatch)
    ->Arg(64)
    ->Arg(8192)
    ->ThreadRange(1, 4)
    ->UseRealTime()
    ->Setup(SetupSlices)
    ->Teardown(TeardownSlices);

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "fig2");
}
