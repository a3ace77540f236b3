// Experiment F2 — Figure 2 of the paper: the actor architecture. The paper
// claims an actor "can handle millions of messages per second ... a key
// property for supporting real-time power estimations". This google-benchmark
// binary measures the runtime's message throughput in the configurations the
// pipeline uses: single-actor drain, pipeline chains, event-bus fan-out, and
// the threaded dispatcher.
#include <benchmark/benchmark.h>

#include <atomic>
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
  actors::ActorSystem system(actors::ActorSystem::Mode::kManual);
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
  // Sensor -> Formula -> Aggregator -> Reporter chain, as in Figure 2.
  actors::ActorSystem system(actors::ActorSystem::Mode::kManual);
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
  actors::ActorSystem system(actors::ActorSystem::Mode::kManual);
  actors::EventBus bus(system);
  const std::int64_t subscribers = state.range(0);
  for (std::int64_t i = 0; i < subscribers; ++i) {
    bus.subscribe("power:estimate", system.spawn_as<CountingActor>("sub"));
  }
  for (auto _ : state) {
    for (int i = 0; i < 256; ++i) bus.publish("power:estimate", i);
    system.drain();
  }
  state.SetItemsProcessed(state.iterations() * 256 * subscribers);
}
BENCHMARK(BM_EventBusFanout)->Arg(1)->Arg(8)->Arg(64);

void BM_EventBusFanoutFatPayload(benchmark::State& state) {
  // Fan-out of a payload too big for inline storage (a 2 KiB sample vector,
  // the size of a many-target SensorBatch matrix): the bus materializes it
  // once per publish and shares it by refcount, so per-subscriber cost is a
  // pointer copy instead of a deep copy. Publishes by interned TopicId, as
  // the pipeline components do.
  actors::ActorSystem system(actors::ActorSystem::Mode::kManual);
  actors::EventBus bus(system);
  const auto topic = bus.intern("sensor:burst");
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

void BM_ThreadedDispatch(benchmark::State& state) {
  actors::ActorSystem system(actors::ActorSystem::Mode::kThreaded, /*workers=*/2);
  std::vector<actors::ActorRef> actors;
  for (int i = 0; i < 8; ++i) actors.push_back(system.spawn_as<CountingActor>("worker"));
  const std::int64_t batch = state.range(0);
  for (auto _ : state) {
    for (std::int64_t i = 0; i < batch; ++i) actors[i % actors.size()].tell(i);
    system.await_idle();
  }
  state.SetItemsProcessed(state.iterations() * batch);
  system.shutdown();
}
// Wall time: the main thread mostly waits in await_idle() while the
// workers run, so its CPU time would overstate the rate several-fold.
BENCHMARK(BM_ThreadedDispatch)->Arg(8192)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  return powerapi::benchx::run_benchmarks_with_json(argc, argv, "fig2");
}
