// Actor base class and supervision policy.
//
// The paper's architecture (Figure 2) wires Sensor, Formula, Aggregator and
// Reporter components as actors. Within one host those hops are plain calls
// here (powerapi/pipeline.h); actors remain where a message crosses a
// thread or a process, or fans out to fleet-level consumers: reporters
// spawned on a bus topic and the collector's subscribers behind a
// BusBridge. This base class provides the single-threaded receive
// guarantee, lifecycle hooks and a per-actor supervision directive applied
// by the system when receive throws.
#pragma once

#include <any>
#include <string>

#include "actors/message.h"

namespace powerapi::actors {

enum class SupervisionDirective {
  kResume,   ///< Drop the failing message, keep state, keep going.
  kRestart,  ///< post_stop() + pre_start(): fresh state, mailbox retained.
  kStop,     ///< Remove the actor; remaining messages become dead letters.
};

class Actor {
 public:
  virtual ~Actor() = default;

  /// Handles one message. Must only be called by the actor system's drain
  /// (one thread drains at a time, so the same actor never receives
  /// concurrently).
  virtual void receive(Envelope& envelope) = 0;

  /// Lifecycle hooks.
  virtual void pre_start() {}
  virtual void post_stop() {}

  /// Policy the system applies when receive() throws.
  virtual SupervisionDirective on_failure(const std::exception& /*error*/) {
    return SupervisionDirective::kRestart;
  }

  /// Set by the system at spawn time, before pre_start().
  ActorRef self() const noexcept { return self_; }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class ActorSystem;
  ActorRef self_;
  std::string name_;
};

}  // namespace powerapi::actors
