// Actor base class.
//
// The paper's architecture (Figure 2) wires Sensor, Formula, Aggregator and
// Reporter components as actors. Here those hops, and the control plane,
// are plain calls (powerapi/pipeline.h, governor/governor.h); what is left
// are bus subscribers: a sink spawned on "fleet/power:aggregated", a
// collector-side reporter behind a BusBridge, and the end-to-end
// benchmark's governor shim. This base class provides the single-threaded
// receive guarantee and a stop hook. An exception thrown by receive()
// propagates out of ActorSystem::drain(), as one thrown by a directly
// called stage propagates out of the call.
#pragma once

#include <string>

#include "actors/message.h"

namespace powerapi::actors {

class Actor {
 public:
  virtual ~Actor() = default;

  /// Handles one message. Must only be called by the actor system's drain
  /// (one thread drains at a time, so the same actor never receives
  /// concurrently).
  virtual void receive(Envelope& envelope) = 0;

  /// Runs once, when the actor is stopped (by stop() or at shutdown).
  virtual void post_stop() {}

  /// Set by the system at spawn time.
  ActorRef self() const noexcept { return self_; }
  const std::string& name() const noexcept { return name_; }

 private:
  friend class ActorSystem;
  ActorRef self_;
  std::string name_;
};

}  // namespace powerapi::actors
