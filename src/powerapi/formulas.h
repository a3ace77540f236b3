// Formula actors: turn SensorBatches into EstimateBatches — one message
// shape in, one out.
//
// Each formula publishes on the "power:estimate" topic of its pipeline's
// namespace; the builder interns the topic and injects the id.
#pragma once

#include <memory>

#include "actors/actor.h"
#include "actors/event_bus.h"
#include "baselines/cpuload_model.h"
#include "baselines/estimator.h"
#include "model/model_registry.h"
#include "model/power_model.h"
#include "periph/disk.h"
#include "periph/nic.h"
#include "powerapi/messages.h"
#include "powerapi/stage_obs.h"

namespace powerapi::api {

/// The paper's formula: per-frequency linear regression over HPC rates.
/// Machine-scope rows get idle + activity; process rows get activity only
/// (the paper attributes the idle floor to the machine, not to any
/// process).
///
/// The formula does not own a model copy: it reads the registry's current
/// snapshot per batch through its own pin (ModelRegistry::refresh), so a
/// CalibrationActor refit (or any other registry.publish) takes effect on
/// the very next estimate, and a fleet's formulas can all share one
/// registry without writing to it. Every estimate carries the snapshot
/// version that produced it.
class RegressionFormula final : public actors::Actor {
 public:
  RegressionFormula(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                    std::shared_ptr<const model::ModelRegistry> registry,
                    obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<const model::ModelRegistry> registry_;
  /// receive()'s pin on the deployed snapshot (ModelRegistry::refresh).
  std::shared_ptr<const model::ModelRegistry::Snapshot> pinned_;
  StageObs stage_;
};

/// Adapter formula around any baseline MachinePowerEstimator (CPU-load,
/// Bertran, HAPPY). Machine scope only — these models are machine models —
/// so it publishes over a 1-row matrix holding the HPC batch's machine row.
class EstimatorFormula final : public actors::Actor {
 public:
  EstimatorFormula(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
                   std::shared_ptr<const baselines::MachinePowerEstimator> estimator,
                   obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::shared_ptr<const baselines::MachinePowerEstimator> estimator_;
  StageObs stage_;
};

/// Datasheet-based IO power formula: unlike CPU cores, disk and NIC power
/// characteristics are published by their vendors, so the component model
/// needs no regression — base power plus per-op and per-byte energies from
/// the device parameters. Consumes SensorKind::kIo batches, emits
/// "io-datasheet" estimates of the peripheral power share over the same
/// rows.
class IoFormula final : public actors::Actor {
 public:
  IoFormula(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
            periph::DiskParams disk, periph::NicParams nic,
            obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  periph::DiskParams disk_;
  periph::NicParams nic_;
  StageObs stage_;
};

/// Pass-through formula for direct meters (PowerSpy, RAPL): the
/// measured-watts lane IS the estimate — with the meter's scope limitation
/// (wall or package, machine-wide).
class MeterFormula final : public actors::Actor {
 public:
  MeterFormula(actors::EventBus& bus, actors::EventBus::TopicId out_topic,
               std::string formula_name, obs::Observability* obs = nullptr);

  void receive(actors::Envelope& envelope) override;

 private:
  actors::EventBus* bus_;
  actors::EventBus::TopicId out_topic_;
  std::string formula_name_;
  StageObs stage_;
};

}  // namespace powerapi::api
