#include "model/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mathx/ols.h"
#include "os/system.h"
#include "powermeter/powerspy.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"

namespace powerapi::model {

namespace {

/// Builds a hermetic system with the standard background daemon running.
std::unique_ptr<os::System> make_system(const simcpu::CpuSpec& spec,
                                        const simcpu::GroundTruthParams& gt,
                                        util::Rng& rng) {
  os::System::Options options;
  options.tick_ns = util::ms_to_ns(1);
  auto system = std::make_unique<os::System>(spec, std::move(options), gt);
  system->spawn("kdaemon", workloads::make_background_daemon(rng.fork(7)));
  return system;
}

powermeter::PowerSpy make_meter(const os::System& system, util::Rng rng) {
  return powermeter::PowerSpy(
      [&system] { return system.total_energy_joules(); },
      [&system] { return system.now_ns(); }, std::move(rng));
}

/// Runs job(0) .. job(count - 1) on min(hardware threads, count) threads,
/// the caller being one of them, and returns once all have finished. If
/// any job throws, the exception of the lowest-numbered one is rethrown.
void run_jobs(std::size_t count, const std::function<void(std::size_t)>& job) {
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  const auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        job(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t threads =
      std::min<std::size_t>(std::max(1u, std::thread::hardware_concurrency()), count);
  std::vector<std::thread> helpers;
  helpers.reserve(threads);
  for (std::size_t t = 1; t < threads; ++t) helpers.emplace_back(worker);
  worker();
  for (std::thread& helper : helpers) helper.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

TrainerOptions paper_trainer_options() {
  TrainerOptions options;
  // The paper's sampling phase runs "CPU and memory intensive workloads"
  // flat out — two workload kinds, no duty-cycle or mix sweep. The narrow
  // grid under-identifies the formula exactly the way the paper's
  // conclusion concedes ("only considering the generic counters is not
  // necessarily the most reliable solution, leading to high errors").
  options.grid.intensities = {1.0};
  options.grid.memory_shares = {0.0, 1.0};
  options.grid.working_sets = {2.0 * 1024 * 1024, 24.0 * 1024 * 1024};
  options.events.assign(hpc::paper_events().begin(), hpc::paper_events().end());
  return options;
}

Trainer::Trainer(simcpu::CpuSpec spec, simcpu::GroundTruthParams ground_truth,
                 TrainerOptions options)
    : spec_(std::move(spec)), ground_truth_(ground_truth), options_(std::move(options)) {
  spec_.validate();
  if (options_.sample_period <= 0 || options_.point_duration <= 0) {
    throw std::invalid_argument("Trainer: non-positive sampling windows");
  }
}

double Trainer::measure_idle() const {
  util::Rng rng(options_.seed ^ 0x1d1eULL);
  auto system = make_system(spec_, ground_truth_, rng);
  system->pin_frequency(spec_.min_frequency_hz());
  auto meter = make_meter(*system, rng.fork(1));

  // Let C-states settle before measuring.
  system->run_for(util::seconds_to_ns(1));
  meter.sample();

  util::RunningStats stats;
  for (util::DurationNs t = 0; t < options_.idle_duration; t += options_.sample_period) {
    system->run_for(options_.sample_period);
    if (const auto s = meter.sample()) stats.add(s->watts);
  }
  if (stats.count() == 0) throw std::runtime_error("Trainer: no idle samples collected");
  POWERAPI_LOG_INFO("trainer") << "idle floor: " << stats.mean() << " W over "
                               << stats.count() << " samples";
  return stats.mean();
}

std::vector<TrainingSample> Trainer::sample_frequency(double hz) const {
  util::Rng rng(options_.seed ^ static_cast<std::uint64_t>(hz / 1e6));
  auto system = make_system(spec_, ground_truth_, rng);
  const double pinned = system->pin_frequency(hz);
  auto meter = make_meter(*system, rng.fork(2));

  const auto grid = workloads::make_stress_grid(options_.grid);
  std::vector<TrainingSample> samples;

  for (const auto& point : grid) {
    const util::DurationNs lifetime =
        options_.settle + options_.point_duration + util::ms_to_ns(100);
    const os::Pid pid = system->spawn(point.name, workloads::materialize(point, lifetime));

    system->run_for(options_.settle);
    meter.sample();  // Open the integration window.
    hpc::EventValues prev =
        hpc::EventValues::from_block(system->machine().machine_counters());
    std::uint64_t prev_smt = system->machine().machine_counters().smt_shared_cycles;
    util::TimestampNs prev_time = system->now_ns();

    for (util::DurationNs t = 0; t < options_.point_duration; t += options_.sample_period) {
      system->run_for(options_.sample_period);
      const auto s = meter.sample();
      const hpc::EventValues cur =
          hpc::EventValues::from_block(system->machine().machine_counters());
      const std::uint64_t cur_smt = system->machine().machine_counters().smt_shared_cycles;
      const util::TimestampNs now = system->now_ns();
      if (s && now > prev_time) {
        const double window_s = util::ns_to_seconds(now - prev_time);
        TrainingSample sample;
        // Record the OBSERVED frequency: with TurboBoost the machine may
        // have run above the pinned nominal maximum, and those samples must
        // land in the turbo bin's formula (the paper: "including the
        // TurboBoost ones when available").
        static_cast<FeatureVector&>(sample) = extract_features(
            cur.delta_since(prev), cur_smt - prev_smt, window_s,
            system->machine().last_effective_frequency_hz());
        sample.watts = s->watts;
        // CPU load over the window, derived exactly as top(1) would: busy
        // cycles divided by available cycles (at the PINNED frequency).
        sample.utilization = machine_utilization(sample.rates, pinned, spec_.hw_threads());
        samples.push_back(sample);
      }
      prev = cur;
      prev_smt = cur_smt;
      prev_time = now;
    }
    system->kill(pid);
    system->run_for(util::ms_to_ns(50));  // Drain before the next cell.
  }
  POWERAPI_LOG_INFO("trainer") << "sampled " << samples.size() << " windows at "
                               << util::hz_to_ghz(pinned) << " GHz";
  return samples;
}

SampleSet Trainer::collect() const {
  // Sweep every pinnable (nominal) frequency, but bucket each sample by the
  // frequency it was OBSERVED at — identical when turbo is absent, and the
  // only way to learn turbo-bin formulas when it is present.
  const std::vector<double> all = spec_.all_frequencies_hz();
  SampleSet set;
  set.frequencies_hz = all;
  set.by_frequency.resize(all.size());

  // The idle floor and each ladder point are independent jobs (each builds
  // its own System and Rng), so they run on up to one thread per core, the
  // caller included. Job 0 is the idle floor, job i the i-th ladder point.
  const std::vector<double>& ladder = spec_.frequencies_hz;
  std::vector<std::vector<TrainingSample>> sampled(ladder.size());
  run_jobs(ladder.size() + 1, [&](std::size_t job) {
    if (job == 0) {
      set.idle_watts = measure_idle();
    } else {
      sampled[job - 1] = sample_frequency(ladder[job - 1]);
    }
  });

  auto bucket_of = [&all](double hz) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < all.size(); ++i) {
      if (std::abs(all[i] - hz) < std::abs(all[best] - hz)) best = i;
    }
    return best;
  };

  // Merged in ladder order, as a serial sweep would have produced them.
  for (auto& samples : sampled) {
    for (auto& sample : samples) {
      set.by_frequency[bucket_of(sample.frequency_hz)].push_back(std::move(sample));
    }
  }

  // Drop bins too thin to regress (e.g. turbo bins the workload mix never
  // reached). fit() still validates events + 2 samples per surviving bin
  // and fails loudly, so this threshold only prunes clearly hopeless bins.
  const std::size_t min_samples = 6;
  for (std::size_t i = set.frequencies_hz.size(); i-- > 0;) {
    if (set.by_frequency[i].size() < min_samples) {
      POWERAPI_LOG_WARN("trainer")
          << "dropping frequency bin " << util::hz_to_ghz(set.frequencies_hz[i])
          << " GHz: only " << set.by_frequency[i].size() << " samples";
      set.frequencies_hz.erase(set.frequencies_hz.begin() + static_cast<std::ptrdiff_t>(i));
      set.by_frequency.erase(set.by_frequency.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  return set;
}

TrainingResult Trainer::fit(const SampleSet& samples) const {
  if (samples.by_frequency.empty()) throw std::invalid_argument("Trainer::fit: empty samples");

  // --- Choose the event set ---
  std::vector<hpc::EventId> events = options_.events;
  if (options_.auto_select_events) {
    // Pool samples across frequencies; correlate every generic event's rate
    // with the activity power (watts above idle).
    mathx::Matrix pooled;
    std::vector<double> pooled_target;
    std::vector<std::string> names;
    for (hpc::EventId id : hpc::all_events()) names.emplace_back(hpc::to_string(id));
    for (const auto& batch : samples.by_frequency) {
      for (const auto& s : batch) {
        std::vector<double> row(hpc::kEventCount);
        for (std::size_t e = 0; e < hpc::kEventCount; ++e) row[e] = s.rates[e];
        pooled.append_row(row);
        pooled_target.push_back(s.watts - samples.idle_watts);
      }
    }
    const auto picked =
        mathx::select_features(pooled, pooled_target, names, options_.selection);
    if (picked.empty()) {
      throw std::runtime_error("Trainer::fit: feature selection kept no events");
    }
    events.clear();
    for (const auto& score : picked) {
      events.push_back(static_cast<hpc::EventId>(score.column));
    }
  }
  if (events.empty()) throw std::invalid_argument("Trainer::fit: no events configured");

  // --- Per-frequency regression ---
  TrainingResult result;
  result.samples = samples;
  result.selected_events = events;
  std::vector<FrequencyFormula> formulas;

  for (std::size_t fi = 0; fi < samples.by_frequency.size(); ++fi) {
    const auto& batch = samples.by_frequency[fi];
    if (batch.size() < events.size() + 2) {
      throw std::runtime_error("Trainer::fit: too few samples at frequency index " +
                               std::to_string(fi));
    }
    mathx::Matrix design(batch.size(), events.size());
    std::vector<double> target(batch.size());
    for (std::size_t r = 0; r < batch.size(); ++r) {
      for (std::size_t c = 0; c < events.size(); ++c) {
        design(r, c) = rate_of(batch[r].rates, events[c]);
      }
      target[r] = batch[r].watts - samples.idle_watts;
    }

    const mathx::FitResult fit = options_.non_negative ? mathx::nnls(design, target)
                                                       : mathx::ols(design, target);
    FrequencyFormula formula;
    formula.frequency_hz = samples.frequencies_hz[fi];
    formula.events = events;
    formula.coefficients = fit.coefficients;
    formula.r_squared = fit.r_squared;
    formulas.push_back(formula);

    FitReport report;
    report.frequency_hz = formula.frequency_hz;
    report.samples = batch.size();
    report.r_squared = fit.r_squared;
    report.residual_rmse_watts =
        fit.residual_norm / std::sqrt(static_cast<double>(batch.size()));
    result.reports.push_back(report);
  }

  result.model = CpuPowerModel(samples.idle_watts, std::move(formulas));
  return result;
}

}  // namespace powerapi::model
