// Glue between google-benchmark and the BENCH_<name>.json sidecar emitter
// in harness.h: a console reporter that also captures every run, and a
// main() body shared by the micro-benchmark binaries.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"
#include "util/logging.h"

namespace powerapi::benchx {

/// Console output as usual, plus capture of every run for the JSON sidecar.
class JsonTeeReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      // With --benchmark_repetitions=N (N > 1) the sidecar keeps only the
      // median of the N runs, under the benchmark's plain name, so a
      // baseline recorded that way compares key for key with a single run.
      const bool repeated = run.repetitions > 1;
      if (repeated && (run.run_type != Run::RT_Aggregate || run.aggregate_name != "median")) {
        continue;
      }
      BenchMetric metric;
      metric.name = repeated ? run.run_name.str() : run.benchmark_name();
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        metric.value = items->second;
        metric.unit = "items/s";
      } else {
        // In the benchmark's own time unit (->Unit(...), ns by default).
        metric.value = run.GetAdjustedRealTime();
        metric.unit = benchmark::GetTimeUnitString(run.time_unit);
      }
      metric.iterations = static_cast<std::uint64_t>(run.iterations);
      metrics_.push_back(metric);
      // User-defined counters become their own metrics so deterministic
      // quantities (e.g. the governor's joules-per-work delta) can be
      // gated by bench_diff.py alongside the timing numbers.
      for (const auto& [counter_name, counter] : run.counters) {
        if (counter_name == "items_per_second" ||
            counter_name == "bytes_per_second") {
          continue;
        }
        BenchMetric extra;
        extra.name = metric.name + "/" + counter_name;
        extra.value = counter;
        extra.unit = "counter";
        extra.iterations = static_cast<std::uint64_t>(run.iterations);
        metrics_.push_back(std::move(extra));
      }
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<BenchMetric>& metrics() const noexcept { return metrics_; }

 private:
  std::vector<BenchMetric> metrics_;
};

/// Runs the registered benchmarks and writes BENCH_<json_name>.json.
inline int run_benchmarks_with_json(int argc, char** argv, const std::string& json_name) {
  util::configure_logging(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  write_bench_json(json_name, reporter.metrics());
  return 0;
}

}  // namespace powerapi::benchx
