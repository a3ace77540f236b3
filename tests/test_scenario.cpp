// Tests for the declarative scenario layer: parser diagnostics (every error
// carries file:line and never crashes), the serialize/parse round trip, the
// runner's determinism contract (run-twice bit-identical under kManual,
// threaded == manual per-host series) and a pinned big.LITTLE golden CSV.
//
// Regenerate the golden (only on an intentional semantic change) with:
//   POWERAPI_GOLDEN_REGEN=1 ./test_scenario
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario_parser.h"
#include "scenario/scenario_runner.h"
#include "scenario/scenario_spec.h"

namespace powerapi::scenario {
namespace {

ScenarioSpec parse(const std::string& text) {
  return ScenarioParser::parse_string(text, "test.scenario");
}

/// Asserts parsing fails with a ScenarioError whose message contains every
/// given fragment — in particular the "file:line" prefix.
void expect_error(const std::string& text, const std::vector<std::string>& fragments) {
  try {
    parse(text);
    FAIL() << "expected ScenarioError, parse succeeded";
  } catch (const ScenarioError& e) {
    const std::string what = e.what();
    for (const std::string& fragment : fragments) {
      EXPECT_NE(what.find(fragment), std::string::npos)
          << "missing '" << fragment << "' in: " << what;
    }
  }
}

// --- Parser diagnostics ---

TEST(ScenarioParser, EmptyAndHeaderlessFilesFail) {
  expect_error("", {"test.scenario:1", "empty scenario"});
  expect_error("# only a comment\n", {"test.scenario:1", "empty scenario"});
  expect_error("duration 5s\n", {"test.scenario:1", "scenario must start"});
}

TEST(ScenarioParser, UnknownDirectiveCarriesLine) {
  expect_error("scenario x\nseed 1\nfrobnicate 3\n",
               {"test.scenario:3", "unknown directive 'frobnicate'"});
}

TEST(ScenarioParser, UnknownSectionKeyCarriesLine) {
  expect_error(
      "scenario x\nworkload w\n  kind steady\n  colour blue\nend\n",
      {"test.scenario:4", "unknown workload key 'colour'"});
  expect_error(
      "scenario x\ncpu c custom\n  cores 2\n  turbo on\nend\n",
      {"test.scenario:4", "unknown cpu key 'turbo'"});
}

TEST(ScenarioParser, UnknownKeyValueArgumentRejected) {
  expect_error("scenario x\nmonitor period=250ms flavour=mint\n",
               {"test.scenario:2", "unknown monitor argument 'flavour'"});
  expect_error(
      "scenario x\nworkload w\n  kind steady\n  profile cpu speed=11\nend\n",
      {"test.scenario:4", "unknown profile argument 'speed'"});
}

TEST(ScenarioParser, BadEnumValuesAreDiagnosed) {
  expect_error("scenario x\nworkload w\n  kind sinusoidal\nend\n",
               {"test.scenario:3", "unknown workload kind 'sinusoidal'"});
  expect_error("scenario x\ncpu c pentium4\n",
               {"test.scenario:2", "unknown cpu preset 'pentium4'"});
  expect_error("scenario x\nmonitor dimension=hour\n",
               {"test.scenario:2", "unknown aggregation dimension 'hour'"});
  expect_error("scenario x\nformula magic\n",
               {"test.scenario:2", "unknown formula mode 'magic'"});
}

TEST(ScenarioParser, DuplicateIdsCiteTheFirstDeclaration) {
  expect_error(
      "scenario x\ncpu c i3_2120\nhost a\n  cpu c\nend\nhost a\n  cpu c\nend\n",
      {"test.scenario:6", "duplicate host id 'a'", "line 3"});
  expect_error("scenario x\ncpu c i3_2120\ncpu c i7_2600\n",
               {"test.scenario:3", "duplicate cpu id 'c'", "line 2"});
}

TEST(ScenarioParser, TruncatedSectionNamesTheOpeningLine) {
  expect_error("scenario x\ncpu c i3_2120\nhost a\n  cpu c\n",
               {"unexpected end of file", "opened at line 3", "no 'end'"});
}

TEST(ScenarioParser, MalformedValuesAreDiagnosed) {
  expect_error("scenario x\nduration banana\n", {"test.scenario:2", "bad duration"});
  expect_error("scenario x\nseed -3\n",
               {"test.scenario:2", "non-negative integer"});
  expect_error("scenario x\nmonitor period=0ms\n",
               {"test.scenario:2", "must be positive"});
}

TEST(ScenarioParser, CrossReferencesAreValidated) {
  expect_error("scenario x\nhost a\n  cpu ghost\nend\n",
               {"test.scenario:3", "undeclared cpu 'ghost'"});
  expect_error(
      "scenario x\ncpu c i3_2120\nhost a\n  cpu c\n  run ghost\nend\n",
      {"test.scenario:5", "undeclared workload 'ghost'"});
  expect_error(
      "scenario x\ncpu c i3_2120\nhost a\n  cpu c\nend\n"
      "inject at=1s host=nope frequency=2GHz\n",
      {"test.scenario:6", "unknown host 'nope'"});
  expect_error(
      "scenario x\nduration 5s\ncpu c i3_2120\nhost a\n  cpu c\nend\n"
      "inject at=9s host=a frequency=2GHz\n",
      {"test.scenario:7", "beyond the scenario duration"});
}

TEST(ScenarioParser, SemanticRulesAtEndOfFile) {
  expect_error("scenario x\nseed 1\n", {"declares no hosts"});
  expect_error(
      "scenario x\ncpu c i3_2120\nhost a\n  cpu c\nend\ncalibration on\n",
      {"calibration requires a formula"});
  // Host group "a" count=2 expands to a0/a1, colliding with explicit "a1".
  expect_error(
      "scenario x\ncpu c i3_2120\nhost a\n  count 2\n  cpu c\nend\n"
      "host a1\n  cpu c\nend\n",
      {"expanded host ids collide"});
}

// --- Round trip ---

const char* const kFullScenario = R"(scenario everything
seed 77
duration 2s
tick 1ms

cpu desk i3_2120
cpu soc custom
  cores 4
  threads_per_core 1
  tdp 15
  speedstep on
  c_states off
  ladder 1.0GHz,1.5GHz,2.0GHz
  cluster name=big cores=2 ladder=1.0GHz,1.5GHz,2.0GHz
  cluster name=little cores=2 ladder=0.5GHz,1.0GHz perf=0.6 energy=0.4
end

workload s
  kind steady
  profile mixed intensity=0.8 working_set=4MB share=0.3
  jitter on
  duration 1500ms
end
workload b
  kind bursty
  profile cpu intensity=0.9
  mean_burst 40ms
  mean_gap 90ms
end
workload p
  kind phased
  phase profile=cpu intensity=0.9 duration=200ms
  phase profile=memory working_set=16MB duration=300ms
  loop on
end
workload l
  kind llm
  mean_interarrival 150ms
  working_set 32MB
end
workload d
  kind diurnal
  profile cpu intensity=1.0
  period 2s
  valley 0.2
  peak 0.9
  flash_crowds off
  spread_phase on
end

host fat
  count 2
  cpu desk
  run s copies=2 name=svc
  run b
end
host thin
  cpu soc
  daemon off
  run l
  run d name=edge
end

monitor period=100ms dimension=pid powerspy=on rapl=off all=on
formula fixed idle=30.5 coefficients=2.0e-9,3.0e-8,1.0e-7
calibration on drift_window=8 threshold=1.5 min_samples=10 refit_interval=2s
fleet aggregation=on workers=3
inject at=500ms host=fat0 frequency=2.0GHz
inject at=800ms host=thin spawn=b name=extra
inject at=1200ms host=thin kill=extra
inject at=1500ms host=all shift=svc:b
)";

TEST(ScenarioRoundTrip, SerializeParseIsIdentity) {
  const ScenarioSpec spec = parse(kFullScenario);
  EXPECT_EQ(spec.expanded_host_ids(),
            (std::vector<std::string>{"fat0", "fat1", "thin"}));
  const std::string text = serialize(spec);
  const ScenarioSpec reparsed = ScenarioParser::parse_string(text, "roundtrip");
  EXPECT_EQ(spec, reparsed);
  // And serialization is a fixed point.
  EXPECT_EQ(text, serialize(reparsed));
}

TEST(ScenarioRoundTrip, EveryCommittedScenarioRoundTrips) {
  std::size_t seen = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(POWERAPI_SCENARIO_DIR)) {
    if (entry.path().extension() != ".scenario") continue;
    ++seen;
    SCOPED_TRACE(entry.path().string());
    const ScenarioSpec spec = ScenarioParser::parse_file(entry.path().string());
    const ScenarioSpec reparsed =
        ScenarioParser::parse_string(serialize(spec), entry.path().string());
    EXPECT_EQ(spec, reparsed);
    EXPECT_FALSE(spec.expanded_host_ids().empty());
  }
  EXPECT_GE(seen, 6u) << "committed scenario zoo went missing";
}

// --- Runner determinism ---

/// A small fleet with a big.LITTLE part, injections and a fixed formula —
/// everything deterministic, sized to run in well under a second of wall
/// time.
const char* const kRunnerScenario = R"(scenario runner_unit
seed 9
duration 600ms
tick 1ms
cpu desk i3_2120
cpu mob big_little
workload w
  kind bursty
  profile mixed intensity=0.8 working_set=6MB share=0.4
  mean_burst 30ms
  mean_gap 50ms
end
workload llm
  kind llm
  mean_interarrival 80ms
  mean_prefill 20ms
  mean_decode 60ms
end
host a
  count 2
  cpu desk
  run w copies=2 name=app
end
host m
  cpu mob
  run llm name=serve
end
monitor period=25ms dimension=timestamp
formula fixed idle=31.0 coefficients=2.2e-9,2.5e-8,1.9e-7
fleet aggregation=on workers=3
inject at=200ms host=a0 frequency=1.6GHz
inject at=300ms host=m spawn=w name=extra
inject at=450ms host=m kill=extra
)";

std::string run_to_csv(actors::ActorSystem::Mode mode,
                       const char* scenario = kRunnerScenario) {
  ScenarioRunner runner(parse(scenario));
  RunOptions options;
  options.mode = mode;
  const RunResult result = runner.run(options);
  std::ostringstream out;
  write_csv(out, result);
  return out.str();
}

TEST(ScenarioRunner, ManualModeIsBitIdenticalAcrossRuns) {
  const std::string first = run_to_csv(actors::ActorSystem::Mode::kManual);
  const std::string second = run_to_csv(actors::ActorSystem::Mode::kManual);
  ASSERT_GT(first.size(), 500u);
  EXPECT_EQ(first, second);
}

/// Runs `scenario` under kManual and threaded and requires every host's
/// per-formula series to agree bit for bit.
void expect_threaded_matches_manual(const char* scenario) {
  ScenarioRunner manual(parse(scenario));
  ScenarioRunner threaded(parse(scenario));
  RunOptions mo;
  mo.mode = actors::ActorSystem::Mode::kManual;
  RunOptions to;
  to.mode = actors::ActorSystem::Mode::kThreaded;
  const RunResult a = manual.run(mo);
  const RunResult b = threaded.run(to);
  // Per-host, per-formula series are single-writer and must agree
  // bit-for-bit. Threading may interleave the two formula streams'
  // arrival order within a host, and the fleet dimension sums in
  // host-arrival order, so both are normalized/excluded (same contract as
  // the fleet golden tests).
  auto by_formula = [](const std::vector<api::AggregatedPower>& rows,
                       const std::string& formula) {
    std::vector<api::AggregatedPower> out;
    for (const auto& row : rows) {
      if (row.formula == formula) out.push_back(row);
    }
    return out;
  };
  ASSERT_EQ(a.hosts.size(), b.hosts.size());
  for (std::size_t h = 0; h < a.hosts.size(); ++h) {
    SCOPED_TRACE(a.hosts[h].id);
    EXPECT_EQ(a.hosts[h].id, b.hosts[h].id);
    ASSERT_EQ(a.hosts[h].rows.size(), b.hosts[h].rows.size());
    for (const char* formula : {"powerapi-hpc", "powerspy"}) {
      SCOPED_TRACE(formula);
      const auto sa = by_formula(a.hosts[h].rows, formula);
      const auto sb = by_formula(b.hosts[h].rows, formula);
      ASSERT_EQ(sa.size(), sb.size());
      ASSERT_FALSE(sa.empty());
      for (std::size_t r = 0; r < sa.size(); ++r) {
        ASSERT_EQ(sa[r].timestamp, sb[r].timestamp);
        ASSERT_EQ(sa[r].pid, sb[r].pid);
        ASSERT_EQ(sa[r].group, sb[r].group);
        ASSERT_EQ(sa[r].watts, sb[r].watts);  // Bit-exact, not approximately.
      }
    }
  }
}

TEST(ScenarioRunner, ThreadedMatchesManualPerHostSeries) {
  expect_threaded_matches_manual(kRunnerScenario);
}

/// "formula trained" fits each CPU's model with the Figure 1 trainer before
/// the run (the committed rack8 and green_day scenarios use it); a one-point
/// intensity grid keeps the fit short.
const char* const kTrainedScenario = R"(scenario trained_unit
seed 3
duration 400ms
tick 1ms
cpu desk i3_2120
workload w
  kind steady
  profile mixed intensity=0.7 working_set=4MB share=0.3
end
host a
  count 2
  cpu desk
  run w copies=2 name=app
end
monitor period=50ms dimension=timestamp
formula trained intensities=1.0 point_duration=200ms
fleet aggregation=on workers=2
)";

TEST(ScenarioRunner, TrainedFormulaIsDeterministicAndThreadSafe) {
  const std::string first = run_to_csv(actors::ActorSystem::Mode::kManual, kTrainedScenario);
  const std::string second = run_to_csv(actors::ActorSystem::Mode::kManual, kTrainedScenario);
  ASSERT_NE(first.find(",powerapi-hpc,"), std::string::npos);
  EXPECT_EQ(first, second);
  expect_threaded_matches_manual(kTrainedScenario);
}

TEST(ScenarioRunner, MatchesCommittedGoldenCsvBitForBit) {
  const std::string actual = run_to_csv(actors::ActorSystem::Mode::kManual);
  const std::string path =
      std::string(POWERAPI_GOLDEN_DIR) + "/scenario_big_little.csv";

  if (std::getenv("POWERAPI_GOLDEN_REGEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with POWERAPI_GOLDEN_REGEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "scenario kManual output drifted from the committed golden";
}

/// Two busy hosts under an unreachable 1 W budget: the governor steps every
/// host down its ladder, and the watchdog's budget-violation rule trips on
/// its third over-budget check (600 ms) and again once the rate limit
/// allows.
const char* const kObservedGovernScenario = R"(scenario observed_govern
seed 5
duration 2s
tick 1ms
cpu c i3_2120
workload hot
  kind steady
  profile cpu intensity=1.0
end
host a
  count 2
  cpu c
  run hot copies=2 name=hot
end
monitor period=50ms dimension=timestamp
formula fixed idle=30 coefficients=2.0e-9,3.0e-9,1.5e-8
govern budget_w=1 interval_ms=100
observe cadence=200ms
fleet aggregation=on workers=2
)";

TEST(ScenarioRunner, ObservedGovernedRunAlertsAlikeInBothModes) {
  RunOptions manual;
  manual.mode = actors::ActorSystem::Mode::kManual;
  RunOptions threaded;
  threaded.mode = actors::ActorSystem::Mode::kThreaded;
  const RunResult a = ScenarioRunner(parse(kObservedGovernScenario)).run(manual);
  const RunResult b = ScenarioRunner(parse(kObservedGovernScenario)).run(threaded);
  EXPECT_GT(a.watchdog_alerts, 0u);
  EXPECT_EQ(a.metrics.value_of("obs.watchdog.alerts"),
            static_cast<double>(a.watchdog_alerts));
  EXPECT_GT(a.governor_actuations, 0u);
  EXPECT_EQ(a.watchdog_alerts, b.watchdog_alerts);
  EXPECT_EQ(a.governor_actuations, b.governor_actuations);
}

TEST(ScenarioRunner, RespectsMaxDurationCap) {
  ScenarioRunner runner(parse(kRunnerScenario));
  RunOptions options;
  options.max_duration = util::ms_to_ns(100);
  const RunResult result = runner.run(options);
  for (const auto& host : result.hosts) {
    for (const auto& row : host.rows) {
      EXPECT_LE(row.timestamp, util::ms_to_ns(100));
    }
  }
}

}  // namespace
}  // namespace powerapi::scenario
