// Unit tests for the util layer: statistics, clock, RNG, CSV, strings,
// ring buffer, Result.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <thread>

#include "util/arg_parser.h"
#include "util/clock.h"
#include "util/crc32c.h"
#include "util/csv.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/ring_buffer.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/units.h"
#include "util/varint.h"

namespace powerapi::util {
namespace {

// --- units ---

TEST(Units, SecondConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(ns_to_seconds(seconds_to_ns(1.5)), 1.5);
  EXPECT_EQ(ms_to_ns(250), 250'000'000);
  EXPECT_DOUBLE_EQ(ghz_to_hz(3.3), 3.3e9);
  EXPECT_DOUBLE_EQ(hz_to_ghz(1.6e9), 1.6);
}

TEST(Units, EnergyIntegration) {
  EXPECT_DOUBLE_EQ(energy_joules(10.0, seconds_to_ns(2.0)), 20.0);
  EXPECT_DOUBLE_EQ(energy_joules(0.0, seconds_to_ns(100.0)), 0.0);
}

// --- RunningStats ---

TEST(RunningStats, MatchesBatchComputation) {
  const std::vector<double> xs = {3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 1.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  RunningStats a;
  RunningStats b;
  RunningStats whole;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    whole.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_DOUBLE_EQ(rs.mean(), 0.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  rs.add(42.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 42.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
}

// --- percentile / median ---

TEST(Percentile, KnownValues) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 7.5);
}

TEST(Percentile, RejectsBadInput) {
  EXPECT_THROW(percentile({}, 50), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW(percentile(xs, -1), std::invalid_argument);
  EXPECT_THROW(percentile(xs, 101), std::invalid_argument);
}

class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, MonotoneAndBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.uniform(-100, 100));
  double prev = percentile(xs, 0);
  for (double p = 5; p <= 100; p += 5) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_DOUBLE_EQ(percentile(xs, 0), *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(percentile(xs, 100), *std::max_element(xs.begin(), xs.end()));
}
INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty, ::testing::Range(1, 8));

// --- error metrics ---

TEST(ErrorMetrics, PerfectEstimateIsZero) {
  const std::vector<double> ref = {10, 20, 30};
  EXPECT_DOUBLE_EQ(mape(ref, ref), 0.0);
  EXPECT_DOUBLE_EQ(median_ape(ref, ref), 0.0);
  EXPECT_DOUBLE_EQ(rmse(ref, ref), 0.0);
}

TEST(ErrorMetrics, KnownErrors) {
  const std::vector<double> ref = {10, 10, 10};
  const std::vector<double> est = {11, 9, 12};
  EXPECT_NEAR(mape(ref, est), (10 + 10 + 20) / 3.0, 1e-12);
  EXPECT_NEAR(median_ape(ref, est), 10.0, 1e-12);
  EXPECT_NEAR(rmse(ref, est), std::sqrt((1 + 1 + 4) / 3.0), 1e-12);
}

TEST(ErrorMetrics, SkipsNearZeroReference) {
  const std::vector<double> ref = {0.0, 10.0};
  const std::vector<double> est = {5.0, 11.0};
  const auto errs = absolute_percentage_errors(ref, est);
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_NEAR(errs[0], 10.0, 1e-12);
}

TEST(ErrorMetrics, LengthMismatchThrows) {
  const std::vector<double> a = {1, 2};
  const std::vector<double> b = {1};
  EXPECT_THROW(mape(a, b), std::invalid_argument);
  EXPECT_THROW(rmse(a, b), std::invalid_argument);
}

// --- Histogram ---

TEST(Histogram, BinsAndOverflow) {
  Histogram h(0.0, 10.0, 5);
  h.add(-1.0);
  h.add(0.0);
  h.add(3.9);
  h.add(9.99);
  h.add(10.0);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.bin_count(0), 1u);
  EXPECT_EQ(h.bin_count(1), 1u);
  EXPECT_EQ(h.bin_count(4), 1u);
  EXPECT_DOUBLE_EQ(h.bin_low(2), 4.0);
  EXPECT_THROW(h.bin_low(5), std::out_of_range);
  EXPECT_THROW(Histogram(0, 0, 3), std::invalid_argument);
  EXPECT_THROW(Histogram(0, 1, 0), std::invalid_argument);
}

// --- Clock ---

TEST(SimClock, AdvancesAndRejectsBackwards) {
  SimClock clock(100);
  EXPECT_EQ(clock.now(), 100);
  EXPECT_EQ(clock.advance(50), 150);
  clock.set(200);
  EXPECT_EQ(clock.now(), 200);
  EXPECT_THROW(clock.set(199), std::invalid_argument);
}

TEST(WallClock, MonotonicNonNegative) {
  WallClock clock;
  const auto a = clock.now();
  const auto b = clock.now();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

// --- Rng ---

TEST(Rng, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(7);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.uniform_int(0, 1'000'000) == c2.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, GaussianMatchesStdNormalDistribution) {
  // gaussian() scales a standard normal draw; the values must equal what
  // std::normal_distribution(mean, stddev) returns, so seeded streams (and
  // the goldens built on them) are unchanged.
  Rng rng(17);
  std::mt19937_64 engine(17);
  for (int i = 0; i < 1000; ++i) {
    const double stddev = 0.25 * (i % 7 + 1);
    std::normal_distribution<double> d(-1.5, stddev);
    EXPECT_EQ(rng.gaussian(-1.5, stddev), d(engine));
  }
}

TEST(Rng, GaussianWithZeroStddevReturnsMeanAndAdvancesLikeOne) {
  Rng zero(19);
  Rng one(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero.gaussian(2.5, 0.0), 2.5);
    one.gaussian(2.5, 1.0);
    EXPECT_EQ(zero.engine()(), one.engine()());
  }
}

TEST(Rng, UniformIntInRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

// --- CSV ---

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriterEnforcesWidth) {
  std::ostringstream out;
  CsvWriter writer(out);
  writer.header({"a", "b"});
  writer.row({"1", "2"});
  EXPECT_THROW(writer.row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(writer.header({"again"}), std::logic_error);
  EXPECT_EQ(out.str(), "a,b\n1,2\n");
  EXPECT_EQ(writer.rows_written(), 1u);
}

TEST(Csv, FormatDoubleRoundTrips) {
  for (double v : {0.0, 1.5, -2.25, 31.48, 2.22e-9, 1e300}) {
    EXPECT_DOUBLE_EQ(std::stod(format_double(v)), v);
  }
}

// --- string_util ---

TEST(StringUtil, TrimAndSplit) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim(""), "");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  const auto trimmed = split_trimmed(" a ; ;b ", ';');
  ASSERT_EQ(trimmed.size(), 2u);
  EXPECT_EQ(trimmed[0], "a");
  EXPECT_EQ(trimmed[1], "b");
}

TEST(StringUtil, Parsers) {
  EXPECT_EQ(parse_double("3.5").value(), 3.5);
  EXPECT_EQ(parse_double(" 2e-9 ").value(), 2e-9);
  EXPECT_FALSE(parse_double("3.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_EQ(parse_int("-42").value(), -42);
  EXPECT_FALSE(parse_int("12.5").has_value());
  const auto kv = parse_key_value(" key = value ");
  ASSERT_TRUE(kv.has_value());
  EXPECT_EQ(kv->first, "key");
  EXPECT_EQ(kv->second, "value");
  EXPECT_FALSE(parse_key_value("no equals").has_value());
}

TEST(StringUtil, JoinAndLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(to_lower("PowerAPI"), "powerapi");
  EXPECT_TRUE(starts_with("powerapi-model", "powerapi"));
  EXPECT_FALSE(starts_with("po", "powerapi"));
}

// --- RingBuffer ---

TEST(RingBuffer, KeepsMostRecent) {
  RingBuffer<int> rb(3);
  EXPECT_TRUE(rb.empty());
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_TRUE(rb.full());
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.at(0), 3);
  EXPECT_EQ(rb.at(2), 5);
  EXPECT_EQ(rb.back(), 5);
  const auto snap = rb.snapshot();
  EXPECT_EQ(snap, (std::vector<int>{3, 4, 5}));
  EXPECT_THROW(rb.at(3), std::out_of_range);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_THROW(rb.back(), std::out_of_range);
  EXPECT_THROW(RingBuffer<int>(0), std::invalid_argument);
}

// --- Result ---

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);
  EXPECT_EQ(ok.value_or(9), 5);

  auto err = Result<int>::failure("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error_message(), "boom");
  EXPECT_EQ(err.value_or(9), 9);
  EXPECT_THROW(err.value(), std::runtime_error);
  EXPECT_THROW(ok.error_message(), std::logic_error);
}

TEST(Result, MapAndAndThen) {
  Result<int> ok(5);
  const auto doubled = ok.map([](int v) { return v * 2; });
  EXPECT_EQ(doubled.value(), 10);
  const auto chained = ok.and_then([](int v) -> Result<std::string> {
    return std::string(static_cast<std::size_t>(v), 'x');
  });
  EXPECT_EQ(chained.value(), "xxxxx");
  const auto err = Result<int>::failure("e").map([](int v) { return v; });
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error_message(), "e");
}


// --- logging ---

TEST(Logging, ParseLogLevelAcceptsKnownNamesCaseInsensitively) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("OFF"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
  EXPECT_FALSE(parse_log_level("").has_value());
}

TEST(Logging, ConfigureLoggingConsumesLogLevelFlag) {
  Logger& logger = Logger::instance();
  const LogLevel saved = logger.level();

  char prog[] = "prog";
  char flag[] = "--log-level=debug";
  char other[] = "positional";
  char* argv[] = {prog, flag, other, nullptr};
  int argc = 3;
  configure_logging(argc, argv);
  EXPECT_EQ(logger.level(), LogLevel::kDebug);
  ASSERT_EQ(argc, 2);  // The flag was stripped...
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "positional");
  EXPECT_EQ(argv[2], nullptr);  // ...and argv stays null-terminated.

  char flag_word[] = "--log-level";
  char value[] = "error";
  char* argv2[] = {prog, flag_word, value, nullptr};
  int argc2 = 3;
  configure_logging(argc2, argv2);
  EXPECT_EQ(logger.level(), LogLevel::kError);
  EXPECT_EQ(argc2, 1);  // Two-token form consumes both.

  logger.set_level(saved);
}

TEST(Logging, ConcurrentSinkSwapAndLogDoNotRace) {
  // Regression: set_sink used to swap the sink under the same mutex log()
  // invoked it under; now the sink is an atomically swapped shared_ptr, so
  // loggers never block on (or observe a half-written) swap. Hammer both
  // sides; TSan (and the counters) verify no message is lost or torn.
  Logger& logger = Logger::instance();
  const LogLevel saved_level = logger.level();
  logger.set_level(LogLevel::kDebug);

  auto count_a = std::make_shared<std::atomic<std::uint64_t>>(0);
  auto count_b = std::make_shared<std::atomic<std::uint64_t>>(0);
  std::atomic<bool> stop{false};

  const auto make_sink = [](std::shared_ptr<std::atomic<std::uint64_t>> counter) {
    return [counter = std::move(counter)](LogLevel, std::string_view component,
                                          std::string_view message) {
      // Read both strings fully: a torn sink would show up here.
      if (!component.empty() && !message.empty()) {
        counter->fetch_add(1, std::memory_order_relaxed);
      }
    };
  };
  // Install a counting sink BEFORE any logger runs so no message falls
  // through to the stderr default.
  logger.set_sink(make_sink(count_a));

  std::thread swapper([&] {
    bool use_a = false;
    while (!stop.load(std::memory_order_relaxed)) {
      logger.set_sink(make_sink(use_a ? count_a : count_b));
      use_a = !use_a;
    }
  });

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 2000;
  std::vector<std::thread> loggers;
  for (int t = 0; t < kThreads; ++t) {
    loggers.emplace_back([&logger] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        POWERAPI_LOG_DEBUG("race-test") << "message " << i;
      }
    });
  }
  for (auto& thread : loggers) thread.join();
  stop.store(true);
  swapper.join();
  logger.set_sink(nullptr);
  logger.set_level(saved_level);

  // Every message reached exactly one of the two sinks.
  EXPECT_EQ(count_a->load() + count_b->load(), kThreads * kPerThread);
}

// --- crc32c ---

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / common test vectors for CRC-32C (Castagnoli).
  EXPECT_EQ(crc32c("", 0), 0u);
  EXPECT_EQ(crc32c("123456789", 9), 0xE3069283u);
  unsigned char ascending[32];
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<unsigned char>(i);
  EXPECT_EQ(crc32c(ascending, sizeof(ascending)), 0x46DD794Eu);
  const unsigned char zeros[32] = {};
  EXPECT_EQ(crc32c(zeros, sizeof(zeros)), 0x8A9136AAu);
}

TEST(Crc32c, ExtendComposesAcrossChunks) {
  const std::string text = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32c(text.data(), text.size());
  for (std::size_t split = 0; split <= text.size(); ++split) {
    std::uint32_t crc = crc32c(text.data(), split);
    crc = crc32c_extend(crc, text.data() + split, text.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  std::string data = "sensor payload 1234567890";
  const std::uint32_t good = crc32c(data.data(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
      EXPECT_NE(crc32c(data.data(), data.size()), good);
      data[i] = static_cast<char>(data[i] ^ (1 << bit));
    }
  }
}

// --- varint ---

TEST(Varint, RoundTripsBoundaryValues) {
  const std::uint64_t values[] = {
      0,       1,      127,        128,        16383,    16384,
      2097151, 2097152, 0xFFFFFFFFull, 0x100000000ull,
      0x7FFFFFFFFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    put_varint(buf, v);
    EXPECT_LE(buf.size(), kMaxVarintBytes);
    std::uint64_t out = 0;
    EXPECT_EQ(get_varint(buf.data(), buf.size(), out), buf.size()) << v;
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, EncodedSizeGrowsAtSevenBitBoundaries) {
  std::vector<std::uint8_t> one, two;
  put_varint(one, 127);
  put_varint(two, 128);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
}

TEST(Varint, TruncatedInputRejected) {
  std::vector<std::uint8_t> buf;
  put_varint(buf, 0xFFFFFFFFFFFFFFFFull);
  std::uint64_t out = 0;
  for (std::size_t len = 0; len < buf.size(); ++len) {
    EXPECT_EQ(get_varint(buf.data(), len, out), 0u) << "len " << len;
  }
}

TEST(Varint, OverlongTenthByteRejected) {
  // Ten continuation-heavy bytes whose 10th carries bits beyond 2^64.
  const std::uint8_t overlong[10] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                     0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  std::uint64_t out = 0;
  EXPECT_EQ(get_varint(overlong, sizeof(overlong), out), 0u);
}

TEST(Varint, ZigzagMapsSignAlternately) {
  EXPECT_EQ(zigzag_encode(0), 0u);
  EXPECT_EQ(zigzag_encode(-1), 1u);
  EXPECT_EQ(zigzag_encode(1), 2u);
  EXPECT_EQ(zigzag_encode(-2), 3u);
  const std::int64_t values[] = {0, -1, 1, 1234567, -1234567,
                                 std::numeric_limits<std::int64_t>::min(),
                                 std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(zigzag_decode(zigzag_encode(v)), v);
    std::vector<std::uint8_t> buf;
    put_varint_signed(buf, v);
    std::int64_t out = 0;
    EXPECT_EQ(get_varint_signed(buf.data(), buf.size(), out), buf.size());
    EXPECT_EQ(out, v);
  }
}

TEST(Varint, SmallDeltasStaySmall) {
  // The wire format's timestamp deltas: a fixed period must encode tiny.
  std::vector<std::uint8_t> buf;
  put_varint_signed(buf, 250);  // 250ms period in some unit.
  EXPECT_LE(buf.size(), 2u);
}

// --- ArgParser ---

namespace {

/// Builds a mutable argv from string literals; keeps storage alive.
struct Argv {
  explicit Argv(std::vector<std::string> args) : storage(std::move(args)) {
    for (auto& arg : storage) ptrs.push_back(arg.data());
    ptrs.push_back(nullptr);
    argc = static_cast<int>(storage.size());
  }
  std::vector<std::string> storage;
  std::vector<char*> ptrs;
  int argc = 0;
  char** argv() { return ptrs.data(); }
};

}  // namespace

TEST(ArgParser, ParsesAllKindsAndStripsThem) {
  bool flag = false;
  std::int64_t count = 1;
  std::size_t size = 2;
  double ratio = 0.5;
  std::string name = "default";
  ArgParser parser("prog", "test");
  parser.add_flag("verbose", &flag, "");
  parser.add_int64("count", &count, "");
  parser.add_size("size", &size, "");
  parser.add_double("ratio", &ratio, "");
  parser.add_string("name", &name, "");

  Argv args({"prog", "--verbose", "--count", "-3", "--size=42", "positional",
             "--ratio", "0.25", "--name=x"});
  const auto exit_code = parser.parse(args.argc, args.argv());
  EXPECT_FALSE(exit_code.has_value());
  EXPECT_TRUE(flag);
  EXPECT_EQ(count, -3);
  EXPECT_EQ(size, 42u);
  EXPECT_DOUBLE_EQ(ratio, 0.25);
  EXPECT_EQ(name, "x");
  // Recognized options were consumed; positionals remain in order.
  ASSERT_EQ(args.argc, 2);
  EXPECT_STREQ(args.argv()[0], "prog");
  EXPECT_STREQ(args.argv()[1], "positional");
  EXPECT_EQ(args.argv()[2], nullptr);
}

TEST(ArgParser, HelpReturnsZeroAndListsOptions) {
  std::int64_t hosts = 8;
  ArgParser parser("prog", "a description");
  parser.add_int64("hosts", &hosts, "host count");
  Argv args({"prog", "--help"});
  testing::internal::CaptureStdout();
  const auto exit_code = parser.parse(args.argc, args.argv());
  const std::string help = testing::internal::GetCapturedStdout();
  ASSERT_TRUE(exit_code.has_value());
  EXPECT_EQ(*exit_code, 0);
  EXPECT_NE(help.find("--hosts"), std::string::npos);
  EXPECT_NE(help.find("default: 8"), std::string::npos);
  EXPECT_NE(help.find("a description"), std::string::npos);
  EXPECT_NE(help.find("--log-level"), std::string::npos);
}

TEST(ArgParser, RejectsUnknownAndMalformed) {
  std::int64_t n = 0;
  {
    ArgParser parser("prog", "");
    parser.add_int64("n", &n, "");
    Argv args({"prog", "--bogus"});
    testing::internal::CaptureStderr();
    const auto exit_code = parser.parse(args.argc, args.argv());
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(exit_code.has_value());
    EXPECT_EQ(*exit_code, 2);
  }
  {
    ArgParser parser("prog", "");
    parser.add_int64("n", &n, "");
    Argv args({"prog", "--n", "not-a-number"});
    testing::internal::CaptureStderr();
    const auto exit_code = parser.parse(args.argc, args.argv());
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(exit_code.has_value());
    EXPECT_EQ(*exit_code, 2);
  }
  {
    // Missing value at end of argv.
    ArgParser parser("prog", "");
    parser.add_int64("n", &n, "");
    Argv args({"prog", "--n"});
    testing::internal::CaptureStderr();
    const auto exit_code = parser.parse(args.argc, args.argv());
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(exit_code.has_value());
    EXPECT_EQ(*exit_code, 2);
  }
}

TEST(ArgParser, IntKindsRejectNonIntegralAndNegativeSizes) {
  std::int64_t n = 0;
  std::size_t s = 0;
  {
    ArgParser parser("prog", "");
    parser.add_int64("n", &n, "");
    Argv args({"prog", "--n=1.5"});
    testing::internal::CaptureStderr();
    const auto exit_code = parser.parse(args.argc, args.argv());
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(exit_code.has_value());
  }
  {
    ArgParser parser("prog", "");
    parser.add_size("s", &s, "");
    Argv args({"prog", "--s=-4"});
    testing::internal::CaptureStderr();
    const auto exit_code = parser.parse(args.argc, args.argv());
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(exit_code.has_value());
  }
}

}  // namespace
}  // namespace powerapi::util
