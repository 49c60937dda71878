/// Tests for the Monte-Carlo yield runner.
#include "testbench/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "pipeline/design.hpp"
#include "testbench/dynamic_test.hpp"

namespace ap = adc::pipeline;
namespace tb = adc::testbench;

namespace {

double quick_sndr(ap::PipelineAdc& adc) {
  tb::DynamicTestOptions opt;
  opt.record_length = 1 << 11;
  return tb::run_dynamic_test(adc, opt).metrics.sndr_db;
}

/// Monte-Carlo over the dynamic bench: the dies of `options` measured by
/// run_dynamic_test_dies, then `metric` reduced by summarize — the
/// composition bench/mc_yield.cpp uses.
template <typename Metric>
tb::MonteCarloResult dynamic_monte_carlo(const ap::AdcConfig& base,
                                         const tb::DynamicTestOptions& test,
                                         const Metric& metric,
                                         const tb::MonteCarloOptions& options) {
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(options.num_dies));
  for (std::size_t i = 0; i < seeds.size(); ++i) seeds[i] = options.first_seed + i;
  std::vector<double> values;
  for (const auto& r : tb::run_dynamic_test_dies(base, seeds, test, options.threads)) {
    values.push_back(metric(r));
  }
  return tb::summarize(std::move(values));
}

}  // namespace

TEST(MonteCarlo, StatsAndDeterminism) {
  tb::MonteCarloOptions opt;
  opt.num_dies = 8;
  opt.first_seed = 500;
  const auto a = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  const auto b = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  ASSERT_EQ(a.values.size(), 8u);
  EXPECT_EQ(a.values, b.values);  // same seeds -> same dies -> same metrics
  EXPECT_GE(a.max, a.mean);
  EXPECT_LE(a.min, a.mean);
  EXPECT_GE(a.std_dev, 0.0);
}

TEST(MonteCarlo, DiesActuallyDiffer) {
  tb::MonteCarloOptions opt;
  opt.num_dies = 6;
  const auto r = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  EXPECT_GT(r.max - r.min, 0.01);  // mismatch draws differ between dies
  EXPECT_LT(r.max - r.min, 5.0);   // but the design is production-worthy
}

TEST(MonteCarlo, YieldAccounting) {
  tb::MonteCarloResult r;
  r.values = {60.0, 62.0, 64.0, 66.0};
  EXPECT_DOUBLE_EQ(r.yield_at_least(63.0), 0.5);
  EXPECT_DOUBLE_EQ(r.yield_at_least(59.0), 1.0);
  EXPECT_DOUBLE_EQ(r.yield_at_most(61.0), 0.25);
  EXPECT_DOUBLE_EQ(tb::MonteCarloResult{}.yield_at_least(0.0), 0.0);
}

TEST(MonteCarlo, SingleThreadMatchesParallel) {
  tb::MonteCarloOptions serial;
  serial.num_dies = 5;
  serial.threads = 1;
  tb::MonteCarloOptions parallel = serial;
  parallel.threads = 4;
  const auto a = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, serial);
  const auto b = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, parallel);
  EXPECT_EQ(a.values, b.values);
}

TEST(MonteCarlo, ThrowingMetricPropagatesToCaller) {
  // Regression: the pre-runtime thread spawn std::terminate'd the process
  // when a DieMetric threw inside a worker. The runtime port must capture
  // the exception and rethrow it on the calling thread, serial and parallel.
  const auto faulty = [](ap::PipelineAdc& adc) -> double {
    if (adc.config().seed == 1003) {
      throw adc::common::MeasurementError("die 1003: no fundamental tone");
    }
    return quick_sndr(adc);
  };
  for (const int threads : {1, 4}) {
    tb::MonteCarloOptions opt;
    opt.num_dies = 8;
    opt.first_seed = 1000;
    opt.threads = threads;
    try {
      (void)tb::run_monte_carlo(ap::nominal_design(), faulty, opt);
      FAIL() << "expected MeasurementError at threads=" << threads;
    } catch (const adc::common::MeasurementError& e) {
      EXPECT_STREQ(e.what(), "die 1003: no fundamental tone");
    }
  }
  // The runner still works after a failed run.
  tb::MonteCarloOptions opt;
  opt.num_dies = 3;
  const auto ok = tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt);
  EXPECT_EQ(ok.values.size(), 3u);
}

TEST(MonteCarlo, RejectsBadInput) {
  tb::MonteCarloOptions opt;
  opt.num_dies = 0;
  EXPECT_THROW((void)tb::run_monte_carlo(ap::nominal_design(), quick_sndr, opt),
               adc::common::ConfigError);
  opt.num_dies = 1;
  EXPECT_THROW((void)tb::run_monte_carlo(ap::nominal_design(), nullptr, opt),
               adc::common::ConfigError);
}

TEST(MonteCarlo, DynamicRunnerMatchesScalarMetricBitExact) {
  // 10 dies under the fast profile = one full wide block of 8 plus a 2-die
  // tail the converter runs die by die, so one comparison covers both
  // execution paths of run_dynamic_test_dies against the reference per-die
  // loop.
  ap::AdcConfig fast = ap::nominal_design();
  fast.fidelity = adc::common::FidelityProfile::kFast;
  tb::DynamicTestOptions test;
  test.record_length = 1 << 11;
  tb::MonteCarloOptions opt;
  opt.num_dies = 10;
  opt.first_seed = 700;
  const auto batched = dynamic_monte_carlo(
      fast, test, [](const tb::DynamicTestResult& r) { return r.metrics.sndr_db; }, opt);
  const auto scalar = tb::run_monte_carlo(
      fast,
      [&test](ap::PipelineAdc& adc) { return tb::run_dynamic_test(adc, test).metrics.sndr_db; },
      opt);
  ASSERT_EQ(batched.values.size(), 10u);
  EXPECT_EQ(batched.values, scalar.values);  // bitwise: the engine is not a fidelity knob
}

TEST(MonteCarlo, DynamicRunnerMatchesScalarWithAveraging) {
  // The averaged path interleaves captures differently (batch: one
  // convert() per record for all dies; scalar: all records per die) but the
  // positional noise draws make the per-die record sequences identical.
  ap::AdcConfig fast = ap::nominal_design();
  fast.fidelity = adc::common::FidelityProfile::kFast;
  tb::DynamicTestOptions test;
  test.record_length = 1 << 10;
  test.averages = 2;
  tb::MonteCarloOptions opt;
  opt.num_dies = 8;
  opt.first_seed = 900;
  const auto batched = dynamic_monte_carlo(
      fast, test, [](const tb::DynamicTestResult& r) { return r.metrics.snr_db; }, opt);
  const auto scalar = tb::run_monte_carlo(
      fast,
      [&test](ap::PipelineAdc& adc) { return tb::run_dynamic_test(adc, test).metrics.snr_db; },
      opt);
  EXPECT_EQ(batched.values, scalar.values);
}

TEST(MonteCarlo, ExactGroupWithAveragingMatchesPerDieBench) {
  // An exact-profile die group goes through the same group path as a fast
  // one (one capture per record for all dies, every die converting itself);
  // each die's averaged metrics must equal the single-die bench's.
  tb::DynamicTestOptions test;
  test.record_length = 1 << 10;
  test.averages = 3;
  const std::vector<std::uint64_t> seeds = {31, 32, 33};
  const auto group = tb::run_dynamic_test_block(ap::nominal_design(), seeds, test);
  ASSERT_EQ(group.size(), seeds.size());
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    ap::AdcConfig cfg = ap::nominal_design();
    cfg.seed = seeds[d];
    ap::PipelineAdc die(cfg);
    const auto want = tb::run_dynamic_test(die, test);
    EXPECT_EQ(group[d].tone.frequency_hz, want.tone.frequency_hz) << "die " << d;
    EXPECT_EQ(group[d].metrics.snr_db, want.metrics.snr_db) << "die " << d;
    EXPECT_EQ(group[d].metrics.sndr_db, want.metrics.sndr_db) << "die " << d;
    EXPECT_EQ(group[d].metrics.sfdr_db, want.metrics.sfdr_db) << "die " << d;
    EXPECT_EQ(group[d].metrics.thd_db, want.metrics.thd_db) << "die " << d;
  }
}

TEST(MonteCarlo, BatchedYieldIsThreadCountInvariant) {
  ap::AdcConfig fast = ap::nominal_design();
  fast.fidelity = adc::common::FidelityProfile::kFast;
  tb::DynamicTestOptions test;
  test.record_length = 1 << 11;
  const auto metric = [](const tb::DynamicTestResult& r) { return r.metrics.sndr_db; };
  tb::MonteCarloOptions serial;
  serial.num_dies = 20;  // two full wide blocks + a padded 4-die block
  serial.first_seed = 42;
  serial.threads = 1;
  tb::MonteCarloOptions parallel = serial;
  parallel.threads = 4;
  const auto a = dynamic_monte_carlo(fast, test, metric, serial);
  const auto b = dynamic_monte_carlo(fast, test, metric, parallel);
  EXPECT_EQ(a.values, b.values);
  EXPECT_DOUBLE_EQ(a.yield_at_least(63.0), b.yield_at_least(63.0));
}

TEST(MonteCarlo, DynamicRunnerRejectsBadInput) {
  const auto metric = [](const tb::DynamicTestResult& r) { return r.metrics.sndr_db; };
  tb::MonteCarloOptions opt;
  opt.num_dies = 0;
  EXPECT_THROW((void)dynamic_monte_carlo(ap::nominal_design(), {}, metric, opt),
               adc::common::ConfigError);
}

TEST(MonteCarlo, IdealDiesAreIdentical) {
  // Without Monte-Carlo draws every seed fabricates the same (perfect) die.
  tb::MonteCarloOptions opt;
  opt.num_dies = 4;
  const auto r = tb::run_monte_carlo(ap::ideal_design(), quick_sndr, opt);
  EXPECT_NEAR(r.max - r.min, 0.0, 1e-9);
}
