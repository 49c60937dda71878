/// Tests for the two-tone intermodulation bench.
#include "testbench/two_tone.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "pipeline/design.hpp"

namespace ap = adc::pipeline;
namespace tb = adc::testbench;

TEST(TwoTone, IdealConverterHasNoImd) {
  ap::PipelineAdc adc(ap::ideal_design());
  tb::TwoToneOptions opt;
  opt.record_length = 1 << 12;
  const auto r = tb::run_two_tone_test(adc, opt);
  // Quantization floor only: products far below -90 dBc.
  EXPECT_LT(r.worst_imd_dbc, -85.0);
  EXPECT_NEAR(r.tone_power_db, -6.2, 0.5);
  EXPECT_LT(r.f1_hz, r.f2_hz);
}

TEST(TwoTone, NominalConverterShowsThirdOrderProducts) {
  ap::PipelineAdc adc(ap::nominal_design());
  tb::TwoToneOptions opt;
  opt.record_length = 1 << 13;
  const auto r = tb::run_two_tone_test(adc, opt);
  // IMD3 visible but serviceable for a comms IF (around the paper's
  // distortion level, minus back-off benefit); IMD2 suppressed by the
  // differential topology.
  EXPECT_LT(r.worst_imd_dbc, -55.0);
  EXPECT_GT(r.worst_imd_dbc, -90.0);
  EXPECT_LT(r.imd2_dbc, r.worst_imd_dbc + 1e-9);
}

TEST(TwoTone, Imd3GrowsWithToneLevelForSmoothNonlinearity) {
  // Third-order products of a smooth (cubic) nonlinearity grow 2 dB per dB
  // of tone level *relative to the tones*. Isolate the front-end cubic
  // (charge injection) — on the full nominal die the mismatch spur forest
  // masks the law.
  ap::AdcConfig cfg = ap::nominal_design();
  cfg.enable = ap::NonIdealities::all_off();
  cfg.enable.tracking_nonlinearity = true;
  ap::PipelineAdc adc(cfg);
  tb::TwoToneOptions lo;
  lo.record_length = 1 << 13;
  lo.amplitude_fraction = 0.25;
  tb::TwoToneOptions hi = lo;
  hi.amplitude_fraction = 0.5;
  const auto rl = tb::run_two_tone_test(adc, lo);
  const auto rh = tb::run_two_tone_test(adc, hi);
  // +6 dB per tone -> IMD3 relative to tone up by ~12 dB (allow slack for
  // the non-polynomial shape of the injection curve).
  EXPECT_GT(rh.imd3_low_dbc, rl.imd3_low_dbc + 6.0);
}

TEST(TwoTone, RejectsBadOptions) {
  ap::PipelineAdc adc(ap::ideal_design());
  tb::TwoToneOptions opt;
  opt.amplitude_fraction = 0.8;  // two tones would clip
  EXPECT_THROW((void)tb::run_two_tone_test(adc, opt), adc::common::ConfigError);
  opt.amplitude_fraction = 0.4;
  opt.spacing_hz = -1.0;
  EXPECT_THROW((void)tb::run_two_tone_test(adc, opt), adc::common::ConfigError);
}

TEST(TwoTone, TwoToneBlockMatchesPerDie) {
  // 10 fast dies: one full wide block of 8 plus a 2-die tail the converter
  // runs die by die, so one comparison covers both paths of the group
  // bench against the one-die bench. The forced-tier CI lanes run this test
  // under ADC_BATCH_ISA=sse2 and =avx2.
  ap::AdcConfig fast = ap::nominal_design();
  fast.fidelity = adc::common::FidelityProfile::kFast;
  tb::TwoToneOptions opt;
  opt.record_length = 1 << 11;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 10; ++s) seeds.push_back(700 + s);
  const auto group = tb::run_two_tone_test_block(fast, seeds, opt);
  ASSERT_EQ(group.size(), seeds.size());
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    ap::AdcConfig cfg = fast;
    cfg.seed = seeds[d];
    ap::PipelineAdc die(cfg);
    const auto want = tb::run_two_tone_test(die, opt);
    EXPECT_EQ(group[d].f1_hz, want.f1_hz) << "die " << d;
    EXPECT_EQ(group[d].f2_hz, want.f2_hz) << "die " << d;
    EXPECT_EQ(group[d].tone_power_db, want.tone_power_db) << "die " << d;
    EXPECT_EQ(group[d].imd3_low_dbc, want.imd3_low_dbc) << "die " << d;
    EXPECT_EQ(group[d].imd3_high_dbc, want.imd3_high_dbc) << "die " << d;
    EXPECT_EQ(group[d].imd2_dbc, want.imd2_dbc) << "die " << d;
    EXPECT_EQ(group[d].worst_imd_dbc, want.worst_imd_dbc) << "die " << d;
  }
}
