/// \file test_golden_codes_fast.cpp
/// Pins the `fast`-profile output codes of the characterized nominal die.
///
/// The fast profile is a *second* determinism contract, not a loosening of
/// the first: counter-based noise planes and polynomial transcendentals
/// produce different bits than the exact kernel, but the bits they produce
/// are pinned just as hard. These vectors freeze the fast kernel as shipped
/// — a later "optimization" that reorders a noise slot, re-fits a surrogate,
/// or retunes a polynomial must either reproduce them or explicitly bump
/// the contract and regenerate (together with the pinned deviates in
/// test_fast_rng.cpp).
///
/// The call order mirrors tests/test_golden_codes.cpp: convert() -> stream
/// -> convert_dc, so the two tables line up row for row. Each capture opens
/// a fresh noise epoch; the epoch *count* is part of the pinned sequence,
/// but the draws inside a capture depend only on (epoch, position) — never
/// on what earlier captures converted (see CaptureDrawsDependOnEpochIndex).
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#include "common/fidelity.hpp"
#include "digital/codes.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"
#include "pipeline/design.hpp"
#include "runtime/parallel.hpp"

namespace {

using adc::common::FidelityProfile;
using adc::digital::RawConversion;
using adc::digital::StageCode;
using adc::pipeline::AdcConfig;
using adc::pipeline::PipelineAdc;

/// The same probe tone as the exact-profile golden vectors.
const adc::dsp::SineSignal& golden_tone() {
  static const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  return tone;
}

AdcConfig fast_nominal(std::uint64_t seed = adc::pipeline::kNominalSeed) {
  AdcConfig config = adc::pipeline::nominal_design(seed);
  config.fidelity = FidelityProfile::kFast;
  return config;
}

// Golden vectors generated from the fast kernel at the commit introducing
// the fidelity-profile axis, with the exact call sequence of
// GoldenCodesFast.NominalDieSequence below.
//
// Re-verified under fast contract v2 (division-free log/sqrt draw math,
// kFastContractVersion == 2): the deviates moved by 1-2 ulp but every
// pinned *code* rounds identically — noise sigmas are microvolts against
// millivolt LSBs, so an ulp-level deviate shift is ~1e-10 LSB and the
// tables below are byte-for-byte the v1 tables. The underlying deviate
// pins in test_fast_rng.cpp did change and were regenerated.
const std::vector<int> kFastConvert64 = {
    2039, 3145, 3901, 4068, 3595, 2629, 1478, 507,  27,   189,  940,  2044, 3148,
    3904, 4068, 3593, 2624, 1474, 503,  27,   190,  943,  2048, 3152, 3905, 4068,
    3589, 2619, 1469, 501,  27,   193,  947,  2054, 3157, 3907, 4067, 3586, 2616,
    1465, 498,  25,   194,  951,  2058, 3160, 3909, 4066, 3583, 2611, 1460, 495,
    25,   196,  955,  2063, 3164, 3911, 4065, 3580, 2607, 1456, 492,  24};

const std::vector<int> kFastStream48 = {
    2039, 3144, 3902, 4069, 3596, 2629, 1479, 507,  28,   189,  939,  2044,
    3149, 3904, 4068, 3593, 2624, 1473, 504,  27,   190,  944,  2049, 3152,
    3906, 4067, 3589, 2620, 1469, 501,  26,   193,  947,  2053, 3157, 3908,
    4067, 3586, 2615, 1465, 498,  26,   195,  951,  2059, 3161, 3910, 4067};

const std::vector<int> kFastIdeal32 = {
    2047, 3138, 3883, 4044, 3571, 2614, 1477, 521, 50,  214, 960,
    2052, 3142, 3885, 4043, 3568, 2609, 1472, 518, 50,  216, 964,
    2057, 3146, 3887, 4043, 3565, 2605, 1468, 515, 49,  218};

const std::vector<int> kFastDc5 = {182, 1406, 2047, 2611, 4016};

TEST(GoldenCodesFast, NominalDieSequence) {
  PipelineAdc converter(fast_nominal());

  EXPECT_EQ(converter.convert(golden_tone(), 64), kFastConvert64);

  const auto stream = converter.convert_stream(golden_tone(), 48);
  EXPECT_EQ(stream.latency_cycles, 6);
  ASSERT_EQ(stream.codes.size(), 48u);
  EXPECT_EQ(stream.codes, kFastStream48);

  EXPECT_EQ(converter.convert_dc(-0.9), kFastDc5[0]);
  EXPECT_EQ(converter.convert_dc(-0.31), kFastDc5[1]);
  EXPECT_EQ(converter.convert_dc(0.0), kFastDc5[2]);
  EXPECT_EQ(converter.convert_dc(0.2718), kFastDc5[3]);
  EXPECT_EQ(converter.convert_dc(0.95), kFastDc5[4]);
}

TEST(GoldenCodesFast, IdealDesign) {
  AdcConfig config = adc::pipeline::ideal_design();
  config.fidelity = FidelityProfile::kFast;
  PipelineAdc ideal(config);
  // The ideal design disables every noise and nonlinearity source, so the
  // two profiles disagree only through transcendental rounding — which this
  // table shows is below a code: it equals the exact-profile kGoldenIdeal32.
  EXPECT_EQ(ideal.convert(golden_tone(), 32), kFastIdeal32);
}

/// Positional determinism: a capture's draws are a function of the epoch
/// *index* and the sample position, never of what earlier captures
/// converted. Two dies with different histories but equal epoch counts
/// produce identical codes. (The exact profile cannot make this promise —
/// the polar method's rejection loop makes its RNG state data-dependent.)
TEST(GoldenCodesFast, CaptureDrawsDependOnEpochIndexNotHistory) {
  PipelineAdc a(fast_nominal());
  PipelineAdc b(fast_nominal());
  (void)a.convert_dc(0.123);  // both consume exactly one epoch,
  (void)b.convert_dc(0.9);    // with very different inputs
  const auto codes_a = a.convert(golden_tone(), 64);
  const auto codes_b = b.convert(golden_tone(), 64);
  EXPECT_EQ(codes_a, codes_b);
  // The epoch count is part of the sequence: capture #2 reads different
  // noise than the pinned capture #1.
  EXPECT_NE(codes_a, kFastConvert64);
}

/// The parallel-runtime determinism contract holds under the fast profile:
/// batch conversion is bit-identical at 1 worker and at N workers, and the
/// seed-0 die reproduces the pinned vector.
TEST(GoldenCodesFast, ThreadCountInvariant) {
  constexpr std::size_t kDies = 8;
  constexpr std::size_t kSamples = 24;
  const auto job = [](std::size_t i) {
    PipelineAdc converter(fast_nominal(adc::pipeline::kNominalSeed + i));
    return converter.convert(golden_tone(), kSamples);
  };

  std::vector<std::vector<int>> serial;
  std::vector<std::vector<int>> threaded;
  {
    adc::runtime::ScopedThreadOverride one(1);
    serial = adc::runtime::parallel_map<std::vector<int>>(kDies, job);
  }
  {
    adc::runtime::ScopedThreadOverride four(4);
    threaded = adc::runtime::parallel_map<std::vector<int>>(kDies, job);
  }

  ASSERT_EQ(serial.size(), kDies);
  ASSERT_EQ(threaded.size(), kDies);
  for (std::size_t i = 0; i < kDies; ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "die " << i;
  }
  EXPECT_EQ(std::vector<int>(kFastConvert64.begin(),
                             kFastConvert64.begin() + kSamples),
            serial[0]);
}

// Pins for the fast-profile entry points beyond convert/stream/dc: raw
// stage and flash codes, sampled-voltage input, forced stage codes, a
// failure-injected die and a stimulus without a tone fast path. Generated
// from the fast kernel before the scalar fast path became the one-lane
// instantiation of the conversion kernel; each test uses a fresh die, so
// every capture is epoch 1 unless the test says otherwise.

/// One raw conversion as text: a sign per stage ('+', '0', '-'), then '|'
/// and the flash code.
std::string raw_text(const RawConversion& raw) {
  std::string text;
  for (const StageCode code : raw.stage_codes) {
    const int v = adc::digital::value(code);
    text += v > 0 ? '+' : (v < 0 ? '-' : '0');
  }
  text += '|';
  text += std::to_string(static_cast<int>(raw.flash_code));
  return text;
}

/// FNV-1a over the codes (pins a long record without listing it).
std::uint64_t code_digest(const std::vector<int>& codes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const int code : codes) {
    hash ^= static_cast<std::uint32_t>(code);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

TEST(GoldenCodesFast, ConvertRawStageAndFlashCodes) {
  const std::vector<std::string> kFastRaw12 = {
      "000000-+00|1", "+00+-0+-0+|1", "++++-000-+|1", "++++++0+-0|2",
      "++0000+-+0|1", "+-0+-00+-+|1", "-+00-00+0-|2", "--00000-+0|1",
      "------0-+0|1", "---0-000-+|1", "-00-+-+-+0|2", "00000000-0|2"};
  PipelineAdc converter(fast_nominal());
  std::vector<std::string> got;
  for (const RawConversion& raw : converter.convert_raw(golden_tone(), 12)) {
    got.push_back(raw_text(raw));
  }
  EXPECT_EQ(got, kFastRaw12);
}

TEST(GoldenCodesFast, ConvertSamplesOnTheFingerprintSine) {
  // The stimulus of the fast leg of the scenario cache fingerprint
  // (src/scenario/hash.cpp): 37 cycles over 1024 samples at 0.99 FS.
  const std::vector<int> kHead16 = {2047, 2511, 2948, 3340, 3666, 3908, 4055, 4095,
                                    4037, 3875, 3619, 3280, 2880, 2437, 1972, 1513};
  constexpr std::uint64_t kDigest = 0x1c422eb89100ab97ULL;
  PipelineAdc converter(fast_nominal());
  constexpr std::size_t kSamples = 1024;
  const double amplitude = 0.99 * converter.full_scale_vpp() / 2.0;
  std::vector<double> voltages(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    voltages[i] = amplitude * std::sin(2.0 * std::numbers::pi * 37.0 *
                                       static_cast<double>(i) / static_cast<double>(kSamples));
  }
  const auto codes = converter.convert_samples(voltages);
  ASSERT_EQ(codes.size(), kSamples);
  EXPECT_EQ(std::vector<int>(codes.begin(), codes.begin() + 16), kHead16);
  EXPECT_EQ(code_digest(codes), kDigest);
}

TEST(GoldenCodesFast, ConvertDcRawWithStageZeroForced) {
  // Five forced conversions, then one with the force released; the
  // reference droop carries from call to call.
  const std::vector<std::string> kForced = {"+---------|0", "+--0-0+00-|2", "+-0+0-+0-+|1",
                                            "+00+00-+-0|2", "++0+000-+-|2", "+-+0-+-+-0|2"};
  PipelineAdc converter(fast_nominal());
  converter.force_stage_code(0, StageCode::kPlus);
  std::vector<std::string> got;
  for (const double v : {-0.2, 0.1, 0.3, 0.55, 0.8}) {
    got.push_back(raw_text(converter.convert_dc_raw(v)));
  }
  converter.force_stage_code(0, std::nullopt);
  got.push_back(raw_text(converter.convert_dc_raw(0.35)));
  EXPECT_EQ(got, kForced);
}

TEST(GoldenCodesFast, ConvertAfterComparatorOffsetInjection) {
  const std::vector<int> kOffset32 = {2039, 3145, 3901, 4068, 3595, 2631, 1478, 507,
                                      27,   189,  940,  2044, 3148, 3904, 4068, 3593,
                                      2626, 1474, 503,  27,   190,  943,  2048, 3152,
                                      3905, 4068, 3589, 2621, 1469, 501,  27,   193};
  PipelineAdc converter(fast_nominal());
  converter.stage_mutable(0).inject_comparator_offset(1, 0.2);
  EXPECT_EQ(converter.convert(golden_tone(), 32), kOffset32);
}

TEST(GoldenCodesFast, RampCapture) {
  // A stimulus without a tone fast path: Signal::sample_fast's default
  // (exact value and slope).
  const std::vector<int> kRamp64 = {
      17,   80,   143,  206,  269,  334,  396,  459,  522,  586,  650,  713,  777,
      841,  904,  967,  1031, 1094, 1157, 1221, 1285, 1349, 1412, 1476, 1537, 1602,
      1665, 1728, 1793, 1856, 1920, 1984, 2047, 2111, 2174, 2237, 2302, 2365, 2430,
      2493, 2556, 2618, 2681, 2744, 2808, 2872, 2936, 3000, 3063, 3127, 3190, 3253,
      3317, 3381, 3445, 3508, 3571, 3634, 3698, 3761, 3825, 3888, 3951, 4014};
  PipelineAdc converter(fast_nominal());
  const adc::dsp::RampSignal ramp(-0.98, 0.98, 64.0 / converter.conversion_rate());
  EXPECT_EQ(converter.convert(ramp, 64), kRamp64);
}

}  // namespace
