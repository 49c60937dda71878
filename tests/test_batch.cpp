/// \file test_batch.cpp
/// Bit-identity contract of the batch conversion engine (src/batch).
///
/// The fast profile has one kernel body (pipeline/fast_kernel_impl.hpp):
/// PipelineAdc's fast path *is* its one-lane instantiation, and the batch
/// engine compiles it at kLanes lanes once per ISA tier. The engine is a
/// throughput optimization, never a fidelity knob: for every die, every
/// sample and every tier, its codes must be byte-identical to
/// PipelineAdc::convert() under the fast profile. These tests pin that
/// contract across group shapes (single die, the per-die branch below
/// four dies, ragged and full wide blocks, a wide block plus a per-die
/// tail, exact-profile groups), capture sequences (the shared noise epoch),
/// stimulus kinds, stage counts up to the correction bound, and instruction
/// tiers (forced SSE2 vs the runtime-selected one), plus the golden fast
/// codes of the characterized nominal die through the batch entry point.
#include "batch/converter.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "batch/batch_api.hpp"
#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "common/isa_dispatch.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"
#include "pipeline/design.hpp"

namespace {

using adc::batch::BatchConverter;
using adc::common::BatchIsa;
using adc::common::FidelityProfile;
using adc::pipeline::AdcConfig;
using adc::pipeline::PipelineAdc;

const adc::dsp::SineSignal& golden_tone() {
  static const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  return tone;
}

AdcConfig fast_nominal() {
  AdcConfig config = adc::pipeline::nominal_design();
  config.fidelity = FidelityProfile::kFast;
  return config;
}

std::vector<std::uint64_t> make_seeds(std::size_t dies) {
  std::vector<std::uint64_t> seeds;
  for (std::size_t d = 0; d < dies; ++d) {
    seeds.push_back(adc::pipeline::kNominalSeed + d);
  }
  return seeds;
}

/// Scalar reference: a fresh die per seed, `captures` sequential convert()
/// calls, returning the last capture's codes (the epoch count is part of the
/// pinned sequence).
std::vector<std::vector<int>> scalar_reference(const AdcConfig& base,
                                               const std::vector<std::uint64_t>& seeds,
                                               const adc::dsp::Signal& signal, std::size_t n,
                                               int captures = 1) {
  std::vector<std::vector<int>> out;
  for (const std::uint64_t seed : seeds) {
    AdcConfig cfg = base;
    cfg.seed = seed;
    PipelineAdc die(cfg);
    std::vector<int> codes;
    for (int c = 0; c < captures; ++c) codes = die.convert(signal, n);
    out.push_back(std::move(codes));
  }
  return out;
}

TEST(Batch, GoldenFastCodesThroughBatchEntryPoint) {
  // The first 64 fast-profile codes of the characterized nominal die — the
  // same pinned vector as test_golden_codes_fast.cpp. The batch engine must
  // reproduce the golden contract, not merely agree with today's scalar
  // binary — so the die runs in a wide (padded) block of four.
  const std::vector<int> kFastConvert64 = {
      2039, 3145, 3901, 4068, 3595, 2629, 1478, 507,  27,   189,  940,  2044, 3148,
      3904, 4068, 3593, 2624, 1474, 503,  27,   190,  943,  2048, 3152, 3905, 4068,
      3589, 2619, 1469, 501,  27,   193,  947,  2054, 3157, 3907, 4067, 3586, 2616,
      1465, 498,  25,   194,  951,  2058, 3160, 3909, 4066, 3583, 2611, 1460, 495,
      25,   196,  955,  2063, 3164, 3911, 4065, 3580, 2607, 1456, 492,  24};
  const auto seeds = make_seeds(4);
  BatchConverter batch(fast_nominal(), seeds);
  const auto codes = batch.convert(golden_tone(), 64);
  ASSERT_EQ(codes.size(), 4u);
  EXPECT_EQ(codes[0], kFastConvert64);
}

TEST(Batch, BitIdenticalAcrossShapes) {
  // S x D group shapes covering both of the converter's paths: fast groups
  // of 1-3 dies (die by die through the one-lane kernel), a ragged wide
  // block (5: padded), a full block plus a per-die tail (10), two full
  // blocks (16), a chunk-boundary-crossing capture, and an exact-profile
  // group large enough for a wide block (it must still go die by die). Two
  // captures each: the second pins the noise epoch on every path.
  const struct {
    std::size_t samples;
    std::size_t dies;
    FidelityProfile fidelity;
  } shapes[] = {{1, 1, FidelityProfile::kFast},   {7, 2, FidelityProfile::kFast},
                {7, 3, FidelityProfile::kFast},   {64, 16, FidelityProfile::kFast},
                {300, 5, FidelityProfile::kFast}, {40, 10, FidelityProfile::kFast},
                {40, 5, FidelityProfile::kExact}};
  for (const auto& shape : shapes) {
    SCOPED_TRACE(testing::Message() << shape.samples << "x" << shape.dies << " "
                                    << adc::common::to_string(shape.fidelity));
    AdcConfig cfg = adc::pipeline::nominal_design();
    cfg.fidelity = shape.fidelity;
    const auto seeds = make_seeds(shape.dies);
    BatchConverter batch(cfg, seeds);
    for (int capture = 1; capture <= 2; ++capture) {
      const auto got = batch.convert(golden_tone(), shape.samples);
      const auto want = scalar_reference(cfg, seeds, golden_tone(), shape.samples, capture);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < got.size(); ++d) {
        EXPECT_EQ(got[d], want[d]) << "capture " << capture << ", die " << d;
      }
    }
  }
}

TEST(Batch, MultiToneStimulusBitIdentical) {
  const adc::dsp::MultiToneSignal tone({{0.49, 9.7e6, 0.0}, {0.49, 12.3e6, 1.25}});
  const auto seeds = make_seeds(4);  // one wide block
  BatchConverter batch(fast_nominal(), seeds);
  const auto got = batch.convert(tone, 100);
  const auto want = scalar_reference(fast_nominal(), seeds, tone, 100);
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    EXPECT_EQ(got[d], want[d]) << "die " << d;
  }
}

TEST(Batch, IdealAndPartialNonidealitiesBitIdentical) {
  // Exercises the kernel's disabled-path selects: the all-off design (no
  // noise, no jitter, no droop) and a mixed config (thermal off, rest on).
  AdcConfig ideal = adc::pipeline::ideal_design();
  ideal.fidelity = FidelityProfile::kFast;
  AdcConfig mixed = fast_nominal();
  mixed.enable.thermal_noise = false;
  mixed.enable.aperture_jitter = false;
  for (const AdcConfig& cfg : {ideal, mixed}) {
    const auto seeds = make_seeds(4);  // one wide block
    BatchConverter batch(cfg, seeds);
    const auto got = batch.convert(golden_tone(), 50);
    const auto want = scalar_reference(cfg, seeds, golden_tone(), 50);
    for (std::size_t d = 0; d < seeds.size(); ++d) {
      EXPECT_EQ(got[d], want[d]) << "die " << d;
    }
  }
}

TEST(Batch, EighteenStageDieMatchesOneLaneKernel) {
  // The stage ceiling is the correction bound (20 bits in total), not a
  // batch-engine limit: an 18-stage die with a 2-bit flash converts through
  // the wide kernel with the same codes as PipelineAdc::convert.
  AdcConfig cfg = fast_nominal();
  cfg.num_stages = 18;
  cfg.flash_bits = 2;
  const auto seeds = make_seeds(4);  // one wide block
  BatchConverter batch(cfg, seeds);
  EXPECT_EQ(batch.resolution_bits(), 20);
  const auto got = batch.convert(golden_tone(), 64);
  const auto want = scalar_reference(cfg, seeds, golden_tone(), 64);
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    EXPECT_EQ(got[d], want[d]) << "die " << d;
  }
}

TEST(Batch, ForcedSse2MatchesRuntimeTier) {
  // The cross-tier contract: the baseline kernel and whatever tier runtime
  // detection picked produce byte-identical codes. On an AVX-512 machine
  // this pins sse2 == avx512; on an SSE2-only machine it degenerates to
  // self-comparison (still a valid run, just not a cross check).
  const auto seeds = make_seeds(12);  // one full block + a padded 4-die block
  BatchConverter forced(fast_nominal(), seeds, BatchIsa::kSse2);
  BatchConverter native(fast_nominal(), seeds);
  const auto a = forced.convert(golden_tone(), 100);
  const auto b = native.convert(golden_tone(), 100);
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    EXPECT_EQ(a[d], b[d]) << "die " << d;
  }
}

TEST(Batch, SoAMathPortsBitIdenticalAcrossTiers) {
  // The exported span kernels (Philox normal fill, exp) across every tier
  // the hardware can execute, element for element.
  const BatchIsa top = adc::common::detect_batch_isa();
  constexpr std::size_t kN = 1000;
  std::vector<double> ref_fill(kN);
  adc::batch::kernel_ops(BatchIsa::kSse2).normal_fill(0x1234u, 7u, 3u, ref_fill.data(), kN);
  std::vector<double> xs(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    xs[i] = -720.0 + static_cast<double>(i) * 1.5;  // spans both exp clamps
  }
  std::vector<double> ref_exp(kN);
  adc::batch::kernel_ops(BatchIsa::kSse2).exp_span(xs.data(), ref_exp.data(), kN);
  for (const BatchIsa isa : {BatchIsa::kAvx2, BatchIsa::kAvx512}) {
    if (isa > top) continue;
    std::vector<double> fill(kN);
    adc::batch::kernel_ops(isa).normal_fill(0x1234u, 7u, 3u, fill.data(), kN);
    std::vector<double> ex(kN);
    adc::batch::kernel_ops(isa).exp_span(xs.data(), ex.data(), kN);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(fill[i]), std::bit_cast<std::uint64_t>(ref_fill[i]))
          << adc::common::to_string(isa) << " fill[" << i << "]";
      ASSERT_EQ(std::bit_cast<std::uint64_t>(ex[i]), std::bit_cast<std::uint64_t>(ref_exp[i]))
          << adc::common::to_string(isa) << " exp[" << i << "]";
    }
  }
}

TEST(Batch, SupportGatesAndErrors) {
  const adc::dsp::RampSignal ramp(-1.0, 1.0, 1e-6);
  EXPECT_TRUE(BatchConverter::supports_signal(golden_tone()));
  EXPECT_FALSE(BatchConverter::supports_signal(ramp));

  EXPECT_THROW(BatchConverter(fast_nominal(), std::span<const std::uint64_t>{}),
               adc::common::ConfigError);
  // Any fidelity profile makes a converter; the stimulus gate holds on both
  // paths (the one-lane fast die and the exact die).
  for (const AdcConfig& cfg : {fast_nominal(), adc::pipeline::nominal_design()}) {
    BatchConverter batch(cfg, make_seeds(1));
    EXPECT_THROW((void)batch.convert(ramp, 8), adc::common::ConfigError);
  }
}

TEST(Batch, IsaResolutionPolicy) {
  EXPECT_EQ(adc::common::parse_batch_isa("avx2"), BatchIsa::kAvx2);
  EXPECT_EQ(adc::common::parse_batch_isa("AVX-512"), std::nullopt);
  // Clamp-down: asking for a stronger tier than the hardware yields the
  // hardware's tier; asking for a weaker one is honored.
  EXPECT_EQ(adc::common::resolve_batch_isa("avx512", BatchIsa::kSse2), BatchIsa::kSse2);
  EXPECT_EQ(adc::common::resolve_batch_isa("sse2", BatchIsa::kAvx512), BatchIsa::kSse2);
  EXPECT_THROW((void)adc::common::resolve_batch_isa("neon", BatchIsa::kAvx512),
               adc::common::ConfigError);
}

TEST(Batch, ZeroSampleCaptureStillAdvancesEpoch) {
  const auto seeds = make_seeds(4);  // one wide block
  BatchConverter batch(fast_nominal(), seeds);
  const auto empty = batch.convert(golden_tone(), 0);
  ASSERT_EQ(empty.size(), 4u);
  EXPECT_TRUE(empty[0].empty());
  // Scalar: convert(0) also opens (and burns) an epoch.
  AdcConfig cfg = fast_nominal();
  cfg.seed = seeds[0];
  PipelineAdc die(cfg);
  (void)die.convert(golden_tone(), 0);
  EXPECT_EQ(batch.convert(golden_tone(), 16)[0], die.convert(golden_tone(), 16));
}

}  // namespace
