#include "testbench/dynamic_test.hpp"

#include <algorithm>
#include <utility>

#include "batch/converter.hpp"
#include "common/error.hpp"
#include "runtime/parallel.hpp"

namespace adc::testbench {

namespace {

/// The dynamic measurement of `dies` dies that share `conv`'s conversion
/// rate, full scale and resolution: the one body behind run_dynamic_test
/// and run_dynamic_test_block. `capture(tone, n)` converts one record on
/// every die and returns one code vector per die; each call advances every
/// die's noise epoch once, so a die measures the same records on any path.
template <typename Converter, typename Capture>
std::vector<DynamicTestResult> measure(const Converter& conv, std::size_t dies,
                                       const DynamicTestOptions& options,
                                       const Capture& capture) {
  adc::common::require(options.amplitude_fraction > 0.0 && options.amplitude_fraction <= 1.05,
                       "run_dynamic_test: amplitude fraction outside (0, 1.05]");
  adc::common::require(options.averages >= 1, "run_dynamic_test: averages must be >= 1");
  const double fs = conv.conversion_rate();
  const std::size_t n = options.record_length;
  const adc::dsp::CoherentTone coherent =
      adc::dsp::coherent_frequency(options.target_fin_hz, fs, n);
  const double amplitude = options.amplitude_fraction * conv.full_scale_vpp() / 2.0;
  const adc::dsp::SineSignal tone(amplitude, coherent.frequency_hz);

  adc::dsp::SpectrumOptions spec = options.spectrum;
  spec.fundamental_bin = coherent.cycles;
  const auto volts = [&conv](const std::vector<int>& codes) {
    return adc::dsp::codes_to_volts(codes, conv.resolution_bits(), conv.full_scale_vpp());
  };

  std::vector<DynamicTestResult> out(dies);
  for (auto& r : out) r.tone = coherent;
  if (options.averages == 1) {
    const auto codes = capture(tone, n);
    for (std::size_t d = 0; d < dies; ++d) {
      out[d].metrics = adc::dsp::analyze_tone(volts(codes[d]), fs, spec);
    }
  } else {
    std::vector<std::vector<std::vector<double>>> records(dies);
    for (auto& r : records) r.reserve(static_cast<std::size_t>(options.averages));
    for (int r = 0; r < options.averages; ++r) {
      const auto codes = capture(tone, n);
      for (std::size_t d = 0; d < dies; ++d) records[d].push_back(volts(codes[d]));
    }
    for (std::size_t d = 0; d < dies; ++d) {
      out[d].metrics = adc::dsp::analyze_tone_averaged(records[d], fs, spec);
    }
  }
  return out;
}

}  // namespace

DynamicTestResult run_dynamic_test(adc::pipeline::PipelineAdc& adc,
                                   const DynamicTestOptions& options) {
  auto results = measure(adc, 1, options, [&adc](const adc::dsp::Signal& tone, std::size_t n) {
    std::vector<std::vector<int>> codes;
    codes.push_back(adc.convert(tone, n));
    return codes;
  });
  return std::move(results.front());
}

std::vector<DynamicTestResult> run_dynamic_test_block(const adc::pipeline::AdcConfig& base,
                                                      std::span<const std::uint64_t> seeds,
                                                      const DynamicTestOptions& options) {
  adc::batch::BatchConverter conv(base, seeds);
  return measure(conv, seeds.size(), options,
                 [&conv](const adc::dsp::Signal& tone, std::size_t n) {
                   return conv.convert(tone, n);
                 });
}

std::vector<DynamicTestResult> run_dynamic_test_dies(const adc::pipeline::AdcConfig& base,
                                                     std::span<const std::uint64_t> seeds,
                                                     const DynamicTestOptions& options,
                                                     int threads) {
  adc::common::require(!seeds.empty(), "run_dynamic_test_dies: need at least one seed");

  constexpr std::size_t kLanes = adc::batch::kLanes;
  const std::size_t num_blocks = (seeds.size() + kLanes - 1) / kLanes;

  adc::runtime::BatchOptions pool;
  pool.threads = threads > 0 ? static_cast<unsigned>(threads) : 0;

  // One job per kLanes-aligned die block. Blocks are independent, so the
  // runtime's determinism contract keeps the flattened result in seed order
  // and bit-identical at any thread count. Each block's converter picks its
  // own path (wide kernel or die by die).
  const auto blocks = adc::runtime::parallel_map<std::vector<DynamicTestResult>>(
      num_blocks,
      [&base, &seeds, &options](std::size_t b) {
        const std::size_t lo = b * adc::batch::kLanes;
        const std::size_t count = std::min(adc::batch::kLanes, seeds.size() - lo);
        return run_dynamic_test_block(base, seeds.subspan(lo, count), options);
      },
      pool);

  std::vector<DynamicTestResult> out;
  out.reserve(seeds.size());
  for (auto& block : blocks) {
    for (auto& r : block) out.push_back(std::move(r));
  }
  return out;
}

}  // namespace adc::testbench
