#include "testbench/two_tone.hpp"

#include <algorithm>
#include <cmath>

#include "batch/converter.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dsp/fft.hpp"
#include "dsp/signal.hpp"

namespace adc::testbench {

namespace {

/// The two-tone measurement of `dies` dies that share `conv`'s conversion
/// rate, full scale and resolution: the one body behind run_two_tone_test
/// and run_two_tone_test_block. `capture(signal, n)` converts one record on
/// every die and returns one code vector per die.
template <typename Converter, typename Capture>
std::vector<TwoToneResult> measure(const Converter& conv, std::size_t dies,
                                   const TwoToneOptions& options, const Capture& capture) {
  adc::common::require(options.spacing_hz > 0.0, "run_two_tone_test: non-positive spacing");
  adc::common::require(options.amplitude_fraction > 0.0 && options.amplitude_fraction <= 0.5,
                       "run_two_tone_test: per-tone amplitude must be in (0, 0.5] FS");
  const double fs = conv.conversion_rate();
  const std::size_t n = options.record_length;

  // Snap both tones to odd coherent bins around the requested centre.
  const auto t1 = adc::dsp::coherent_frequency(options.center_hz - options.spacing_hz / 2.0,
                                               fs, n);
  auto t2 = adc::dsp::coherent_frequency(options.center_hz + options.spacing_hz / 2.0, fs, n);
  adc::common::require(t2.cycles != t1.cycles, "run_two_tone_test: tones collapsed; widen spacing");

  const double amp = options.amplitude_fraction * conv.full_scale_vpp() / 2.0;
  const adc::dsp::MultiToneSignal signal(
      {{amp, t1.frequency_hz, 0.0}, {amp, t2.frequency_hz, 1.234}});
  const auto codes = capture(signal, n);

  const auto bin_of = [&](double f) {
    return static_cast<std::size_t>(
        std::llround(adc::dsp::alias_frequency(f, fs) / (fs / static_cast<double>(n))));
  };
  const double full_scale_power =
      (conv.full_scale_vpp() / 2.0) * (conv.full_scale_vpp() / 2.0) / 2.0;
  const double eps = 1e-30;

  std::vector<TwoToneResult> out(dies);
  for (std::size_t d = 0; d < dies; ++d) {
    const auto volts =
        adc::dsp::codes_to_volts(codes[d], conv.resolution_bits(), conv.full_scale_vpp());
    const auto ps = adc::dsp::power_spectrum(volts);
    const auto power_at = [&](std::size_t bin) {
      return bin > 0 && bin < ps.size() ? ps[bin] : 0.0;
    };

    TwoToneResult& r = out[d];
    r.f1_hz = t1.frequency_hz;
    r.f2_hz = t2.frequency_hz;
    const double p1 = power_at(t1.cycles);
    const double p2 = power_at(t2.cycles);
    const double p_tone = 0.5 * (p1 + p2);
    adc::common::require(p_tone > 0.0, "run_two_tone_test: tones not found in spectrum");
    r.tone_power_db = adc::common::db_from_power_ratio(p_tone / full_scale_power);

    r.imd3_low_dbc = adc::common::db_from_power_ratio(
        std::max(power_at(bin_of(2.0 * r.f1_hz - r.f2_hz)), eps) / p_tone);
    r.imd3_high_dbc = adc::common::db_from_power_ratio(
        std::max(power_at(bin_of(2.0 * r.f2_hz - r.f1_hz)), eps) / p_tone);
    r.imd2_dbc = adc::common::db_from_power_ratio(
        std::max(power_at(bin_of(r.f1_hz + r.f2_hz)), eps) / p_tone);
    r.worst_imd_dbc = std::max({r.imd3_low_dbc, r.imd3_high_dbc, r.imd2_dbc});
  }
  return out;
}

}  // namespace

TwoToneResult run_two_tone_test(adc::pipeline::PipelineAdc& adc,
                                const TwoToneOptions& options) {
  const auto results =
      measure(adc, 1, options, [&adc](const adc::dsp::Signal& signal, std::size_t n) {
        std::vector<std::vector<int>> codes;
        codes.push_back(adc.convert(signal, n));
        return codes;
      });
  return results.front();
}

std::vector<TwoToneResult> run_two_tone_test_block(const adc::pipeline::AdcConfig& base,
                                                   std::span<const std::uint64_t> seeds,
                                                   const TwoToneOptions& options) {
  adc::batch::BatchConverter conv(base, seeds);
  return measure(conv, seeds.size(), options,
                 [&conv](const adc::dsp::Signal& signal, std::size_t n) {
                   return conv.convert(signal, n);
                 });
}

}  // namespace adc::testbench
