/// \file two_tone.hpp
/// Two-tone intermodulation characterization.
///
/// Communication receivers (the paper's third target application) care about
/// IMD3 as much as single-tone THD: two blockers at f1 and f2 intermodulate
/// in the converter's nonlinearities and the 2f1-f2 / 2f2-f1 products land
/// right next to the wanted channel. This bench applies two coherent tones
/// (each backed off 6 dB so the sum stays within full scale) and integrates
/// the close-in third-order products.
///
/// Like the single-tone bench (dynamic_test.hpp), it has one measurement
/// body and two captures: run_two_tone_test measures one realized die, and
/// run_two_tone_test_block measures a group of seeds through one
/// adc::batch::BatchConverter. A die reads the same result on either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/adc.hpp"

namespace adc::testbench {

using namespace adc::common::literals;

/// Options for the two-tone measurement.
struct TwoToneOptions {
  std::size_t record_length = 1 << 13;
  /// Requested tone centre [Hz]; both tones are snapped to odd coherent bins
  /// around it, `spacing_hz` apart.
  double center_hz = 10.0_MHz;
  double spacing_hz = 1.2_MHz;
  /// Per-tone amplitude as a fraction of full scale (0.49 ~ -6.2 dBFS each).
  double amplitude_fraction = 0.49;
};

/// Result of a two-tone measurement.
struct TwoToneResult {
  double f1_hz = 0.0;
  double f2_hz = 0.0;
  double tone_power_db = 0.0;  ///< per-tone level relative to full scale [dB]
  /// Third-order intermod levels relative to one tone [dBc].
  double imd3_low_dbc = 0.0;   ///< at 2*f1 - f2
  double imd3_high_dbc = 0.0;  ///< at 2*f2 - f1
  /// Second-order product at f1 + f2 [dBc] (differential circuits keep this low).
  double imd2_dbc = 0.0;
  /// Worst of the three products [dBc].
  double worst_imd_dbc = 0.0;
};

/// Run a two-tone test on a realized converter.
[[nodiscard]] TwoToneResult run_two_tone_test(adc::pipeline::PipelineAdc& adc,
                                              const TwoToneOptions& options = {});

/// Run the same two-tone test on a group of dies fabricated from `base`
/// (each seed overrides base.seed; at least one seed, any fidelity profile)
/// on the calling thread, through one adc::batch::BatchConverter that picks
/// the wide kernel or die by die. Entry d is byte-identical to
/// run_two_tone_test on a fresh PipelineAdc fabricated with seeds[d].
[[nodiscard]] std::vector<TwoToneResult> run_two_tone_test_block(
    const adc::pipeline::AdcConfig& base, std::span<const std::uint64_t> seeds,
    const TwoToneOptions& options = {});

}  // namespace adc::testbench
