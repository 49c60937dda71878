#include "calibration/foreground.hpp"

#include <cmath>

#include "common/error.hpp"
#include "digital/correction.hpp"

namespace adc::calibration {

using adc::common::require;
using adc::digital::RawConversion;
using adc::digital::StageCode;

CalibrationTable CalibrationTable::nominal(int num_stages, int flash_bits) {
  // The hardware shift-and-add's constants (which validates the geometry).
  const adc::digital::ErrorCorrection correction(num_stages, flash_bits);
  CalibrationTable t;
  t.num_stages = num_stages;
  t.flash_bits = flash_bits;
  t.stage_weights.resize(static_cast<std::size_t>(num_stages));
  for (std::size_t i = 0; i < t.stage_weights.size(); ++i) {
    t.stage_weights[i] = static_cast<double>(correction.stage_weight(i));
  }
  t.offset = static_cast<double>(correction.offset());
  return t;
}

ForegroundCalibrator::ForegroundCalibrator(const CalibrationOptions& options)
    : options_(options) {
  require(options.averaging >= 1, "ForegroundCalibrator: averaging must be >= 1");
}

namespace {

/// Backend digital estimate of the residue entering stage `first_backend`:
/// the already-calibrated weights of the later stages plus the flash code.
double backend_estimate(const RawConversion& raw, std::size_t first_backend,
                        const CalibrationTable& table) {
  double y = static_cast<double>(raw.flash_code);
  for (std::size_t j = first_backend; j < raw.stage_codes.size(); ++j) {
    y += static_cast<double>(adc::digital::value(raw.stage_codes[j])) *
         table.stage_weights[j];
  }
  return y;
}

}  // namespace

CalibrationTable ForegroundCalibrator::calibrate(adc::pipeline::PipelineAdc& adc) const {
  const auto num_stages = adc.stage_count();
  const int flash_bits = adc.flash().bits();
  require(num_stages >= 1, "calibrate: converter has no stages");

  // Start from the nominal table; measured weights replace the nominal ones
  // stage by stage, back to front, so each measurement sees a calibrated
  // backend.
  CalibrationTable table =
      CalibrationTable::nominal(static_cast<int>(num_stages), flash_bits);

  const double vref = adc.full_scale_vpp() / 2.0;
  // One final-code LSB referred to the analog input: the backend's finest
  // quantization step during every stage measurement. The test level slides
  // uniformly across exactly one such LSB so the backend's quantization
  // error averages to zero even on a noiseless die (the role dither plays
  // in production foreground calibration).
  const double lsb_in =
      adc.full_scale_vpp() / std::ldexp(1.0, static_cast<int>(num_stages) + flash_bits);

  // Calibrate the front (MSB) stages only, deepest of them first, so every
  // measurement's backend is either already-measured weights or the nominal
  // sub-LSB-accurate tail.
  const std::size_t last =
      options_.stages_to_calibrate > 0 &&
              static_cast<std::size_t>(options_.stages_to_calibrate) < num_stages
          ? static_cast<std::size_t>(options_.stages_to_calibrate)
          : num_stages;

  for (std::size_t i = last; i-- > 0;) {
    // Put stage i's input at its +V_REF/4 decision boundary: with stages
    // 0..i-1 forced to code 0, the chain is a clean x2^i amplifier there.
    const double v_test = vref / 4.0 / std::ldexp(1.0, static_cast<int>(i));
    for (std::size_t j = 0; j < i; ++j) adc.force_stage_code(j, StageCode::kZero);

    double y_zero = 0.0;
    double y_plus = 0.0;
    for (int rep = 0; rep < options_.averaging; ++rep) {
      const double slide =
          ((static_cast<double>(rep) + 0.5) / options_.averaging - 0.5) * lsb_in;
      adc.force_stage_code(i, StageCode::kZero);
      y_zero += backend_estimate(adc.convert_dc_raw(v_test + slide), i + 1, table);
      adc.force_stage_code(i, StageCode::kPlus);
      y_plus += backend_estimate(adc.convert_dc_raw(v_test + slide), i + 1, table);
    }
    y_zero /= options_.averaging;
    y_plus /= options_.averaging;

    // Residue(d=0) - residue(d=+1) = the stage's realized DAC step, read in
    // backend LSB: exactly the digital weight d_i must carry.
    table.stage_weights[i] = y_zero - y_plus;

    // Restore this stage and the forced frontend before the next iteration.
    for (std::size_t j = 0; j <= i; ++j) adc.force_stage_code(j, std::nullopt);
  }
  return table;
}

CalibratedReconstructor::CalibratedReconstructor(CalibrationTable table)
    : table_(std::move(table)) {
  require(table_.num_stages >= 1, "CalibratedReconstructor: empty table");
  require(table_.stage_weights.size() == static_cast<std::size_t>(table_.num_stages),
          "CalibratedReconstructor: weight count mismatch");
}

double CalibratedReconstructor::reconstruct(const RawConversion& raw) const {
  require(raw.stage_codes.size() == static_cast<std::size_t>(table_.num_stages),
          "reconstruct: stage-code count mismatch");
  return adc::digital::weighted_sum(raw, table_.offset,
                                    [this](std::size_t i) { return table_.stage_weights[i]; });
}

int CalibratedReconstructor::code(const RawConversion& raw) const {
  const double max_code = std::ldexp(1.0, table_.resolution_bits()) - 1.0;
  double d = std::round(reconstruct(raw));
  if (d < 0.0) d = 0.0;
  if (d > max_code) d = max_code;
  return static_cast<int>(d);
}

std::vector<int> CalibratedReconstructor::codes(
    std::span<const RawConversion> raws) const {
  std::vector<int> out;
  out.reserve(raws.size());
  for (const auto& raw : raws) out.push_back(code(raw));
  return out;
}

}  // namespace adc::calibration
