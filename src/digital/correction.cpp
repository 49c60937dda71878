#include "digital/correction.hpp"

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace adc::digital {

ErrorCorrection::ErrorCorrection(int num_stages, int flash_bits)
    : num_stages_(num_stages), flash_bits_(flash_bits) {
  adc::common::require(num_stages >= 1, "ErrorCorrection: need at least one stage");
  adc::common::require(flash_bits >= 1 && flash_bits <= 4,
                       "ErrorCorrection: flash must be 1..4 bits");
  adc::common::require(num_stages + flash_bits <= kMaxResolutionBits,
                       "ErrorCorrection: unreasonable total resolution");
}

int ErrorCorrection::correct(const RawConversion& raw) const {
  adc::common::require(static_cast<int>(raw.stage_codes.size()) == num_stages_,
                       "ErrorCorrection: stage-code count mismatch");
  // Reconstruction Vin = sum d_i Vref/2^i + (f - (2^F-1)/2) * Vref/2^(i_max)
  // mapped to [0, 2^bits-1] with 0.5 LSB centering; stage 1 (i=0) carries
  // 2^(bits-2).
  long long acc =
      weighted_sum(raw, offset(), [this](std::size_t i) { return stage_weight(i); });

  // The hardware adder saturates on out-of-range decision paths (possible
  // only when an ADSC error exceeds the redundancy).
  const long long max = max_code();
  if (acc < 0) acc = 0;
  if (acc > max) acc = max;
  return static_cast<int>(acc);
}

int ErrorCorrection::mid_code() const { return 1 << (resolution_bits() - 1); }

}  // namespace adc::digital
