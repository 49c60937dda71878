/// \file correction.hpp
/// Redundancy (digital error correction) logic.
///
/// Each 1.5-bit stage resolves {-1, 0, +1} with a half bit of overlap; the
/// correction logic combines ten stage codes and the 2-bit flash into the
/// final 12-bit word by shift-and-add:
///
///     D = sum_i d_i * 2^(B - i)  +  flash,   B = number of stages + 1
///
/// offset so that the all-zero decision path lands at mid-scale. Because each
/// d_i only carries weight 2^(B-i) while the stage residue spans the *full*
/// next-stage range, an ADSC decision error of up to +/- V_REF/4 moves later
/// codes in exactly the opposite direction and cancels — the property tests
/// exercise this to the boundary.
#pragma once

#include <cstddef>
#include <cstdint>

#include "digital/codes.hpp"

namespace adc::digital {

/// The recombination every out-of-kernel reconstruction of the output word
/// evaluates: D = offset + flash + sum_i d_i * weight(i), stages MSB first.
/// `Weight` is long long for the nominal shift-and-add (ErrorCorrection)
/// and double for measured weights (calibration::CalibratedReconstructor);
/// the association is fixed — offset + flash first, then the stages from
/// the MSB down — so a calibrated value is reproducible bit for bit.
/// Clamping and rounding stay with the caller. (The fast kernel keeps its
/// own lane-wise copy: fast_kernel_impl.hpp is a POD header with the lanes
/// innermost.)
template <typename Weight, typename WeightOf>
[[nodiscard]] Weight weighted_sum(const RawConversion& raw, Weight offset, WeightOf weight) {
  Weight acc = offset + static_cast<Weight>(raw.flash_code);
  for (std::size_t i = 0; i < raw.stage_codes.size(); ++i) {
    acc += static_cast<Weight>(value(raw.stage_codes[i])) * weight(i);
  }
  return acc;
}

/// Combines raw stage codes into final output words.
class ErrorCorrection {
 public:
  /// Largest total resolution (num_stages + flash_bits) the adder takes.
  static constexpr int kMaxResolutionBits = 20;

  /// `num_stages` 1.5-bit stages followed by a `flash_bits`-bit flash.
  /// Total resolution = num_stages + flash_bits.
  ErrorCorrection(int num_stages, int flash_bits);

  /// Total converter resolution in bits.
  [[nodiscard]] int resolution_bits() const { return num_stages_ + flash_bits_; }

  /// Apply shift-and-add correction. The result is clamped into
  /// [0, 2^bits - 1] (out-of-range decision paths saturate, as the hardware
  /// adder does).
  [[nodiscard]] int correct(const RawConversion& raw) const;

  /// Mid-scale output code (all stage decisions zero, flash at half).
  [[nodiscard]] int mid_code() const;

  // The constants of the shift-and-add, shared by every reconstruction of
  // the output word (correct(), the fast kernel's plan, the nominal
  // calibration table).

  /// Accumulator start: 2^(bits-1) - 2^(flash_bits-1), so the all-zero
  /// decision path with a mid flash code lands at mid-scale.
  [[nodiscard]] long long offset() const {
    return (1LL << (resolution_bits() - 1)) - (1LL << (flash_bits_ - 1));
  }
  /// Weight of stage `i`'s decision (0-based, MSB first): 2^(bits-2-i).
  [[nodiscard]] long long stage_weight(std::size_t i) const {
    return 1LL << (resolution_bits() - 2 - static_cast<int>(i));
  }
  /// Saturation ceiling 2^bits - 1.
  [[nodiscard]] long long max_code() const { return (1LL << resolution_bits()) - 1; }

 private:
  int num_stages_;
  int flash_bits_;
};

}  // namespace adc::digital
