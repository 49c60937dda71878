/// \file fast_kernel.hpp
/// POD interface of the fast-profile conversion kernel.
///
/// The fast profile has one implementation: the kernel body in
/// fast_kernel_impl.hpp, templated on its lane count L. Each lane is one
/// die; the serial cross-sample state of a die (reference droop,
/// random-walk jitter) stays inside its lane, and every per-stage
/// invariant is hoisted once into the PlanView below (built by FastPlan,
/// fast_plan.hpp). `PipelineAdc` runs every fast conversion through the
/// L = 1 instantiation (fast_kernel.cpp, baseline code); the batch engine
/// compiles the same body at L = kLanes once per ISA tier (src/batch/).
///
/// The wide tiers include this header, so it is deliberately plain old
/// data: raw pointers and scalars only, no std:: templates, no classes with
/// inline members (the COMDAT hazard documented in fastmath.hpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "digital/correction.hpp"

namespace adc::pipeline::fast {

// Noise-plane slot layout: one row of standard normals per sample, each
// physical mechanism owning a fixed slot, so an unconsumed draw (e.g. the
// low ADSC comparator when the high one already decided) never shifts
// another mechanism's noise.
inline constexpr std::size_t kSlotRipple = 0;     ///< SC-bias switching ripple
inline constexpr std::size_t kSlotJitter = 1;     ///< white aperture jitter
inline constexpr std::size_t kSlotWalk = 2;       ///< random-walk jitter step
inline constexpr std::size_t kSlotStageBase = 3;  ///< first stage slot
inline constexpr std::size_t kSlotsPerStage = 3;  ///< thermal, cmp_high, cmp_low

/// Slots per sample for a pipeline of `stages` 1.5b stages followed by a
/// `flash_comparators`-comparator backend flash.
[[nodiscard]] inline constexpr std::size_t slots_per_sample(std::size_t stages,
                                                            std::size_t flash_comparators) {
  return kSlotStageBase + kSlotsPerStage * stages + flash_comparators;
}

/// Samples per noise-plane chunk. 256 samples × 36 slots × 8 lanes ≈ 590 KB
/// for the plane plus the same for the fill scratch — inside L2. Chunking is
/// value-neutral: draws are positional.
inline constexpr std::size_t kChunkSamples = 256;

/// Stage-count ceiling (sizes the kernel's stack arrays): the correction
/// logic's resolution bound less the smallest (1-bit) flash, so the kernel
/// takes every die PipelineAdc accepts.
inline constexpr std::size_t kMaxStages =
    static_cast<std::size_t>(adc::digital::ErrorCorrection::kMaxResolutionBits - 1);

/// `PlanView::forced_code` entry of a stage whose ADSC decides freely.
inline constexpr int kFreeCode = 2;

/// One stimulus tone, hoisted with the association of SineSignal::value and
/// slope: argument = w·t + phase, value contribution = amp·sin, slope
/// contribution = slope_coef·cos (sin/cos from one fastmath sincos).
struct ToneView {
  double w = 0.0;           ///< 2π·f, left-associated as SineSignal does
  double phase = 0.0;
  double amp = 0.0;
  double slope_coef = 0.0;  ///< (amp·2π)·f
};

/// Everything the kernel reads and never writes: block-uniform scalars,
/// per-lane die parameters, per-(stage, lane) hoisted invariants and the
/// stimulus. All arrays are lane-minor (`[i * L + lane]`), sized as
/// annotated.
struct PlanView {
  // --- geometry ---
  std::size_t num_stages = 0;   ///< 1.5b stages (≤ kMaxStages)
  std::size_t flash_count = 0;  ///< backend flash comparators
  std::size_t slots = 0;        ///< noise-plane slots per sample

  // --- block-uniform scalars ---
  double period = 0.0;           ///< 1 / f_CR [s]
  double settle_s = 0.0;         ///< effective settling window [s]
  double jitter_rms = 0.0;       ///< white aperture jitter sigma [s]
  double walk_rms = 0.0;         ///< random-walk jitter step sigma [s]
  double charge_per_event = 0.0; ///< reference charge per code event [C]
  double decap = 0.0;            ///< reference decoupling [F]
  double recharge_factor = 0.0;  ///< exp(-T/(Rout·C)), hoisted at build
  double fit_vmax2 = 0.0;        ///< sampler surrogate span in z = v²
  double tau_mid = 0.0;          ///< Clenshaw midpoint of the tau surrogate
  double tau_inv_half = 0.0;
  double inj_mid = 0.0;
  double inj_inv_half = 0.0;
  long long corr_offset = 0;     ///< correction accumulator start
  long long max_code = 0;        ///< (1 << bits) - 1
  bool tracking_nonlinearity = false;
  bool injection_on = false;     ///< sampler injection_fraction > 0
  bool thermal_on = false;       ///< per-stage kT/C sampling noise enabled
  bool ripple_on = false;        ///< bias-ripple gain modulation enabled
  bool consume_on = false;       ///< reference droop accumulation enabled
  bool recharge_on = false;      ///< exponential recharge between samples

  // --- block-uniform arrays ---
  const double* tau_coef = nullptr;   ///< [tau_count] Chebyshev coefficients
  std::size_t tau_count = 0;
  const double* inj_coef = nullptr;   ///< [inj_count]
  std::size_t inj_count = 0;
  const double* flash_frac = nullptr; ///< [flash_count] threshold fractions
  const long long* weights = nullptr; ///< [num_stages] correction weights

  // --- per-lane die parameters [L] ---
  const std::uint64_t* noise_key = nullptr;  ///< noise-plane Philox keys
  const double* nominal_vref = nullptr;      ///< bandgap-coupled references
  const double* level_error = nullptr;       ///< static reference level error
  const double* ripple_sigma = nullptr;      ///< per-sample gain ripple sigma

  // --- per-(stage, lane) invariants [num_stages * L] ---
  const double* sigma_sample = nullptr;   ///< kT/C sampling noise sigma
  const double* off_hi = nullptr;         ///< +VREF/4 comparator offsets
  const double* off_lo = nullptr;         ///< -VREF/4 comparator offsets
  const double* noise_hi = nullptr;       ///< comparator input noise sigma
  const double* noise_lo = nullptr;
  const double* meta_hi = nullptr;        ///< metastability half-windows
  const double* meta_lo = nullptr;
  const double* droop_d0 = nullptr;       ///< hold-leakage affine terms
  const double* droop_d1 = nullptr;
  const double* gain = nullptr;           ///< realized interstage gain
  const double* gdac = nullptr;           ///< realized C1/C2 DAC gain
  const double* inv_gain_denom = nullptr; ///< settle coefficients...
  const double* neg_inv_tau0 = nullptr;
  const double* sr = nullptr;
  const double* sr_tau0 = nullptr;
  const double* inv_swing = nullptr;
  const double* gm_compression = nullptr; ///< opamp large-signal params
  const double* output_swing = nullptr;
  /// Forced ADSC decisions (foreground calibration), kFreeCode where the
  /// comparators decide; nullptr when no stage of any lane is forced.
  const int* forced_code = nullptr;

  // --- per-(flash comparator, lane) [flash_count * L] ---
  const double* flash_off = nullptr;
  const double* flash_noise = nullptr;
  const double* flash_meta = nullptr;

  // --- stimulus, shared by every lane; exactly one of the three is set ---
  // (a) tones: a SineSignal (tone_offset, one tone) or a MultiToneSignal
  // (multi_tone, tones accumulated from 0), evaluated in the kernel;
  const ToneView* tones = nullptr;  ///< [tone_count]
  std::size_t tone_count = 0;
  double tone_offset = 0.0;
  bool multi_tone = false;
  // (b) sampled voltages [n]: no clock term, zero slope (convert_samples,
  // convert_dc*);
  const double* voltages = nullptr;
  // (c) any other signal through its baseline-compiled sample_fast.
  const void* signal_ctx = nullptr;
  void (*sample_fn)(const void*, double, double*, double*) = nullptr;

  // --- out-of-span sampler fallback ---
  // Lanes whose v² leaves the Chebyshev span re-run the exact surrogate
  // fallback through these baseline-compiled callbacks (the wide TUs must
  // not instantiate the sampler's code). ctx is a DifferentialSampler,
  // which is die-independent (no Monte-Carlo draws), so one context serves
  // every lane.
  const void* sampler_ctx = nullptr;
  double (*tau_fallback)(const void*, double) = nullptr;
  double (*inj_fallback)(const void*, double) = nullptr;
};

/// Mutable per-capture workspace and outputs. The caller allocates the
/// buffers once and reuses them across captures (hot-path-alloc contract:
/// nothing below is ever grown inside the sample loop).
struct StateView {
  double* scratch = nullptr;  ///< [L * kChunkSamples * slots] die-major fill; unused at L = 1
  double* plane = nullptr;    ///< [kChunkSamples * slots * L] lane-minor rows
  int* const* out = nullptr;  ///< [L] corrected-code buffers, length >= n; nullptr skips
  /// [L] raw buffers, (num_stages + 1) ints per sample: the stage codes
  /// (-1/0/+1), then the flash count; nullptr skips.
  int* const* raw = nullptr;
  /// [L] reference droop in and out, carried across calls; nullptr starts
  /// every lane at zero (a fresh capture) and drops the final state.
  double* droop = nullptr;
};

/// One capture of `n` samples of noise epoch `epoch` through the one-lane
/// kernel (baseline code, fast_kernel.cpp).
void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n);

}  // namespace adc::pipeline::fast
