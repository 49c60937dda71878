/// \file fast_plan.hpp
/// FastPlan: the owner side of the fast-profile kernel's plan.
///
/// A FastPlan holds the hoisted per-sample invariants of one or more dies
/// in the kernel's structure-of-arrays layout (fast_kernel.hpp): blocks of
/// `stride` lanes, one die per lane. PipelineAdc keeps a one-lane plan of
/// itself; the batch engine (src/batch/) keeps one plan of all its dies in
/// blocks of kLanes. Every plan value is read from a fabricated PipelineAdc,
/// never re-derived from the config, so the kernel consumes the same doubles
/// the die's components hold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "analog/switches.hpp"
#include "dsp/signal.hpp"
#include "pipeline/fast_kernel.hpp"

namespace adc::pipeline {

class PipelineAdc;

class FastPlan {
 public:
  /// An empty plan of `blocks` blocks of `stride` lanes.
  explicit FastPlan(std::size_t stride = 1, std::size_t blocks = 1);

  /// Write die `adc` into lane `lane % stride` of block `lane / stride`.
  /// Writing lane 0 starts the plan: it sizes the arrays and fixes the
  /// block-uniform part from `adc`. Every later write requires the die to
  /// agree with that part bit for bit (throws adc::common::ConfigError):
  /// the dies of one plan share one configuration, and the kernel assumes
  /// it. A die may fill more than one lane (the batch engine pads ragged
  /// blocks with a replica).
  void write_lane(const PipelineAdc& adc, std::size_t lane);

  /// Stimulus of the following captures: a SineSignal or MultiToneSignal
  /// is hoisted into tones the kernel evaluates; any other signal is
  /// sampled through its sample_fast. The signal must outlive the captures.
  void set_signal(const adc::dsp::Signal& signal);
  /// Stimulus of the following captures: already-sampled voltages, one per
  /// sample (no sampling instant, zero slope). Must outlive the captures.
  void set_voltages(const double* voltages);

  /// True when `signal` is hoisted into tones (see set_signal).
  [[nodiscard]] static bool has_tones(const adc::dsp::Signal& signal);

  /// The kernel's view of block `block`.
  [[nodiscard]] fast::PlanView view(std::size_t block) const;

  [[nodiscard]] std::size_t slots() const { return uniform_.slots; }

 private:
  std::size_t stride_;
  std::size_t lanes_;  ///< stride × blocks

  // Block-uniform part, fixed by the lane-0 die.
  fast::PlanView uniform_;  ///< scalars only; view() adds the pointers
  std::optional<adc::analog::DifferentialSampler> sampler_;  ///< fallback context
  std::vector<double> flash_frac_;
  std::vector<long long> weights_;

  // Per-lane arrays: [field][lane] for the die parameters, and
  // [block][field][stage|comparator][stride] for the stage and flash
  // invariants, so each block's view is a set of contiguous matrices.
  std::vector<std::uint64_t> noise_key_;
  std::vector<double> die_lane_;
  std::vector<double> stage_lane_;
  std::vector<double> flash_lane_;
  std::vector<int> forced_;
  bool any_forced_ = false;

  // Stimulus.
  std::vector<fast::ToneView> tones_;
  double tone_offset_ = 0.0;
  bool multi_tone_ = false;
  const double* voltages_ = nullptr;
  const adc::dsp::Signal* signal_ = nullptr;
};

}  // namespace adc::pipeline
