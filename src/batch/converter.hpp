/// \file converter.hpp
/// BatchConverter: the owner side of the batch conversion engine.
///
/// A BatchConverter fabricates D dies from one base configuration plus a
/// seed list, writes them into one FastPlan (pipeline/fast_plan.hpp) in
/// die-blocks of kLanes lanes, and runs whole captures through the
/// ISA-dispatched kLanes-wide instantiation of the fast-profile kernel
/// (batch_api.hpp). PipelineAdc::convert() runs the same kernel body at one
/// lane, so results are byte-identical die by die — the engine is a
/// throughput optimization, never a fidelity knob.
///
/// Intended callers: the Monte-Carlo testbench (one converter per die
/// block, blocks distributed by parallel_map) and the scenario runner
/// (consecutive fast-profile jobs that differ only in seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "batch/batch_api.hpp"
#include "common/isa_dispatch.hpp"
#include "dsp/signal.hpp"
#include "pipeline/adc.hpp"

namespace adc::batch {

/// Converts captures for a set of dies that share one configuration and
/// differ only in their Monte-Carlo seed. Construction is the expensive
/// part (it fabricates every die once to extract the plan); convert() is
/// allocation-free per sample and reuses one chunk workspace across
/// captures and die-blocks.
class BatchConverter {
 public:
  /// Fabricate `seeds.size()` dies from `base` (its `seed` field is
  /// overridden per die). `forced_isa` pins the kernel tier — tests use it
  /// to pin cross-tier bit-identity; production callers leave it empty and
  /// get the ADC_BATCH_ISA-aware runtime selection. Throws
  /// adc::common::ConfigError if the configuration is outside the batch
  /// engine's contract (see supports_config()).
  BatchConverter(const adc::pipeline::AdcConfig& base, std::span<const std::uint64_t> seeds,
                 std::optional<adc::common::BatchIsa> forced_isa = std::nullopt);

  /// True when the batch engine can take this configuration: the fast
  /// fidelity profile (the kernel takes every stage count PipelineAdc does).
  [[nodiscard]] static bool supports_config(const adc::pipeline::AdcConfig& config);

  /// True when the batch engine converts this stimulus (SineSignal or
  /// MultiToneSignal, hoisted into tones); PipelineAdc converts any other
  /// signal die by die.
  [[nodiscard]] static bool supports_signal(const adc::dsp::Signal& signal);

  /// supports_config && supports_signal.
  [[nodiscard]] static bool supports(const adc::pipeline::AdcConfig& config,
                                     const adc::dsp::Signal& signal);

  /// One capture of `n` samples for every die. result[d][k] is
  /// byte-identical to what `PipelineAdc::convert(signal, n)[k]` returns on
  /// a fresh die fabricated with seed `seeds[d]` after the same number of
  /// prior captures. Captures advance the shared noise epoch exactly like
  /// repeated scalar convert() calls do.
  [[nodiscard]] std::vector<std::vector<int>> convert(const adc::dsp::Signal& signal,
                                                      std::size_t n);

  [[nodiscard]] std::size_t die_count() const { return seeds_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> seeds() const { return seeds_; }
  [[nodiscard]] adc::common::BatchIsa isa() const { return isa_; }
  [[nodiscard]] int resolution_bits() const { return ref_adc_->resolution_bits(); }
  /// The normalized configuration shared by every die (seed = seeds()[0]).
  [[nodiscard]] const adc::pipeline::AdcConfig& config() const { return ref_adc_->config(); }
  /// Realized (normalized) conversion rate — uniform across the dies; same
  /// value PipelineAdc::conversion_rate() reports on each of them.
  [[nodiscard]] double conversion_rate() const { return ref_adc_->conversion_rate(); }
  /// Full-scale input range [V peak-to-peak], uniform across the dies.
  [[nodiscard]] double full_scale_vpp() const { return ref_adc_->full_scale_vpp(); }

 private:
  std::vector<std::uint64_t> seeds_;
  adc::common::BatchIsa isa_;
  const KernelOps* ops_ = nullptr;

  /// First die, kept alive for caller introspection.
  std::unique_ptr<adc::pipeline::PipelineAdc> ref_adc_;

  /// Every die in blocks of kLanes lanes; ragged blocks are padded with a
  /// replica of their first die (lanes are independent, so the replicas
  /// cannot perturb the real dies; their codes land in pad_).
  adc::pipeline::FastPlan plan_;

  // Chunk workspace, allocated once and reused across captures, chunks and
  // die-blocks (hot-path-alloc contract: never grown inside the kernel).
  std::vector<double> scratch_;
  std::vector<double> plane_;
  std::vector<int> pad_;  ///< sink for padded lanes' codes (discarded)

  std::uint64_t epoch_ = 0;  ///< capture counter shared by every die
};

}  // namespace adc::batch
