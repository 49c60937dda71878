/// \file converter.hpp
/// BatchConverter: the one module that converts a group of dies.
///
/// A BatchConverter fabricates D dies from one base configuration plus a
/// seed list and converts whole captures for all of them. It picks each
/// die-block's path itself: a fast-profile block of kLanes dies — or a
/// ragged one holding enough dies to pay for its pad lanes — is written
/// into one FastPlan (pipeline/fast_plan.hpp) and runs through the
/// ISA-dispatched kLanes-wide instantiation of the fast-profile kernel
/// (batch_api.hpp); every other die (the exact profile, a short fast tail)
/// converts through its own PipelineAdc::convert, which for a fast die is
/// the same kernel body at one lane. Results are byte-identical die by die
/// on either path — the wide kernel is a throughput optimization, never a
/// fidelity knob.
///
/// Intended callers: the group forms of the conversion benches
/// (run_dynamic_test_block and run_two_tone_test_block, one converter per
/// die block) and, through them, the scenario runner's execute units.
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
/// part (it fabricates every die once); convert() reuses one chunk
/// workspace across captures and wide blocks.
class BatchConverter {
 public:
  /// Fabricate `seeds.size()` dies from `base` (its `seed` field is
  /// overridden per die): any fidelity profile, at least one seed (throws
  /// adc::common::ConfigError otherwise). `forced_isa` pins the wide
  /// kernel's tier — tests use it to pin cross-tier bit-identity;
  /// production callers leave it empty and get the ADC_BATCH_ISA-aware
  /// runtime selection.
  BatchConverter(const adc::pipeline::AdcConfig& base, std::span<const std::uint64_t> seeds,
                 std::optional<adc::common::BatchIsa> forced_isa = std::nullopt);

  /// True when convert() takes this stimulus (SineSignal or
  /// MultiToneSignal, hoisted into tones); PipelineAdc converts any other
  /// signal die by die.
  [[nodiscard]] static bool supports_signal(const adc::dsp::Signal& signal);

  /// One capture of `n` samples for every die. result[d][k] is
  /// byte-identical to what `PipelineAdc::convert(signal, n)[k]` returns on
  /// a fresh die fabricated with seed `seeds[d]` after the same number of
  /// prior captures: each call advances every die's noise epoch once, on
  /// either path, exactly like repeated scalar convert() calls do.
  [[nodiscard]] std::vector<std::vector<int>> convert(const adc::dsp::Signal& signal,
                                                      std::size_t n);

  [[nodiscard]] std::size_t die_count() const { return seeds_.size(); }
  [[nodiscard]] std::span<const std::uint64_t> seeds() const { return seeds_; }
  [[nodiscard]] adc::common::BatchIsa isa() const { return isa_; }
  [[nodiscard]] int resolution_bits() const { return dies_.front()->resolution_bits(); }
  /// The normalized configuration shared by every die (seed = seeds()[0]).
  [[nodiscard]] const adc::pipeline::AdcConfig& config() const {
    return dies_.front()->config();
  }
  /// Realized (normalized) conversion rate — uniform across the dies; same
  /// value PipelineAdc::conversion_rate() reports on each of them.
  [[nodiscard]] double conversion_rate() const { return dies_.front()->conversion_rate(); }
  /// Full-scale input range [V peak-to-peak], uniform across the dies.
  [[nodiscard]] double full_scale_vpp() const { return dies_.front()->full_scale_vpp(); }

 private:
  std::vector<std::uint64_t> seeds_;
  adc::common::BatchIsa isa_;
  const KernelOps* ops_ = nullptr;

  /// Dies [0, wide_dies_) run in the wide kernel, the rest die by die.
  std::size_t wide_dies_ = 0;

  /// Die d for every die past the wide blocks, plus die 0 for caller
  /// introspection; the other wide dies are dropped once written to plan_.
  std::vector<std::unique_ptr<adc::pipeline::PipelineAdc>> dies_;

  /// The wide dies in blocks of kLanes lanes; a ragged block is padded with
  /// a replica of its first die (lanes are independent, so the replicas
  /// cannot perturb the real dies; their codes land in pad_).
  adc::pipeline::FastPlan plan_;

  // Chunk workspace, allocated once and reused across captures, chunks and
  // wide blocks (hot-path-alloc contract: never grown inside the kernel).
  std::vector<double> scratch_;
  std::vector<double> plane_;
  std::vector<int> pad_;  ///< sink for padded lanes' codes (discarded)

  std::uint64_t epoch_ = 0;  ///< capture counter of the wide dies
};

}  // namespace adc::batch
