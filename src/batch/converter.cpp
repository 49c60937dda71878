/// \file converter.cpp
/// Die fabrication, path choice and capture driving for the batch
/// conversion engine.
///
/// Construction fabricates every die once, writes the wide ones into the
/// shared FastPlan (which verifies the dies agree on everything
/// config-derived) and keeps the rest; the per-sample work all lives in the
/// fast-profile kernel, kLanes wide or one lane per die.
#include "batch/converter.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace adc::batch {

namespace {

/// Fewest dies a ragged block needs before the wide kernel pays. The block
/// still runs a full kLanes-wide pass (pad lanes do real work whose codes
/// are discarded), so g dies cost about one 8-lane capture — ~2-3x a
/// *single* one-lane die. Measured on the dev box the crossover sits
/// between 3 and 4 dies; a shorter tail converts die by die.
constexpr std::size_t kMinBatchDies = 4;

}  // namespace

BatchConverter::BatchConverter(const adc::pipeline::AdcConfig& base,
                               std::span<const std::uint64_t> seeds,
                               std::optional<adc::common::BatchIsa> forced_isa)
    : seeds_(seeds.begin(), seeds.end()) {
  adc::common::require(!seeds_.empty(), "BatchConverter: need at least one die seed");
  isa_ = forced_isa ? *forced_isa : adc::common::active_batch_isa();
  ops_ = &kernel_ops(isa_);
  if (base.fidelity == adc::common::FidelityProfile::kFast) {
    const std::size_t tail = seeds_.size() % kLanes;
    wide_dies_ = tail >= kMinBatchDies ? seeds_.size() : seeds_.size() - tail;
  }
  if (wide_dies_ > 0) {
    plan_ = adc::pipeline::FastPlan(kLanes, (wide_dies_ + kLanes - 1) / kLanes);
  }

  dies_.resize(seeds_.size());
  adc::pipeline::AdcConfig cfg = base;
  for (std::size_t d = 0; d < seeds_.size(); ++d) {
    cfg.seed = seeds_[d];
    std::unique_ptr<adc::pipeline::PipelineAdc> die =
        std::make_unique<adc::pipeline::PipelineAdc>(cfg);  // lint-ok: construction-time
    if (d < wide_dies_) {
      plan_.write_lane(*die, d);
      if (d % kLanes == 0) {
        // A block's first die also fills the block's padding lanes.
        for (std::size_t pad = std::min(wide_dies_, d + kLanes); pad < d + kLanes; ++pad) {
          plan_.write_lane(*die, pad);
        }
      }
      if (d > 0) continue;
    }
    dies_[d] = std::move(die);
  }

  if (wide_dies_ > 0) {
    // One chunk workspace for the whole converter (reused by every wide
    // block of every capture; the kernel never allocates).
    scratch_.assign(kLanes * adc::pipeline::fast::kChunkSamples * plan_.slots(), 0.0);
    plane_.assign(kLanes * adc::pipeline::fast::kChunkSamples * plan_.slots(), 0.0);
  }
}

bool BatchConverter::supports_signal(const adc::dsp::Signal& signal) {
  return adc::pipeline::FastPlan::has_tones(signal);
}

std::vector<std::vector<int>> BatchConverter::convert(const adc::dsp::Signal& signal,
                                                      std::size_t n) {
  if (!supports_signal(signal)) {
    throw adc::common::ConfigError(
        "BatchConverter::convert: unsupported stimulus (see supports_signal)");
  }
  std::vector<std::vector<int>> results(seeds_.size());

  // Wide blocks share one epoch counter, mirroring the sequence "fresh die,
  // k-th convert() call" die by die.
  const std::uint64_t epoch = ++epoch_;
  if (wide_dies_ > 0) plan_.set_signal(signal);
  if (wide_dies_ % kLanes != 0 && pad_.size() < n) pad_.resize(n);
  for (std::size_t first = 0; first < wide_dies_; first += kLanes) {
    std::array<int*, kLanes> out{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (first + l < wide_dies_) {
        std::vector<int>& codes = results[first + l];
        codes.resize(n);
        out[l] = codes.data();
      } else {
        out[l] = pad_.data();
      }
    }
    const StateView st{scratch_.data(), plane_.data(), out.data(), nullptr, nullptr};
    ops_->convert_capture(plan_.view(first / kLanes), st, epoch, n);
  }

  // Every other die advances its own epoch.
  for (std::size_t d = wide_dies_; d < seeds_.size(); ++d) {
    results[d] = dies_[d]->convert(signal, n);
  }
  return results;
}

}  // namespace adc::batch
