/// \file converter.cpp
/// Die fabrication and capture driving for the batch conversion engine.
///
/// Construction fabricates every die once and writes it into the shared
/// FastPlan (which verifies the dies agree on everything config-derived);
/// the per-sample work all lives in the ISA-dispatched kernel.
#include "batch/converter.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace adc::batch {

BatchConverter::BatchConverter(const adc::pipeline::AdcConfig& base,
                               std::span<const std::uint64_t> seeds,
                               std::optional<adc::common::BatchIsa> forced_isa)
    : seeds_(seeds.begin(), seeds.end()) {
  adc::common::require(!seeds_.empty(), "BatchConverter: need at least one die seed");
  adc::common::require(supports_config(base),
                       "BatchConverter: config outside the batch contract (fast profile)");
  isa_ = forced_isa ? *forced_isa : adc::common::active_batch_isa();
  ops_ = &kernel_ops(isa_);
  plan_ = adc::pipeline::FastPlan(kLanes, (seeds_.size() + kLanes - 1) / kLanes);

  adc::pipeline::AdcConfig cfg = base;
  for (std::size_t d = 0; d < seeds_.size(); ++d) {
    cfg.seed = seeds_[d];
    std::unique_ptr<adc::pipeline::PipelineAdc> die =
        std::make_unique<adc::pipeline::PipelineAdc>(cfg);  // lint-ok: construction-time
    plan_.write_lane(*die, d);
    if (d % kLanes == 0) {
      // A block's first die also fills the block's padding lanes.
      for (std::size_t pad = std::min(seeds_.size(), d + kLanes); pad < d + kLanes; ++pad) {
        plan_.write_lane(*die, pad);
      }
    }
    if (d == 0) ref_adc_ = std::move(die);
  }

  // One chunk workspace for the whole converter (reused by every block of
  // every capture; the kernel never allocates).
  scratch_.assign(kLanes * adc::pipeline::fast::kChunkSamples * plan_.slots(), 0.0);
  plane_.assign(kLanes * adc::pipeline::fast::kChunkSamples * plan_.slots(), 0.0);
}

bool BatchConverter::supports_config(const adc::pipeline::AdcConfig& config) {
  return config.fidelity == adc::common::FidelityProfile::kFast;
}

bool BatchConverter::supports_signal(const adc::dsp::Signal& signal) {
  return adc::pipeline::FastPlan::has_tones(signal);
}

bool BatchConverter::supports(const adc::pipeline::AdcConfig& config,
                              const adc::dsp::Signal& signal) {
  return supports_config(config) && supports_signal(signal);
}

std::vector<std::vector<int>> BatchConverter::convert(const adc::dsp::Signal& signal,
                                                      std::size_t n) {
  // Captures share one epoch counter across every die, mirroring the
  // sequence "fresh die, k-th convert() call" die by die.
  const std::uint64_t epoch = ++epoch_;
  if (!supports_signal(signal)) {
    throw adc::common::ConfigError(
        "BatchConverter::convert: unsupported stimulus (see supports_signal)");
  }
  plan_.set_signal(signal);

  std::vector<std::vector<int>> results(seeds_.size());
  if (seeds_.size() % kLanes != 0 && pad_.size() < n) pad_.resize(n);
  for (std::size_t first = 0; first < seeds_.size(); first += kLanes) {
    std::array<int*, kLanes> out{};
    for (std::size_t l = 0; l < kLanes; ++l) {
      if (first + l < seeds_.size()) {
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
  return results;
}

}  // namespace adc::batch
