/// The one-lane instantiation of the fast-profile kernel: PipelineAdc's
/// fast conversions. Baseline code, compiled with the same
/// -ffp-contract=off -fno-math-errno -fno-trapping-math flags as the batch
/// tiers (pipeline/CMakeLists.txt) so L = 1 rounds exactly like L = kLanes.
#define ADC_FAST_KERNEL_NS adc::pipeline::fast
#include "pipeline/fast_kernel_impl.hpp"

namespace adc::pipeline::fast {

void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n) {
  capture<1>(plan, state, epoch, n);
}

}  // namespace adc::pipeline::fast
