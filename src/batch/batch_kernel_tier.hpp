/// \file batch_kernel_tier.hpp
/// The four entry points of one batch ISA tier.
///
/// Include this from a translation unit that defines ADC_BATCH_ISA_NS to the
/// tier's namespace name (sse2 / avx2 / avx512) and is compiled with the
/// matching target flags. The conversion kernel is the fast-profile kernel
/// body (pipeline/fast_kernel_impl.hpp) at L = kLanes, instantiated with
/// internal linkage inside this tier's namespace.

#ifndef ADC_BATCH_ISA_NS
#error "batch_kernel_tier.hpp: define ADC_BATCH_ISA_NS before including"
#endif

#include "batch/batch_api.hpp"

#define ADC_FAST_KERNEL_NS adc::batch::ADC_BATCH_ISA_NS
#include "pipeline/fast_kernel_impl.hpp"

namespace adc::batch::ADC_BATCH_ISA_NS {

void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n) {
  capture<kLanes>(plan, state, epoch, n);
}

void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out,
                 std::size_t n) {
  adc::common::tile::philox_normal_fill_ptr(key, stream, first, out, n);
}

void exp_span(const double* x, double* out, std::size_t n) {
  adc::common::spanmath::exp_span(x, out, n);
}

void sincos_span(const double* x, double* sin_out, double* cos_out, std::size_t n) {
  adc::common::spanmath::sincos_span(x, sin_out, cos_out, n);
}

}  // namespace adc::batch::ADC_BATCH_ISA_NS
