/// \file batch_api.hpp
/// Kernel interface of the batch conversion engine.
///
/// The batch engine marches S samples × kLanes dies through the fast-profile
/// stage chain in structure-of-arrays form, one *die per SIMD lane*. Its
/// kernel is the fast-profile kernel body (pipeline/fast_kernel_impl.hpp)
/// at L = kLanes, compiled three times — baseline SSE2, AVX2, AVX-512 — and
/// driven through the same POD views (pipeline/fast_kernel.hpp) as the
/// one-lane instantiation PipelineAdc runs. BatchConverter (converter.hpp)
/// owns the arrays, builds the views and decides which die-blocks are worth
/// running this wide; callers hand it any group of dies.
///
/// Bit-identity contract: for any die, the codes produced through this
/// interface are byte-identical to `PipelineAdc::convert()` under the fast
/// profile, on every ISA tier, at any batch shape — pinned by
/// tests/test_batch.cpp.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/isa_dispatch.hpp"
#include "pipeline/fast_kernel.hpp"

namespace adc::batch {

/// Dies per die-block: one per SIMD lane of the widest tier (AVX-512 holds
/// 8 doubles). Fixed at compile time so every lane temporary is a stack
/// array with a constant trip count — the shape the auto-vectorizer wants.
/// Ragged blocks are padded by replicating a real die; pad results are
/// discarded (lanes are independent, so padding cannot perturb real lanes).
inline constexpr std::size_t kLanes = 8;

using adc::pipeline::fast::PlanView;
using adc::pipeline::fast::StateView;

/// Per-ISA entry points (one strong symbol per tier; see the kernel TUs).
/// `convert_capture` runs one full capture of `n` samples for all kLanes
/// dies; `normal_fill`/`exp_span`/`sincos_span` are the SoA math ports,
/// exported so tests can pin cross-tier bit-identity directly.
namespace sse2 {
void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n);
void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out,
                 std::size_t n);
void exp_span(const double* x, double* out, std::size_t n);
void sincos_span(const double* x, double* sin_out, double* cos_out, std::size_t n);
}  // namespace sse2
namespace avx2 {
void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n);
void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out,
                 std::size_t n);
void exp_span(const double* x, double* out, std::size_t n);
void sincos_span(const double* x, double* sin_out, double* cos_out, std::size_t n);
}  // namespace avx2
namespace avx512 {
void convert_capture(const PlanView& plan, const StateView& state, std::uint64_t epoch,
                     std::size_t n);
void normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first, double* out,
                 std::size_t n);
void exp_span(const double* x, double* out, std::size_t n);
void sincos_span(const double* x, double* sin_out, double* cos_out, std::size_t n);
}  // namespace avx512

/// The function-pointer table runtime dispatch selects from.
struct KernelOps {
  void (*convert_capture)(const PlanView&, const StateView&, std::uint64_t, std::size_t) =
      nullptr;
  void (*normal_fill)(std::uint64_t, std::uint64_t, std::uint64_t, double*, std::size_t) =
      nullptr;
  void (*exp_span)(const double*, double*, std::size_t) = nullptr;
  void (*sincos_span)(const double*, double*, double*, std::size_t) = nullptr;
};

/// Kernel table for `isa`. The caller is responsible for not requesting a
/// tier the CPU cannot execute (adc::common::active_batch_isa() and
/// resolve_batch_isa() already clamp).
[[nodiscard]] const KernelOps& kernel_ops(adc::common::BatchIsa isa);

}  // namespace adc::batch
