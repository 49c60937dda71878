/// Baseline tier: plain x86-64 SSE2 (the ABI floor; no extra target flags).
/// Compiled with -ffp-contract=off like the wide tiers so every tier rounds
/// identically — see pipeline/fast_kernel_impl.hpp.
#define ADC_BATCH_ISA_NS sse2
#include "batch/batch_kernel_tier.hpp"
