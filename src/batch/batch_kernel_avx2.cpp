/// AVX2 tier: 256-bit lanes. FMA is *not* allowed to fuse (-ffp-contract=off
/// on this TU) — contraction would change rounding and break the cross-tier
/// bit-identity contract.
#define ADC_BATCH_ISA_NS avx2
#include "batch/batch_kernel_tier.hpp"
