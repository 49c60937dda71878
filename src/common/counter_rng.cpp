#include "common/counter_rng.hpp"

#include <cstddef>

#include "common/counter_rng_tile.hpp"

namespace adc::common {

void philox_normal_fill(std::uint64_t key, std::uint64_t stream, std::uint64_t first,
                        std::span<double> out) {
  // Body lives in counter_rng_tile.hpp so the fast kernel's translation
  // units (the one-lane baseline one and the batch engine's per-ISA ones)
  // re-compile the identical algorithm inline.
  tile::philox_normal_fill_ptr(key, stream, first, out.data(), out.size());
}

}  // namespace adc::common
