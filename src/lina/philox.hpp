#pragma once
/// \file philox.hpp
/// Counter-based normal variates for the photonic datapath's noise.
///
/// A draw is a pure function of a 64-bit key and a 128-bit counter:
/// Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as 1,
/// 2, 3", SC 2011) turns the pair into four 32-bit words, and a 256-layer
/// ziggurat (Marsaglia and Tsang, "The Ziggurat Method for Generating
/// Random Variables", JSS 5(8), 2000) turns each 64-bit half into a
/// standard normal. Code that can name a draw's position gets the same
/// value in any order and holds no generator state. Everything else in
/// ASPEN keeps the sequential lina::Rng.

#include <array>
#include <cstdint>

namespace aspen::lina {

using PhiloxCounter = std::array<std::uint32_t, 4>;
using PhiloxKey = std::array<std::uint32_t, 2>;

/// One Philox4x32-10 block: ten rounds of the counter under the key.
[[nodiscard]] PhiloxCounter philox4x32_10(PhiloxCounter ctr, PhiloxKey key);

/// Two independent standard normals at counter `ctr` of stream `key`
/// (split low word first). Normal w takes 64-bit word w of the block
/// (32-bit words 2w and 2w + 1, low first): 8 bits pick the ziggurat
/// layer, 1 bit the sign and 52 bits the magnitude (NumPy's layout).
/// Under 1 draw in 100 falls in a wedge or the tail and needs more
/// words; its k-th further word is word w of the block whose counter is
/// `ctr` with k added to ctr[3]. Callers keep the low 24 bits of ctr[3]
/// zero, so no two draws share a block.
[[nodiscard]] std::array<double, 2> philox_normal_pair(std::uint64_t key,
                                                       PhiloxCounter ctr);

}  // namespace aspen::lina
