#include "lina/philox.hpp"

#include <cmath>
#include <cstring>

namespace aspen::lina {

namespace {

/// Right edge of the base layer, and the area of each of the 256 layers
/// (Marsaglia and Tsang's constants for 256 layers, as NumPy uses them).
constexpr double kR = 3.6541528853610088;
constexpr double kV = 0.00492867323399;
constexpr double kMagnitude = 4503599627370496.0;  // 2^52
constexpr std::uint64_t kMagnitudeMask = (std::uint64_t{1} << 52) - 1;

/// Layer tables: a magnitude below k[i] lies inside layer i's rectangle
/// core; w[i] scales a magnitude to x; f[i] is exp(-x_i^2 / 2) at the
/// layer's right edge x_i (f[0] = 1 at the top, layer 255 sits on the
/// base layer 0, which includes the tail beyond kR).
struct Ziggurat {
  std::uint64_t k[256];
  double w[256];
  double f[256];
};

Ziggurat build_ziggurat() {
  Ziggurat z{};
  double dn = kR;
  double tn = kR;
  const double q = kV / std::exp(-0.5 * dn * dn);
  z.k[0] = static_cast<std::uint64_t>((dn / q) * kMagnitude);
  z.k[1] = 0;
  z.w[0] = q / kMagnitude;
  z.w[255] = dn / kMagnitude;
  z.f[0] = 1.0;
  z.f[255] = std::exp(-0.5 * dn * dn);
  for (int i = 254; i >= 1; --i) {
    dn = std::sqrt(-2.0 * std::log(kV / dn + std::exp(-0.5 * dn * dn)));
    z.k[i + 1] = static_cast<std::uint64_t>((dn / tn) * kMagnitude);
    tn = dn;
    z.f[i] = std::exp(-0.5 * dn * dn);
    z.w[i] = dn / kMagnitude;
  }
  return z;
}

const Ziggurat& ziggurat() {
  static const Ziggurat z = build_ziggurat();
  return z;
}

std::uint64_t word(const PhiloxCounter& block, int w) {
  return block[2 * w] | (std::uint64_t{block[2 * w + 1]} << 32);
}

/// Uniform in [0, 1) from the top 53 bits of a word.
double uniform(std::uint64_t u) {
  return static_cast<double>(u >> 11) * (1.0 / 9007199254740992.0);
}

/// The slow path of one normal whose first word `u` missed its layer's
/// core: the wedge test, the tail, or a fresh word after a rejection.
/// Word w of the block at attempt k (k added to ctr[3]) is its k-th
/// further word.
double normal_slow(std::uint64_t u, std::uint64_t key, PhiloxCounter ctr,
                   int w) {
  const Ziggurat& z = ziggurat();
  const PhiloxKey k{static_cast<std::uint32_t>(key),
                    static_cast<std::uint32_t>(key >> 32)};
  std::uint32_t attempt = 0;
  const auto next = [&] {
    PhiloxCounter c = ctr;
    c[3] += ++attempt;
    return word(philox4x32_10(c, k), w);
  };
  for (;;) {
    const unsigned idx = u & 0xff;
    const bool negative = ((u >> 8) & 1) != 0;
    const std::uint64_t rabs = (u >> 9) & kMagnitudeMask;
    const double x = static_cast<double>(rabs) * z.w[idx];
    if (rabs < z.k[idx]) return negative ? -x : x;
    if (idx == 0) {
      // Tail beyond kR (Marsaglia, Ann. Math. Stat. 35 (1964)); 1 - U
      // keeps the logarithms finite.
      for (;;) {
        const double xx = -std::log1p(-uniform(next())) / kR;
        const double yy = -std::log1p(-uniform(next()));
        if (yy + yy > xx * xx) return negative ? -(kR + xx) : kR + xx;
      }
    }
    if ((z.f[idx - 1] - z.f[idx]) * uniform(next()) + z.f[idx] <
        std::exp(-0.5 * x * x))
      return negative ? -x : x;
    u = next();
  }
}

}  // namespace

PhiloxCounter philox4x32_10(PhiloxCounter c, PhiloxKey k) {
  constexpr std::uint64_t kM0 = 0xD2511F53;
  constexpr std::uint64_t kM1 = 0xCD9E8D57;
  for (int round = 0; round < 10; ++round) {
    if (round > 0) {
      k[0] += 0x9E3779B9;  // Weyl key schedule
      k[1] += 0xBB67AE85;
    }
    const std::uint64_t p0 = kM0 * c[0];
    const std::uint64_t p1 = kM1 * c[2];
    c = {static_cast<std::uint32_t>(p1 >> 32) ^ c[1] ^ k[0],
         static_cast<std::uint32_t>(p1),
         static_cast<std::uint32_t>(p0 >> 32) ^ c[3] ^ k[1],
         static_cast<std::uint32_t>(p0)};
  }
  return c;
}

std::array<double, 2> philox_normal_pair(std::uint64_t key, PhiloxCounter ctr) {
  const PhiloxCounter block = philox4x32_10(
      ctr, {static_cast<std::uint32_t>(key),
            static_cast<std::uint32_t>(key >> 32)});
  const Ziggurat& z = ziggurat();
  std::array<double, 2> out;
  for (int w = 0; w < 2; ++w) {
    const std::uint64_t u = word(block, w);
    const unsigned idx = u & 0xff;
    const std::uint64_t rabs = (u >> 9) & kMagnitudeMask;
    if (rabs < z.k[idx]) {  // over 99% of draws end here
      // The sign bit moves into the double's sign: a branch on it would
      // be mispredicted half of the time.
      const double x = static_cast<double>(static_cast<std::int64_t>(rabs)) *
                       z.w[idx];
      std::uint64_t b;
      std::memcpy(&b, &x, sizeof b);
      b ^= (u & 0x100) << 55;
      std::memcpy(&out[w], &b, sizeof b);
    } else {
      out[w] = normal_slow(u, key, ctr, w);
    }
  }
  return out;
}

}  // namespace aspen::lina
