#pragma once
/// \file random.hpp
/// Deterministic, seedable randomness for all of ASPEN.
///
/// Every stochastic experiment in the repo (Haar ensembles, fabrication
/// error sampling, datasets and training, fault injection campaigns)
/// draws from an `Rng` handed down explicitly — there is no hidden global
/// generator, so every table a `bench_*` binary prints, and the
/// `BENCH_e2.json` / `BENCH_e7.json` rows it writes, is reproducible from
/// its stated seed. The photonic datapath's detector and laser noise
/// instead comes from the counter-based draws of lina/philox.hpp.

#include <cstdint>
#include <random>
#include <vector>

#include "lina/complex_matrix.hpp"

namespace aspen::lina {

/// Thin deterministic wrapper over mt19937_64 with the distributions the
/// rest of the codebase needs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eedULL) : eng_(seed) {}

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo = 0.0, double hi = 1.0) {
    return std::uniform_real_distribution<double>(lo, hi)(eng_);
  }

  /// Standard normal scaled by sigma, centered on mu.
  [[nodiscard]] double gaussian(double mu = 0.0, double sigma = 1.0) {
    return std::normal_distribution<double>(mu, sigma)(eng_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t uniform_int(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(eng_);
  }

  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p) {
    return std::bernoulli_distribution(p)(eng_);
  }

  /// Poisson sample (used by shot-noise and spike encoders).
  [[nodiscard]] std::uint64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    return std::poisson_distribution<std::uint64_t>(mean)(eng_);
  }

  /// Exponentially distributed waiting time with given rate (1/mean).
  [[nodiscard]] double exponential(double rate) {
    return std::exponential_distribution<double>(rate)(eng_);
  }

  /// Standard complex Gaussian (Ginibre) entry.
  [[nodiscard]] cplx cgaussian() {
    return cplx{gaussian(0.0, 1.0), gaussian(0.0, 1.0)};
  }

  /// Derive an independent child generator (for parallel campaigns).
  [[nodiscard]] Rng fork() { return Rng(eng_()); }

  [[nodiscard]] std::mt19937_64& engine() { return eng_; }

 private:
  std::mt19937_64 eng_;
};

/// Haar-distributed random N x N unitary, via QR of a complex Ginibre
/// matrix with the R-diagonal phase fix (Mezzadri, AMS Notices 54 (2007)).
[[nodiscard]] CMat haar_unitary(std::size_t n, Rng& rng);

/// Random complex matrix with i.i.d. standard complex Gaussian entries.
[[nodiscard]] CMat ginibre(std::size_t rows, std::size_t cols, Rng& rng);

/// Random real matrix with entries uniform in [lo, hi], returned as CMat
/// with zero imaginary parts (weight matrices for the MVM experiments).
[[nodiscard]] CMat random_real(std::size_t rows, std::size_t cols, Rng& rng,
                               double lo = -1.0, double hi = 1.0);

/// Random unit-power complex input vector (optical field amplitudes).
[[nodiscard]] CVec random_state(std::size_t n, Rng& rng);

}  // namespace aspen::lina
