// Deterministic random number generation.
//
// All randomness in the system (workload generation, scheduler tie-breaking,
// failure injection) flows through `Rng` so that a fixed seed reproduces an
// identical run — a requirement for the deterministic benchmark traces and
// the property-based test suites.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace lotec {

/// SplitMix64 finalizer: the system's one integer mixer.  It spreads object
/// ids over directory placements and ring tokens, derives per-family and
/// per-batch seeds, and seeds Rng.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// xoshiro256** by Blackman & Vigna: fast, high quality, tiny state, and —
/// unlike std::mt19937 across standard libraries — bit-for-bit portable.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    // SplitMix64 seeding, as recommended by the xoshiro authors.
    for (auto& s : state_) {
      s = mix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    if (bound == 0) throw UsageError("Rng::below: bound must be positive");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw UsageError("Rng::between: lo > hi");
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  double uniform() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p) noexcept { return uniform() < p; }

  /// Zipf-like skewed choice over [0, n): index i is chosen with weight
  /// 1/(i+1)^theta.  theta == 0 is uniform; larger theta concentrates
  /// accesses on low indices (the "hot set"), which is how the workload
  /// generator induces the paper's high-contention scenarios.
  std::size_t zipf(std::size_t n, double theta);

  /// Derive an independent child generator (for splitting streams between
  /// subsystems without correlating them).
  Rng split() noexcept { return Rng(next() ^ 0xd1342543de82ef95ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4] = {};
};

/// Precomputed Zipf sampler for repeated draws with fixed (n, theta).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double theta);

  [[nodiscard]] std::size_t draw(Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative weights
};

}  // namespace lotec
