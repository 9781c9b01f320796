#ifndef WDSPARQL_UTIL_RNG_H_
#define WDSPARQL_UTIL_RNG_H_

#include <cstdint>
#include <vector>

#include "wdsparql/check.h"

/// \file
/// Deterministic pseudo-random number generation.
///
/// All synthetic workloads (graph generators, random query families) are
/// seeded explicitly so that every experiment in EXPERIMENTS.md is exactly
/// reproducible. We use our own splitmix64/xoshiro mix rather than
/// std::mt19937 so the stream is stable across standard libraries.

namespace wdsparql {

/// Deterministic 64-bit PRNG (splitmix64).
///
/// Not cryptographically secure; intended for workload synthesis only.
class Rng {
 public:
  /// Creates a generator with the given seed. Equal seeds yield equal
  /// streams on every platform.
  explicit Rng(uint64_t seed) : state_(seed + 0x9e3779b97f4a7c15ULL) {}

  /// Returns the next raw 64-bit value.
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Returns a uniform integer in [0, bound). `bound` must be positive.
  uint64_t NextBounded(uint64_t bound) {
    WDSPARQL_CHECK(bound > 0);
    // Rejection sampling to avoid modulo bias.
    uint64_t threshold = -bound % bound;
    for (;;) {
      uint64_t r = Next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Returns a uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    WDSPARQL_CHECK(lo <= hi);
    return lo + static_cast<int64_t>(NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Returns a uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Returns true with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p) { return NextDouble() < p; }

  /// Fisher-Yates shuffles `items` in place.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(NextBounded(i));
      std::swap(items[i - 1], items[j]);
    }
  }

 private:
  uint64_t state_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_UTIL_RNG_H_
