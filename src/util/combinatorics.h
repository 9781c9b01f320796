#ifndef WDSPARQL_UTIL_COMBINATORICS_H_
#define WDSPARQL_UTIL_COMBINATORICS_H_

#include <cstdint>
#include <vector>

#include "wdsparql/check.h"

/// \file
/// Subset and combination enumeration helpers.
///
/// Used by the treewidth subset DP, subtree enumeration, and the
/// children-assignment enumeration behind GtG(T). All enumerations are in
/// a deterministic order so experiment output is stable.

namespace wdsparql {

/// Calls `fn(combination)` for every size-`k` subset of {0,...,n-1}, in
/// lexicographic order. `combination` is a sorted vector of indices.
template <typename Fn>
void ForEachCombination(int n, int k, Fn&& fn) {
  WDSPARQL_CHECK(k >= 0 && n >= 0);
  if (k > n) return;
  std::vector<int> idx(k);
  for (int i = 0; i < k; ++i) idx[i] = i;
  for (;;) {
    fn(const_cast<const std::vector<int>&>(idx));
    // Advance to the next combination.
    int i = k - 1;
    while (i >= 0 && idx[i] == n - k + i) --i;
    if (i < 0) return;
    ++idx[i];
    for (int j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
  }
}

/// Calls `fn(mask)` for every subset mask of {0,...,n-1} (0 .. 2^n-1) in
/// increasing numeric order. Requires n <= 30.
template <typename Fn>
void ForEachSubsetMask(int n, Fn&& fn) {
  WDSPARQL_CHECK(n >= 0 && n <= 30);
  for (uint32_t mask = 0; mask < (1u << n); ++mask) fn(mask);
}

/// Returns the indices of set bits in `mask`, ascending.
std::vector<int> MaskToIndices(uint64_t mask);

/// Returns n-choose-k as double (for reporting; saturates gracefully).
double BinomialCoefficient(int n, int k);

}  // namespace wdsparql

#endif  // WDSPARQL_UTIL_COMBINATORICS_H_
