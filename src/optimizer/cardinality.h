#ifndef WDSPARQL_OPTIMIZER_CARDINALITY_H_
#define WDSPARQL_OPTIMIZER_CARDINALITY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/dictionary.h"
#include "engine/read_view.h"

/// \file
/// Cardinality statistics over one immutable base (the optimizer's
/// input, RDF-3X style).
///
/// RDF-3X keeps, next to its six full permutation indexes, *aggregated*
/// indexes that store counts instead of triples: how many triples share
/// a given S value, a given (S,P) prefix, and so on. Those counts are
/// what turns a cost model from guesswork into arithmetic — the
/// selectivity of a triple pattern with bound positions is an exact
/// lookup, not an estimate. This store keeps three permutations
/// (SPO/POS/OSP), so one linear pass over each yields the six
/// aggregates that matter for planning:
///
///   SPO  ->  count per S value,  count per (S,P) prefix
///   POS  ->  count per P value,  count per (P,O) prefix
///   OSP  ->  count per O value,  count per (O,S) prefix
///
/// A `CardinalityStats` is immutable and describes exactly one set of
/// base runs — the engine builds it when the base changes (delta merge
/// / Compact / Checkpoint) and hangs it off `BaseRuns`, so every pinned
/// `ReadView` carries the statistics consistent with the runs it scans.
/// Pending delta triples are *not* reflected (folding them in on every
/// write would put a linear pass on the commit path). The merge's copy
/// budget bounds them: below base size N + `merge_threshold` T, and
/// about sqrt(2b(N + T)) for commits of b triples — ~17% of the base at
/// b = 4096, N = 287k. The planner treats stats as a slightly stale
/// census, which estimation tolerates by design.
///
/// The entry structs double as the on-disk snapshot section images
/// (sections 6..11, see docs/FILE_FORMAT.md): fixed 16-byte layouts,
/// explicit padding, sorted by key so the reader can validate and
/// binary-search them in place. Like `EncRun`, the arrays are either
/// owned (built in memory) or borrowed from a mapped snapshot kept
/// alive by `keepalive_`.

namespace wdsparql {

/// On-disk / in-memory entry: number of base triples whose `pos`
/// component equals `id`.
struct ValueCount {
  DataId id = 0;
  uint32_t pad = 0;  ///< Zero on disk; keeps the layout explicit.
  uint64_t count = 0;
};
static_assert(sizeof(ValueCount) == 16, "snapshot section layout");

/// On-disk / in-memory entry: number of base triples matching a
/// two-position prefix `(a, b)` of one permutation.
struct PairCount {
  DataId a = 0;
  DataId b = 0;
  uint64_t count = 0;
};
static_assert(sizeof(PairCount) == 16, "snapshot section layout");

/// The two-position prefix kinds (named by the permutation that sorts
/// on them: SP from SPO, PO from POS, OS from OSP).
enum class PairKind { kSp = 0, kPo = 1, kOs = 2 };

/// Immutable aggregated triple counts over one base. Thread-safe for
/// concurrent reads (it is never mutated after construction).
class CardinalityStats {
 public:
  /// Builds the six aggregates in one linear pass per permutation run.
  /// The three runs must describe the same triple set in SPO/POS/OSP
  /// order respectively (the `BaseRuns` invariant).
  static std::shared_ptr<const CardinalityStats> Build(const EncTriple* spo,
                                                       const EncTriple* pos,
                                                       const EncTriple* osp,
                                                       std::size_t count);

  /// Wraps persisted section images in place (no copy). `keepalive`
  /// pins the mapping the pointers reach into; the caller (snapshot
  /// open) has already validated sortedness and count sums.
  static std::shared_ptr<const CardinalityStats> Borrow(
      const ValueCount* s, std::size_t s_n, const ValueCount* p, std::size_t p_n,
      const ValueCount* o, std::size_t o_n, const PairCount* sp, std::size_t sp_n,
      const PairCount* po, std::size_t po_n, const PairCount* os, std::size_t os_n,
      uint64_t total, std::shared_ptr<const void> keepalive);

  /// Total triples in the base the stats describe.
  uint64_t total() const { return total_; }

  /// Exact number of base triples whose position `pos` (0=S, 1=P, 2=O)
  /// equals `id`; 0 when `id` does not occur there.
  uint64_t Count1(int pos, DataId id) const;

  /// Exact number of base triples matching the two-position prefix.
  uint64_t CountPair(PairKind kind, DataId a, DataId b) const;

  /// Number of distinct values occurring at position `pos`.
  uint64_t Distinct(int pos) const { return single_[pos].size; }

  /// Raw section images, index 0..2 = S/P/O (for persistence).
  const ValueCount* single_data(int pos) const { return single_[pos].data; }
  std::size_t single_size(int pos) const { return single_[pos].size; }
  /// Raw section images, by pair kind (for persistence).
  const PairCount* pair_data(PairKind kind) const {
    return pair_[static_cast<int>(kind)].data;
  }
  std::size_t pair_size(PairKind kind) const {
    return pair_[static_cast<int>(kind)].size;
  }

 private:
  template <typename T>
  struct Array {
    const T* data = nullptr;
    std::size_t size = 0;
    std::vector<T> owned;
    void Assign(std::vector<T> values) {
      owned = std::move(values);
      data = owned.data();
      size = owned.size();
    }
    void Borrow(const T* ptr, std::size_t n) {
      owned.clear();
      data = ptr;
      size = n;
    }
  };

  CardinalityStats() = default;

  Array<ValueCount> single_[3];  // S, P, O.
  Array<PairCount> pair_[3];     // SP, PO, OS.
  uint64_t total_ = 0;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_OPTIMIZER_CARDINALITY_H_
