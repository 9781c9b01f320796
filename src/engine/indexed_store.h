#ifndef WDSPARQL_ENGINE_INDEXED_STORE_H_
#define WDSPARQL_ENGINE_INDEXED_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/dictionary.h"
#include "engine/read_view.h"
#include "rdf/triple_set.h"
#include "wdsparql/metrics.h"
#include "wdsparql/trace.h"

/// \file
/// Dictionary-encoded triple store with sorted permutation indexes.
///
/// `IndexedStore` is the engine's storage layer, modelled on RDF-3X's
/// permutation indexes: the dictionary-encoded triples are materialised
/// three times, sorted in SPO, POS and OSP order. Because the three
/// cyclic permutations cover every subset of {S, P, O} as a sort prefix,
/// *any* partially bound triple pattern resolves to a binary-searchable
/// range of exactly the matching triples — no post-filtering from hash
/// probes, and iteration is a linear walk over packed 12-byte tuples.
/// Within a range, the values of the first unbound position (in
/// permutation order) appear in ascending `DataId` order, which the merge
/// join of `engine/join.h` exploits.
///
/// Mutation follows the classic two-run LSM shape instead of rebuilding:
/// each permutation keeps a large sorted *base* run plus a small sorted
/// *delta* run absorbing inserts; deletions of base-resident triples go
/// to a tombstone set. Scans merge the two runs on the fly (skipping
/// tombstones), preserving permutation order, and the delta is folded
/// into the base with one linear `std::merge` pass per permutation
/// (`MergeDelta`). `DataId`s are stable across merges: the dictionary
/// only ever appends, so no run is re-encoded.
///
/// When to merge is a copy budget, the rent-or-buy rule behind
/// x-RDF-3X's differential indexes and the LSM-tree: each commit
/// rebuilds the delta copy-on-write, which costs about |delta|, while a
/// merge costs about |base| + |delta|. The writer sums the sizes of the
/// deltas it builds and merges once that sum reaches |base| + threshold,
/// so total work stays within 2x of the best merge schedule whatever
/// the commit size. Commits of b triples over a base of N then merge
/// every ~sqrt(2(N + threshold)/b) commits, and the delta a reader
/// scans (and the planner's statistics miss) stays below N + threshold
/// — about sqrt(2b(N + threshold)) in practice.
///
/// Concurrency (single writer, many readers): all store state lives in
/// immutable refcounted pieces (`BaseRuns`, `DeltaRuns`, the dictionary
/// prefix — see engine/read_view.h). A mutation builds the successor
/// delta copy-on-write, then publishes a fresh `ReadView` with one
/// atomic shared-ptr store; `PinView()` on any thread acquires the
/// latest view with one atomic load. Readers therefore never block the
/// writer, never observe a torn delta, and keep whatever view they
/// pinned alive until they drop it. The mutation API itself is
/// single-writer: concurrent mutators require external serialisation.
///
/// The store itself has no read surface: every reader — the writer's
/// own lookups included — goes through a `ReadView` (`view()` on the
/// writer thread, `PinView()` anywhere), which implements the
/// `TripleSource` scan interface the paper's algorithms run on.

namespace wdsparql {

/// Dictionary-encoded store with SPO/POS/OSP permutations, incremental
/// base+delta maintenance, and epoch-published `ReadView` snapshots.
class IndexedStore final {
 public:
  /// Slack of the copy budget: a commit merges once the delta sizes
  /// built since the last merge sum to at least `base_size()` plus this.
  /// Over an empty or small base it alone paces the merges.
  static constexpr std::size_t kDefaultMergeThreshold = 4096;

  /// An empty store. Content arrives through `ApplyBatch` (every load
  /// is a commit) or wholesale from a snapshot (`FromSnapshot`).
  IndexedStore();

  /// \internal Reconstitutes a store over a snapshot's sections, borrowed
  /// in place: `spo`/`pos`/`osp` are `count`-long sorted runs whose
  /// backing memory must stay valid while `keepalive` is held. The
  /// keepalive is stored inside the published base runs, so the mapping
  /// lives exactly as long as the last `ReadView` that borrows from it
  /// (the next `MergeDelta` migrates the store itself to owned storage).
  /// `stats` are the snapshot's persisted cardinality statistics (null
  /// for legacy snapshots without stats sections; `MergeDelta` rebuilds
  /// them on the first compaction).
  static IndexedStore FromSnapshot(Dictionary dict, const EncTriple* spo,
                                   const EncTriple* pos, const EncTriple* osp,
                                   std::size_t count,
                                   std::shared_ptr<const void> keepalive,
                                   std::shared_ptr<const CardinalityStats> stats =
                                       nullptr);

  // Mutation (single writer) ------------------------------------------

  /// Applies a pre-resolved net batch in one step: every triple of
  /// `adds` must be absent from the current view and every triple of
  /// `removes` present (`Database::Apply` guarantees both by computing
  /// the net effect first). The store's only mutation path: builds ONE
  /// successor delta copy-on-write — one linear pass per permutation,
  /// O(batch log batch + delta) however large the batch — and performs
  /// ONE view publish; when the batch exhausts the copy budget (see the
  /// file comment), the fold happens inside the same step and the
  /// merge's publish is the only one.
  /// A non-null `trace` receives `delta_build` and `publish` (or
  /// `compact`, when the batch exhausts the budget) spans under
  /// `trace_parent`; writer-side, so no synchronisation is needed.
  void ApplyBatch(const std::vector<Triple>& adds,
                  const std::vector<Triple>& removes,
                  TraceContext* trace = nullptr, uint32_t trace_parent = 0);

  /// Folds the delta runs and tombstones into fresh base runs with one
  /// linear merge pass per permutation, then publishes. Idempotent;
  /// `DataId`s and the dictionary are unchanged. Views pinned before the
  /// merge keep the pre-merge runs alive and stay fully readable.
  /// The merged base always gets fresh `CardinalityStats`; an empty
  /// delta over a stats-less base (a legacy snapshot) rebuilds the stats
  /// in place and republishes, so "Compact" is also the lazy
  /// stats-upgrade path.
  void MergeDelta();

  /// Pending un-merged work: delta triples plus tombstones.
  std::size_t delta_size() const { return delta_->pending(); }

  /// Sets the copy budget's slack (0 disables automatic merging; callers
  /// then compact via `MergeDelta` explicitly).
  void set_merge_threshold(std::size_t n) { merge_threshold_ = n; }

  /// Attaches the engine-wide metrics registry (see wdsparql/metrics.h):
  /// the store then times delta builds and compactions, counts
  /// publishes, and tracks live published views through per-view
  /// lifetime tokens. Null detaches. Shared ownership, so tokens held by
  /// long-lived pinned views stay safe whatever outlives what.
  void set_metrics(std::shared_ptr<MetricsRegistry> metrics);

  // Reading -----------------------------------------------------------

  /// Pins the latest published view: one atomic load + refcount bump,
  /// callable from any thread concurrently with the writer. The caller
  /// keeps the shared_ptr for as long as it reads the view.
  std::shared_ptr<const ReadView> PinView() const;

  /// The latest published view, borrowed. Writer-thread (or externally
  /// serialised) use only: the reference dies with the next mutation.
  const ReadView& view() const { return *view_; }

  /// Monotonic publish counter (the generation of the latest view).
  /// This IS the public `Database::generation()` value; every effective
  /// `ApplyBatch` advances it by exactly one, a merge included.
  /// Writer-side read; other threads read `PinView()->generation()`
  /// instead.
  uint64_t generation() const { return generation_; }

  /// \internal Adopts another store's content (dictionary + runs +
  /// delta) and publishes it as this store's next view. Unlike a plain
  /// assignment this keeps the publish atomic — concurrent readers may
  /// pin views throughout — and keeps the generation monotonic. The
  /// merge threshold is retained; the copy budget starts afresh. Used
  /// by `Database::Open` to install a snapshot's borrowed runs.
  void AdoptFrom(IndexedStore&& other);

  /// The term dictionary (writer side; readers use `PinView()->dict()`).
  const Dictionary& dictionary() const { return dict_; }

  // Serialization surface (src/storage/) ------------------------------

  /// \internal The base run sorted in `perm` order. Only the full store
  /// content when the delta is empty (callers `MergeDelta` first).
  const EncTriple* base_data(Permutation perm) const {
    switch (perm) {
      case Permutation::kSpo: return base_->spo.data();
      case Permutation::kPos: return base_->pos.data();
      default: return base_->osp.data();
    }
  }

  /// \internal Length of each base run.
  std::size_t base_size() const { return base_->spo.size(); }

  /// \internal Cardinality statistics over the current base runs, or
  /// null when none have been built yet (see `MergeDelta`). Writer-side;
  /// readers use `PinView()->stats()`.
  const std::shared_ptr<const CardinalityStats>& stats() const {
    return base_->stats;
  }

  /// \internal True when any base run still borrows mapped storage.
  bool borrows_snapshot() const {
    return base_->spo.borrowed() || base_->pos.borrowed() || base_->osp.borrowed();
  }

 private:
  /// Builds and atomically publishes the view of the current state.
  void Publish();

  Dictionary dict_;  // Writer-side handle; its buffers are COW-shared.
  // The canonical state: immutable refcounted pieces, replaced (never
  // mutated) by the writer. `view_` packages the current pieces and is
  // what readers pin; it is accessed with atomic shared_ptr loads.
  std::shared_ptr<const BaseRuns> base_;
  std::shared_ptr<const DeltaRuns> delta_;
  std::shared_ptr<const ReadView> view_;
  uint64_t generation_ = 0;
  std::size_t merge_threshold_ = kDefaultMergeThreshold;
  // Sum of the delta sizes built since the last merge: the copy budget
  // spent so far. Reset by every merge and every wholesale install.
  std::size_t copied_since_merge_ = 0;

  // Metrics (null when detached). Instrument pointers are cached at
  // set_metrics so the hot paths skip the registry's name lookup.
  std::shared_ptr<MetricsRegistry> metrics_;
  Counter* publishes_metric_ = nullptr;
  Counter* compactions_metric_ = nullptr;
  Counter* stats_rebuilds_metric_ = nullptr;
  Histogram* delta_build_ns_metric_ = nullptr;
  Histogram* compaction_ns_metric_ = nullptr;
};

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_INDEXED_STORE_H_
