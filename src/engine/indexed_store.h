#ifndef WDSPARQL_ENGINE_INDEXED_STORE_H_
#define WDSPARQL_ENGINE_INDEXED_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/dictionary.h"
#include "engine/read_view.h"
#include "rdf/scan.h"
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
/// into the base with one linear `std::merge` pass per permutation when
/// it exceeds a threshold (`MergeDelta`). `DataId`s are stable across
/// merges: the dictionary only ever appends, so no run is re-encoded.
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
/// The store also implements the `TripleSource` scan interface (against
/// its freshest view), so the paper's homomorphism/wdEVAL algorithms run
/// on top of it unchanged.

namespace wdsparql {

/// Dictionary-encoded store with SPO/POS/OSP permutations, incremental
/// base+delta maintenance, and epoch-published `ReadView` snapshots.
class IndexedStore final : public TripleSource {
 public:
  /// Delta size (inserts + tombstones) that triggers an automatic
  /// `MergeDelta` from a mutation. Small enough that sorted-delta
  /// insertion stays cheap, large enough to amortise the linear merge.
  static constexpr std::size_t kDefaultMergeThreshold = 4096;

  IndexedStore();

  /// Builds the store (dictionary + three sorted base runs) from the
  /// triples of `set` in one sort pass — the bulk-load fast path.
  static IndexedStore Build(const TripleSet& set);

  /// Builds the store from a plain triple vector (duplicates collapse).
  /// The bulk loader's path: no TripleSet/RdfGraph hash structures are
  /// ever materialised.
  static IndexedStore Build(const std::vector<Triple>& triples);

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

  /// Inserts `t`, growing the dictionary as needed; returns true iff it
  /// was not already present. O(delta) for the copy-on-write sorted-run
  /// insertion, amortised O(size/threshold) for merges. Publishes a new
  /// view on success.
  bool Insert(const Triple& t);

  /// Removes `t`; returns true iff it was present. Base-resident triples
  /// are tombstoned (physically removed by the next merge); delta
  /// triples are removed copy-on-write. Publishes a new view on success.
  bool Erase(const Triple& t);

  /// Applies a pre-resolved net batch in one step: every triple of
  /// `adds` must be absent from the current view and every triple of
  /// `removes` present (`Database::Apply` guarantees both by computing
  /// the net effect first). Builds ONE successor delta copy-on-write —
  /// one linear pass per permutation, O(batch log batch + delta)
  /// however large the batch — and performs ONE view publish; when the
  /// grown delta crosses the merge threshold, the fold happens inside
  /// the same step and the merge's publish is the only one. This is the
  /// amortised bulk path that retires the old per-triple loop (and the
  /// empty-database-only `Build` fast path) for ingest.
  /// A non-null `trace` receives `delta_build` and `publish` (or
  /// `compact`, when the batch crosses the merge threshold) spans under
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

  /// Sets the auto-merge trigger (0 disables automatic merging; callers
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
  /// This IS the public `Database::generation()` value; note it can
  /// advance by more than one across a single mutation (a threshold
  /// merge publishes, then the mutation publishes again). Writer-side
  /// read; other threads read `PinView()->generation()` instead.
  uint64_t generation() const { return generation_; }

  /// \internal Adopts another store's content (dictionary + runs +
  /// delta) and publishes it as this store's next view. Unlike a plain
  /// assignment this keeps the publish atomic — concurrent readers may
  /// pin views throughout — and keeps the generation monotonic. The
  /// merge threshold is retained. Used by `Database::Open` to install
  /// a snapshot's borrowed runs.
  void AdoptFrom(IndexedStore&& other);

  // Writer-side lookup (delegates to the freshest view) ---------------

  /// The term dictionary (writer side; readers use `PinView()->dict()`).
  const Dictionary& dictionary() const { return dict_; }

  /// See `ReadView::EncodeScanPattern`.
  bool EncodeScanPattern(const Triple& pattern, EncPattern* out) const {
    return view_->EncodeScanPattern(pattern, out);
  }

  /// See `ReadView::Scan`. The scan borrows the current view: do not
  /// hold it across mutations (pin a view for that).
  MergedScan Scan(const EncPattern& pattern) const { return view_->Scan(pattern); }

  /// True iff the encoded triple is present (and not tombstoned).
  bool Contains(const EncTriple& t) const { return view_->Contains(t); }

  /// Decodes `t` back to `TermId` space.
  Triple Decode(const EncTriple& t) const { return view_->Decode(t); }

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

  /// \internal Installs a freshly built dictionary and three sorted,
  /// owned base runs (the Build helpers funnel through here), then
  /// publishes.
  void SetBuilt(Dictionary dict, std::vector<EncTriple> spo,
                std::vector<EncTriple> pos, std::vector<EncTriple> osp);

  // TripleSource interface (freshest view) ----------------------------
  std::size_t size() const override { return view_->size(); }
  bool Contains(const Triple& t) const override { return view_->Contains(t); }
  bool ScanPattern(const Triple& pattern, const TripleScanCallback& fn) const override {
    return view_->ScanPattern(pattern, fn);
  }
  /// All dictionary terms, ascending by `TermId`. After removals this may
  /// include terms that no longer occur in any triple (the dictionary is
  /// append-only); such terms simply match nothing.
  std::vector<TermId> AllTerms() const override { return view_->AllTerms(); }

 private:
  void MaybeMerge();
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
