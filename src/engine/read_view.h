#ifndef WDSPARQL_ENGINE_READ_VIEW_H_
#define WDSPARQL_ENGINE_READ_VIEW_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/dictionary.h"
#include "rdf/scan.h"
#include "wdsparql/hash.h"

/// \file
/// Immutable, refcounted snapshots of the engine's triple store.
///
/// `ReadView` is the concurrency keystone of the engine: one consistent,
/// immutable picture of the store — the three permutation base runs, the
/// sorted delta runs, the tombstone set and a dictionary prefix — held
/// together by shared ownership. The writer never mutates published
/// state; every mutation builds the next delta copy-on-write and
/// publishes a fresh view with one atomic pointer swap (the epoch
/// publish in `IndexedStore`). Readers pin a view with one refcount
/// increment and can scan it for as long as they like: merges, further
/// mutations, even dropping the `Database`'s current state do not
/// disturb a pinned view, and the last pin to go releases the runs (and
/// the mapped snapshot file they may borrow). See docs/CONCURRENCY.md
/// for the full protocol and its memory-ordering argument.

namespace wdsparql {

/// A dictionary-encoded triple. Field order is always (s, p, o); the
/// permutation lives in the sort order of the containing vector.
struct EncTriple {
  DataId s;
  DataId p;
  DataId o;

  /// Position access: 0=subject, 1=predicate, 2=object.
  DataId operator[](int pos) const { return pos == 0 ? s : (pos == 1 ? p : o); }

  friend bool operator==(const EncTriple& a, const EncTriple& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
};

/// Hash functor for EncTriple (tombstone set, dedup probes).
struct EncTripleHash {
  std::size_t operator()(const EncTriple& t) const {
    std::size_t seed = t.s;
    HashCombine(seed, t.p);
    HashCombine(seed, t.o);
    return seed;
  }
};

/// An encoded triple pattern: `kNoDataId` positions are wildcards.
struct EncPattern {
  DataId s = kNoDataId;
  DataId p = kNoDataId;
  DataId o = kNoDataId;

  DataId operator[](int pos) const { return pos == 0 ? s : (pos == 1 ? p : o); }

  friend bool operator==(const EncPattern& a, const EncPattern& b) {
    return a.s == b.s && a.p == b.p && a.o == b.o;
  }
};

/// The three cyclic permutation orders.
enum class Permutation { kSpo = 0, kPos = 1, kOsp = 2 };

namespace enc_order {

/// Position order of each permutation: kSpo reads positions (0,1,2),
/// kPos (1,2,0), kOsp (2,0,1).
inline constexpr int kPermOrder[3][3] = {{0, 1, 2}, {1, 2, 0}, {2, 0, 1}};

inline const int* OrderOf(Permutation perm) {
  return kPermOrder[static_cast<int>(perm)];
}

/// Lexicographic comparator in the given permutation order.
struct PermLess {
  const int* order;
  bool operator()(const EncTriple& a, const EncTriple& b) const {
    for (int i = 0; i < 3; ++i) {
      int pos = order[i];
      if (a[pos] != b[pos]) return a[pos] < b[pos];
    }
    return false;
  }
};

}  // namespace enc_order

/// The matching triples of one scan: a sorted base-run range merged on
/// the fly with a sorted delta-run range, with tombstoned base triples
/// skipped. Iteration yields triples in permutation order (so the first
/// unbound position is ascending). The backing `ReadView` must outlive
/// the scan; because views are immutable, a scan over a pinned view is
/// valid for the view's whole lifetime regardless of store mutations.
class MergedScan {
 public:
  /// Tombstoned base-resident triples, sorted in SPO order. A sorted
  /// vector (not a hash set) so the writer's copy-on-write per `Erase`
  /// is one memcpy + insertion rather than a rehash of every node;
  /// membership during scans is a binary search, and the common case —
  /// no tombstones at all — stays a single emptiness test.
  using Tombstones = std::vector<EncTriple>;

  MergedScan(const EncTriple* base_begin, const EncTriple* base_end,
             const EncTriple* delta_begin, const EncTriple* delta_end,
             const Tombstones* dead, Permutation perm);

  /// Two-run merging input iterator.
  class Iterator {
   public:
    Iterator(const EncTriple* base, const EncTriple* base_end, const EncTriple* delta,
             const EncTriple* delta_end, const Tombstones* dead, const int* order);

    const EncTriple& operator*() const { return on_delta_ ? *delta_ : *base_; }
    /// True iff the current triple comes from the delta run (false:
    /// base run). Stats collection attributes scan work per run with
    /// this; only meaningful while the iterator is dereferenceable.
    bool on_delta() const { return on_delta_; }
    Iterator& operator++();
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.base_ != b.base_ || a.delta_ != b.delta_;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) { return !(a != b); }

   private:
    void Settle();  // Skip dead base triples; pick the smaller run head.

    const EncTriple* base_;
    const EncTriple* base_end_;
    const EncTriple* delta_;
    const EncTriple* delta_end_;
    const Tombstones* dead_;
    const int* order_;
    bool on_delta_ = false;
  };

  Iterator begin() const;
  Iterator end() const;
  /// O(1) upper bound on the number of live triples in the scan: the
  /// base and delta range lengths, tombstoned base triples included. Zero iff the scan is provably
  /// empty. The join sizes candidate ranges with this.
  std::size_t bound_size() const {
    return static_cast<std::size_t>(base_end_ - base_begin_) +
           static_cast<std::size_t>(delta_end_ - delta_begin_);
  }
  bool empty() const { return !(begin() != end()); }
  /// The permutation the scan is ordered in.
  Permutation permutation() const { return perm_; }

 private:
  friend class ReadView;  // Nests probes inside the scan's ranges.

  const EncTriple* base_begin_;
  const EncTriple* base_end_;
  const EncTriple* delta_begin_;
  const EncTriple* delta_end_;
  const Tombstones* dead_;
  Permutation perm_;
};

/// Forward-seeking existence probes over one permutation's sorted base
/// and delta ranges: the seek of Leapfrog Triejoin's trie iterators
/// (Veldhuizen, ICDT 2014), used by the join's probe step. Every probed
/// pattern binds the same positions, which form a sort prefix of the
/// permutation; each `Exists` call gallops (exponential steps, then a
/// binary search inside the last one) from where the previous one
/// stopped, so a sequence of probes whose keys ascend (in permutation
/// order) walks the range once instead of re-searching it from the
/// start, and a key d triples past the previous costs O(log d). `Open`
/// is the iterator's `open()`: the range of the key just found, located
/// from the seek position rather than from the root of the runs.
///
/// Obtain one from `ReadView::Probe`. The view must outlive the probe;
/// a probe is plain data, owned by the thread that probes it.
class SeekProbe {
 public:
  /// True iff some live triple of the range carries `pattern`'s values
  /// on the probe's bound positions (tombstoned base triples do not
  /// count). `pattern` must bind exactly the positions the probe was
  /// made for and agree with the range's own bound positions. Between
  /// `Rewind` calls the probed keys must not descend.
  bool Exists(const EncPattern& pattern) { return exists_(this, pattern); }

  /// The triples matching `key`, which the last `Exists` call probed:
  /// exactly the range `ReadView::Scan(key)` returns (the same base and
  /// delta bounds, tombstoned base triples included), found by galloping
  /// from the probe's seek position instead of by binary searches over
  /// the full runs. The seek position stays at `key`'s lower bound, so
  /// the probe goes on with the next key as if `Open` had not run.
  MergedScan Open(const EncPattern& key) { return open_(this, key); }

  /// Restarts the seek at the range's start, ahead of a key sequence
  /// unrelated to the previous one.
  void Rewind() {
    base_lo_ = base_begin_;
    delta_lo_ = delta_begin_;
  }

 private:
  friend class ReadView;

  /// `Exists`, specialised on the permutation and the bound prefix length.
  template <int kPerm, int kPrefix>
  static bool ExistsIn(SeekProbe* probe, const EncPattern& pattern);
  /// `Open`, likewise specialised.
  template <int kPerm, int kPrefix>
  static MergedScan OpenIn(SeekProbe* probe, const EncPattern& key);

  bool (*exists_)(SeekProbe*, const EncPattern&) = nullptr;
  MergedScan (*open_)(SeekProbe*, const EncPattern&) = nullptr;
  const EncTriple* base_begin_ = nullptr;
  const EncTriple* base_lo_ = nullptr;  // Seek position; below it, keys are smaller.
  const EncTriple* base_end_ = nullptr;
  const EncTriple* delta_begin_ = nullptr;
  const EncTriple* delta_lo_ = nullptr;
  const EncTriple* delta_end_ = nullptr;
  const MergedScan::Tombstones* dead_ = nullptr;
};

/// A permutation-sorted base run: either owned storage (built or merged
/// in memory) or a borrowed external array — a mapped snapshot section
/// consumed in place, whose backing file view must outlive the run (the
/// `BaseRuns` keepalive guarantees it). The next `MergeDelta` naturally
/// migrates a borrowed run into owned storage (the merge output is
/// always owned).
class EncRun {
 public:
  EncRun() = default;
  EncRun(const EncRun& other) { *this = other; }
  EncRun& operator=(const EncRun& other) {
    borrowed_ = other.borrowed_;
    size_ = other.size_;
    owned_ = other.owned_;
    data_ = borrowed_ ? other.data_ : owned_.data();
    return *this;
  }
  EncRun(EncRun&& other) noexcept { *this = std::move(other); }
  EncRun& operator=(EncRun&& other) noexcept {
    if (this == &other) return *this;
    borrowed_ = other.borrowed_;
    size_ = other.size_;
    owned_ = std::move(other.owned_);
    data_ = borrowed_ ? other.data_ : owned_.data();
    // Leave the source empty: its data_ must not alias storage that now
    // belongs to the target.
    other.data_ = nullptr;
    other.size_ = 0;
    other.borrowed_ = false;
    other.owned_.clear();
    return *this;
  }

  /// Takes ownership of a sorted run.
  void Assign(std::vector<EncTriple> triples) {
    owned_ = std::move(triples);
    data_ = owned_.data();
    size_ = owned_.size();
    borrowed_ = false;
  }

  /// Borrows `count` sorted triples living elsewhere (snapshot section).
  void Borrow(const EncTriple* data, std::size_t count) {
    owned_.clear();
    owned_.shrink_to_fit();
    data_ = data;
    size_ = count;
    borrowed_ = true;
  }

  const EncTriple* begin() const { return data_; }
  const EncTriple* end() const { return data_ + size_; }
  const EncTriple* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// True when the run borrows external (mapped) storage.
  bool borrowed() const { return borrowed_; }

 private:
  const EncTriple* data_ = nullptr;
  std::size_t size_ = 0;
  bool borrowed_ = false;
  std::vector<EncTriple> owned_;
};

class CardinalityStats;  // optimizer/cardinality.h

/// The three base runs of one store generation. Immutable once
/// published; replaced wholesale by `MergeDelta`. `keepalive` pins
/// whatever external storage the runs borrow (the mapped snapshot
/// file), so the mapping lives exactly as long as the last view over it.
/// `stats`, when set, are the aggregated cardinality counts over
/// exactly these runs (built at merge time or borrowed from the
/// snapshot's stats sections) — null for legacy snapshots until the
/// first Compact rebuilds them.
struct BaseRuns {
  EncRun spo;
  EncRun pos;
  EncRun osp;
  std::shared_ptr<const void> keepalive;
  std::shared_ptr<const CardinalityStats> stats;
};

/// The mutable tail of the store, frozen: sorted delta runs absorbing
/// inserts (one per permutation, same triples) plus the tombstones of
/// deleted base-resident triples. Immutable once published; the writer
/// builds the successor copy-on-write.
struct DeltaRuns {
  std::vector<EncTriple> dspo;
  std::vector<EncTriple> dpos;
  std::vector<EncTriple> dosp;
  MergedScan::Tombstones dead;

  std::size_t pending() const { return dspo.size() + dead.size(); }
};

/// One immutable, consistent snapshot of an `IndexedStore`: dictionary
/// prefix + base runs + delta runs + tombstones, pinned together.
///
/// Thread-safety: a `ReadView` is deeply immutable — any number of
/// threads may scan, join over and decode the same view concurrently
/// with each other and with the writer publishing successors. Obtain
/// one from `IndexedStore::PinView()` (or `Database` read paths, which
/// pin internally) and keep the `shared_ptr` for as long as iterators
/// into the view are live.
///
/// Implements `TripleSource`, so the paper's homomorphism/wdEVAL
/// algorithms run over a pinned view unchanged.
class ReadView final : public TripleSource {
 public:
  /// An empty view (no triples, empty dictionary).
  ReadView();

  /// \internal Assembled by `IndexedStore` at publish time.
  /// `lifetime_token`, when set, is released when the view dies — the
  /// store threads a gauge-decrementing token through here so the
  /// metrics registry can report how many published views are still
  /// alive (pinned by cursors, snapshots or the store itself).
  ReadView(DictView dict, std::shared_ptr<const BaseRuns> base,
           std::shared_ptr<const DeltaRuns> delta, uint64_t generation,
           std::shared_ptr<const void> lifetime_token = nullptr);

  // Encoded access (the join's surface) -------------------------------

  /// The dictionary prefix of this view.
  const DictView& dict() const { return dict_; }

  /// Encodes a `TermId`-space pattern (`kAnyTerm` positions become
  /// wildcards). Returns false iff some bound term does not occur in the
  /// view — in which case no triple can match.
  bool EncodeScanPattern(const Triple& pattern, EncPattern* out) const;

  /// The triples matching `pattern`, in the permutation whose sort
  /// prefix covers the bound positions: per run, a binary search over a
  /// packed prefix key for the range's start and a gallop from there to
  /// its end. Every yielded triple matches; no residual filtering is
  /// needed.
  MergedScan Scan(const EncPattern& pattern) const;

  /// An existence probe for patterns binding exactly the positions
  /// `shape` binds (its values are ignored). When those positions form
  /// a sort prefix of `within`'s permutation, the probe searches inside
  /// `within` — a range the caller already located, whose bound values
  /// every probed pattern shares — so it never leaves that range.
  /// Otherwise, or with no `within`, it searches the full runs of the
  /// permutation `Scan(shape)` would pick. Either way, probing pattern p
  /// answers whether `Scan(p)` is non-empty.
  SeekProbe Probe(const EncPattern& shape, const MergedScan* within = nullptr) const;

  /// An existence probe for whole triples over the full runs of
  /// `perm`: probing triple t answers `Contains(t)`, and a sequence of
  /// triples ascending in `perm`'s order walks the runs once.
  SeekProbe TripleProbe(Permutation perm) const;

  /// True iff the encoded triple is present (and not tombstoned).
  bool Contains(const EncTriple& t) const;

  /// Decodes `t` back to `TermId` space.
  Triple Decode(const EncTriple& t) const {
    return Triple(dict_.Decode(t.s), dict_.Decode(t.p), dict_.Decode(t.o));
  }

  /// Monotonic publish counter of the owning store: every mutation and
  /// merge publishes a view with a larger generation. This is the value
  /// `Database::generation()` and `Cursor::generation()` report, so the
  /// pinned view and the reported generation can never disagree.
  uint64_t generation() const { return generation_; }

  /// Un-merged work captured in this view (delta triples + tombstones).
  std::size_t pending_delta() const { return delta_->pending(); }

  /// Cardinality statistics over this view's base runs, or null when
  /// the base carries none (legacy snapshot not yet compacted, or a
  /// store that has never merged). The stats describe the base only —
  /// `pending_delta()` triples are not counted; the planner treats them
  /// as estimation noise. The merge's copy budget keeps them below the
  /// base size plus the merge threshold (see optimizer/cardinality.h).
  const CardinalityStats* stats() const { return base_->stats.get(); }

  /// \internal True when any base run of this view borrows mapped
  /// snapshot storage.
  bool borrows_snapshot() const {
    return base_->spo.borrowed() || base_->pos.borrowed() || base_->osp.borrowed();
  }

  // TripleSource interface -------------------------------------------
  std::size_t size() const override {
    return base_->spo.size() - delta_->dead.size() + delta_->dspo.size();
  }
  bool Contains(const Triple& t) const override;
  bool ScanPattern(const Triple& pattern, const TripleScanCallback& fn) const override;
  /// All dictionary terms, ascending by `TermId`. After removals this may
  /// include terms that no longer occur in any triple (the dictionary is
  /// append-only); such terms simply match nothing.
  std::vector<TermId> AllTerms() const override;

 private:
  friend class IndexedStore;

  bool InDelta(const EncTriple& t) const;

  DictView dict_;
  std::shared_ptr<const BaseRuns> base_;
  std::shared_ptr<const DeltaRuns> delta_;
  uint64_t generation_ = 0;
  std::shared_ptr<const void> lifetime_token_;  // See the constructor.
};

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_READ_VIEW_H_
