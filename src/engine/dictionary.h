#ifndef WDSPARQL_ENGINE_DICTIONARY_H_
#define WDSPARQL_ENGINE_DICTIONARY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "wdsparql/check.h"
#include "wdsparql/term.h"

/// \file
/// Dictionary encoding of interned terms.
///
/// Real triple stores (RDF-3X, Trident) separate the string dictionary
/// from the triple indexes: triples are stored as tuples of dense
/// machine ids so permutation indexes stay compact and comparisons are
/// integer compares. This library already interns spellings to `TermId`s
/// in the `TermPool`; the engine adds a second, per-store dictionary that
/// maps the terms *actually occurring in the stored triples* to a dense
/// `DataId` range `[0, size)`, assigned as the terms arrive. The density
/// is what makes the permutation vectors of `IndexedStore` sortable and
/// binary-searchable.
///
/// Concurrency: the dictionary is append-only, and its storage is laid
/// out so that a published *prefix* of it can be read lock-free while a
/// single writer keeps appending. The term array lives in a shared
/// buffer that is only ever replaced wholesale (never reallocated under
/// readers), and the lookup index over appended terms is an immutable
/// sorted run plus a bounded tail, both copy-on-write. `DictView`
/// captures one consistent prefix; see docs/CONCURRENCY.md.

namespace wdsparql {

/// Dense per-store term id.
using DataId = uint32_t;

/// Sentinel: "no id" / wildcard in encoded patterns.
inline constexpr DataId kNoDataId = 0xFFFFFFFFu;

/// An immutable snapshot of a `Dictionary` prefix: every `DataId` below
/// `size()` decodes, and `Encode` resolves exactly the terms that had
/// been added when the view was taken. Cheap to copy (a few shared
/// pointers); safe to use from any thread while the source dictionary
/// keeps growing, provided the view was obtained through a
/// release/acquire publication edge (the `ReadView` publish).
class DictView {
 public:
  DictView() = default;

  /// The dense id of `t`, or `kNoDataId` if `t` was not in the
  /// dictionary when the view was taken. O(log size).
  DataId Encode(TermId t) const;

  /// Miss-safe `Encode`.
  std::optional<DataId> TryResolve(TermId t) const {
    DataId id = Encode(t);
    if (id == kNoDataId) return std::nullopt;
    return id;
  }

  /// The term with dense id `id`; fatal if out of the view's range.
  TermId Decode(DataId id) const {
    WDSPARQL_CHECK(id < size_);
    return (*terms_)[id];
  }

  /// Number of distinct terms in the view.
  std::size_t size() const { return size_; }

  /// Length of the TermId-sorted prefix (see `Dictionary`).
  std::size_t sorted_limit() const { return sorted_limit_; }

 private:
  friend class Dictionary;

  // The buffers are over-allocated: only the first `size_` /
  // `tail_size_` entries belong to this view. Slots past them may be
  // written by the dictionary's writer thread, but never the ones the
  // view indexes — see the publication protocol in docs/CONCURRENCY.md.
  std::shared_ptr<const std::vector<TermId>> terms_;
  std::size_t size_ = 0;
  std::size_t sorted_limit_ = 0;
  std::shared_ptr<const std::vector<std::pair<TermId, DataId>>> folded_;
  std::shared_ptr<const std::vector<std::pair<TermId, DataId>>> tail_;
  std::size_t tail_size_ = 0;
};

/// Map between the distinct `TermId`s of one store and the dense range
/// `[0, size)`.
///
/// The dictionary grows by appending: `GetOrAdd` and `EnsureTerms` give
/// each new term the next free `DataId` (one batch's newcomers in
/// ascending `TermId` order), so existing encoded triples never need
/// re-encoding when the store mutates. All engine algorithms require
/// only a fixed total order on `DataId`s, which appending preserves. A
/// dictionary reopened from an older snapshot may also start with a
/// `TermId`-sorted prefix (see `FromParts`), whose lookups are binary
/// searches over the term array itself.
///
/// Thread-safety: not itself thread-safe — one writer (or external
/// serialisation) mutates it. Concurrent readers go through `view()`
/// snapshots published by the owning store.
class Dictionary {
 public:
  Dictionary() = default;

  // Copies deep-copy the mutable buffers (two dictionaries must never
  // append into shared storage); the immutable folded run is shared.
  Dictionary(const Dictionary& other) { *this = other; }
  Dictionary& operator=(const Dictionary& other);
  Dictionary(Dictionary&& other) noexcept { *this = std::move(other); }
  Dictionary& operator=(Dictionary&& other) noexcept;

  /// \internal Reconstitutes a dictionary from its persisted parts: the
  /// DataId-indexed term array and the length of its TermId-sorted
  /// prefix (terms past it were appended by `GetOrAdd` and are looked up
  /// through the rebuilt appended index). Used by snapshot open.
  static Dictionary FromParts(std::vector<TermId> terms, std::size_t sorted_limit);

  /// \internal The TermId-sorted prefix length (persisted alongside the
  /// term array so `FromParts` can restore the lookup structure).
  std::size_t sorted_limit() const { return sorted_limit_; }

  /// The dense id of `t`, or `kNoDataId` if `t` is not in the dictionary.
  /// O(log size).
  DataId Encode(TermId t) const;

  /// Miss-safe lookup: the dense id of `t`, or nullopt if `t` is not in
  /// the dictionary. Prefer this over `Encode` in code that must handle
  /// unknown terms (e.g. constants in user queries that never occur in
  /// the stored graph).
  std::optional<DataId> TryResolve(TermId t) const {
    DataId id = Encode(t);
    if (id == kNoDataId) return std::nullopt;
    return id;
  }

  /// The dense id of `t`, appending a fresh id if `t` is new.
  DataId GetOrAdd(TermId t);

  /// Bulk variant for batch ingest: appends every not-yet-present term
  /// of `terms` (duplicates collapse; ids assigned in ascending TermId
  /// order among the newcomers) and rebuilds the appended-term index
  /// exactly ONCE. `GetOrAdd` folds that index every `kFoldLimit`
  /// appends — quadratic across a large bulk load — so the batch apply
  /// path pre-registers its terms here and its per-triple `GetOrAdd`
  /// calls all hit. Readers are unaffected: the same copy-on-write
  /// publication discipline applies.
  void EnsureTerms(const std::vector<TermId>& terms);

  /// The term with dense id `id`; fatal if out of range.
  TermId Decode(DataId id) const {
    WDSPARQL_CHECK(id < size_);
    return (*terms_)[id];
  }

  /// Number of distinct terms.
  std::size_t size() const { return size_; }

  /// \internal Contiguous DataId-indexed term array, `size()` entries
  /// (snapshot serialization).
  const TermId* terms_data() const { return terms_ == nullptr ? nullptr : terms_->data(); }

  /// An immutable snapshot of the current content. O(1).
  DictView view() const;

 private:
  void AppendTerm(TermId t, DataId id);
  /// Folds `entries` (appended terms not yet indexed) and the tail into
  /// a fresh sorted run, leaving the tail empty.
  void FoldTail(std::vector<std::pair<TermId, DataId>> entries);

  // Shared, over-allocated buffers: the first `size_`/`tail_size_`
  // entries are live. Growth swaps in a fresh doubled buffer instead of
  // reallocating, so views taken earlier keep valid storage.
  std::shared_ptr<std::vector<TermId>> terms_;   // Index == DataId.
  std::size_t size_ = 0;
  std::size_t sorted_limit_ = 0;  // [0, sorted_limit_) is TermId-sorted.
  // Lookup index over terms appended past the sorted prefix: an
  // immutable TermId-sorted run, plus a small insertion-order tail that
  // is folded into a fresh run when it exceeds kFoldLimit. Readers
  // binary-search the run and linearly scan the tail, so the tail bound
  // caps their worst case; folding is O(appended) but amortised
  // O(appended / kFoldLimit) per append.
  static constexpr std::size_t kFoldLimit = 256;
  std::shared_ptr<const std::vector<std::pair<TermId, DataId>>> folded_;
  std::shared_ptr<std::vector<std::pair<TermId, DataId>>> tail_;
  std::size_t tail_size_ = 0;
};

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_DICTIONARY_H_
