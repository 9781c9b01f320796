#ifndef WDSPARQL_STORAGE_SNAPSHOT_H_
#define WDSPARQL_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "engine/indexed_store.h"
#include "optimizer/cardinality.h"
#include "storage/file.h"
#include "storage/format.h"
#include "wdsparql/storage.h"
#include "wdsparql/term.h"

/// \file
/// Single-file snapshot reader and writer.
///
/// `SnapshotView` opens a snapshot and exposes its sections as typed,
/// bounds- and checksum-validated in-place views: the term heap as
/// string_views over the mapped bytes, the dictionary as a `TermId`
/// array, the three permutation runs as `EncTriple` arrays ready to be
/// borrowed by `IndexedStore` without re-sorting or re-encoding. The
/// view owns the mapping; everything that borrows from it (the store's
/// base runs) must keep the view alive — `DatabaseImpl` holds it as a
/// shared_ptr for exactly that reason.
///
/// `WriteSnapshot` serializes a (TermPool, IndexedStore) pair whose
/// delta has been merged, publishing the file with an atomic rename.

namespace wdsparql {
namespace storage {

/// A validated, open snapshot. Move-only (owns the file view).
class SnapshotView {
 public:
  /// Opens and validates the snapshot at `path`: magic, version,
  /// endianness, header/directory CRCs, section bounds and alignment,
  /// per-section CRCs, and term-heap
  /// offset monotonicity. Any violation is `kCorruption` with a message
  /// naming the failed check; a missing file is `kNotFound`.
  static Result<SnapshotView> Open(const std::string& path, const OpenOptions& options);

  uint64_t triple_count() const { return triple_count_; }
  uint64_t iri_count() const { return iri_count_; }
  uint64_t term_count() const { return term_count_; }
  uint64_t dict_sorted_limit() const { return dict_sorted_limit_; }

  /// Spelling `i` of the term-pool IRI heap (borrowed from the view).
  std::string_view IriSpelling(uint64_t i) const {
    return std::string_view(reinterpret_cast<const char*>(term_blob_ + term_offsets_[i]),
                            term_offsets_[i + 1] - term_offsets_[i]);
  }

  /// The dictionary: `TermId[term_count()]`, indexed by `DataId`.
  const TermId* dict_terms() const { return dict_; }

  /// The permutation run sorted in `perm` order: `EncTriple[triple_count()]`.
  const EncTriple* run(Permutation perm) const { return runs_[static_cast<int>(perm)]; }

  /// True when the file carries the six cardinality-statistics sections
  /// (format version >= 2; legacy snapshots answer false and the store
  /// rebuilds the statistics on its first Compact).
  bool has_stats() const { return has_stats_; }

  /// Assembles the persisted statistics as an in-place borrow over the
  /// mapped sections, pinned by `keepalive` (the shared SnapshotView
  /// itself). Null when `has_stats()` is false.
  std::shared_ptr<const CardinalityStats> BorrowStats(
      std::shared_ptr<const void> keepalive) const;

  /// True when the view is a live memory mapping (diagnostics only).
  bool mapped() const { return buffer_.mapped(); }

 private:
  FileBuffer buffer_;
  uint64_t triple_count_ = 0;
  uint64_t iri_count_ = 0;
  uint64_t term_count_ = 0;
  uint64_t dict_sorted_limit_ = 0;
  const uint64_t* term_offsets_ = nullptr;
  const uint8_t* term_blob_ = nullptr;
  const TermId* dict_ = nullptr;
  const EncTriple* runs_[3] = {nullptr, nullptr, nullptr};
  bool has_stats_ = false;
  const ValueCount* stats_single_[3] = {nullptr, nullptr, nullptr};  // S, P, O.
  uint64_t stats_single_count_[3] = {0, 0, 0};
  const PairCount* stats_pair_[3] = {nullptr, nullptr, nullptr};  // SP, PO, OS.
  uint64_t stats_pair_count_[3] = {0, 0, 0};
};

/// Serializes `pool` + `store` to `path` (atomic rename). The store's
/// delta must already be merged (`MergeDelta`); a pending delta is
/// `kFailedPrecondition`.
///
/// When the store carries `CardinalityStats` (and `include_stats` is
/// left true) the file is written at format version 2 with the six
/// statistics sections; otherwise a version-1 file is produced,
/// byte-identical to the legacy writer. `include_stats = false` exists
/// for tests exercising the legacy open-and-rebuild path.
Status WriteSnapshot(const std::string& path, const TermPool& pool,
                     const IndexedStore& store, bool include_stats = true);

}  // namespace storage
}  // namespace wdsparql

#endif  // WDSPARQL_STORAGE_SNAPSHOT_H_
