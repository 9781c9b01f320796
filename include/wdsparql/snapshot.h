#ifndef WDSPARQL_PUBLIC_SNAPSHOT_H_
#define WDSPARQL_PUBLIC_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "wdsparql/triple.h"

/// \file
/// User-held pinned read views.
///
/// Cursors have always pinned the store's current read view at `Open`,
/// but that pin was private: every `Execute` re-pinned the freshest
/// state, so two statements — or two executions of one statement —
/// could observe different database generations. A `Snapshot` makes the
/// pin a first-class value: `Database::GetSnapshot()` captures the
/// current view, and every `Statement::Execute` overload taking the
/// snapshot enumerates exactly that state, however many cursors, and
/// whatever the writer commits in between. This is the repeatable-read
/// handle of production stores (RocksDB's `GetSnapshot`, RDF-3X's
/// query-time version), built on the same epoch-published `ReadView`
/// machinery the cursors already use — taking one is one atomic load
/// plus a refcount, never a copy.
///
/// Lifetime rules (docs/CONCURRENCY.md has the full contract):
///  * A snapshot keeps its view's storage alive — superseded base runs,
///    delta runs, and a mapped snapshot file the view may borrow — for
///    exactly as long as the snapshot (or any cursor opened from it)
///    exists. Holding snapshots indefinitely on a mutating database
///    therefore holds memory; drop them when done.
///  * The `Database` must outlive the snapshot (the snapshot pins
///    storage, not the database object).
///  * Snapshots are immutable and freely copyable; copies share the pin.
///  * Both backends serve snapshot-bound executions and read the
///    pinned view in place, so the naive oracle can be compared with
///    the indexed engine under a live writer.

namespace wdsparql {

class ReadView;       // Internal pinned view; see engine/read_view.h.
struct DatabaseImpl;  // Internal owning state; stable across Database moves.

/// An immutable, copyable handle on one published database state.
/// Obtained from `Database::GetSnapshot()`; bound into executions via
/// the `Statement::Execute` snapshot overloads.
class Snapshot {
 public:
  /// An empty, invalid snapshot (binds to nothing; executing against it
  /// yields a failed cursor).
  Snapshot() = default;

  /// True iff the snapshot pins a database state.
  bool valid() const { return view_ != nullptr; }

  /// The `Database::generation()` this snapshot pinned (0 if invalid).
  uint64_t generation() const;

  /// Number of triples in the pinned state (0 if invalid).
  std::size_t size() const;

  /// True iff the ground triple is present in the pinned state. Safe on
  /// any thread, concurrent with the writer — the answer never changes
  /// for a given snapshot.
  bool Contains(const Triple& t) const;

 private:
  friend class Database;   // Constructs snapshots in GetSnapshot().
  friend class Statement;  // Binds the pinned view into cursors.

  Snapshot(const DatabaseImpl* db, std::shared_ptr<const ReadView> view)
      : db_(db), view_(std::move(view)) {}

  const DatabaseImpl* db_ = nullptr;
  std::shared_ptr<const ReadView> view_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_SNAPSHOT_H_
