#ifndef WDSPARQL_PUBLIC_WRITE_BATCH_H_
#define WDSPARQL_PUBLIC_WRITE_BATCH_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "wdsparql/status.h"
#include "wdsparql/term.h"
#include "wdsparql/triple.h"

/// \file
/// Batched, atomic mutation.
///
/// A `WriteBatch` accumulates an ordered sequence of add/remove
/// operations as a plain value — no database reference, no locks, no
/// I/O — and `Database::Apply` installs the whole sequence at once:
/// ONE merged copy-on-write delta build, ONE atomic read-view publish,
/// and (under `Durability::kWal`) ONE CRC-framed group record in the
/// write-ahead log. This is the RocksDB batch discipline adapted to a
/// triple store: per-mutation cost is amortised over the batch, readers
/// observe either none or all of it, and a crash replays it
/// all-or-nothing.
///
/// Operations carry term *spellings* (the portable currency this
/// library already uses in the WAL), so a batch can be built on any
/// thread, long before the target database exists, and shipped around
/// freely. Order matters exactly as much as replaying the operations
/// one by one would: a later operation on the same triple supersedes an
/// earlier one (`Add` then `Remove` cancels out; `Remove` then `Add`
/// nets to an insert).
///
/// Thread-safety: a plain value. Build on one thread at a time; copy or
/// move freely between threads.

namespace wdsparql {

/// Net outcome of one `Database::Apply`: what actually changed after
/// in-batch cancellation and comparison against the current state, plus
/// the commit's observability facts — what the WAL and the view publish
/// machinery did on its behalf — so batch callers no longer infer them
/// from generation deltas or log sizes.
struct ApplyResult {
  std::size_t added = 0;    ///< Triples newly inserted.
  std::size_t removed = 0;  ///< Previously present triples removed.

  /// Write-ahead-log bytes this commit appended (frame headers
  /// included). 0 without `Durability::kWal` or for a no-op batch.
  uint64_t wal_bytes = 0;

  /// WAL frames written: 1 for every practical batch; more when the
  /// batch exceeded the group payload budget and degraded into several
  /// consecutive group frames. 0 without kWal or for a no-op.
  uint64_t wal_groups = 0;

  /// Read-view publishes this commit performed: 1 for an effective
  /// batch (an automatic merge folds inside that publish), one per
  /// group when the batch spans several WAL group frames, 0 for a no-op.
  uint64_t publishes = 0;

  /// Net operations applied (adds + removes after cancellation).
  std::size_t net_ops() const { return added + removed; }

  /// True iff the batch changed nothing (no publish happened).
  bool no_op() const { return added == 0 && removed == 0; }
};

/// An ordered, self-contained sequence of triple mutations, applied
/// atomically by `Database::Apply`.
class WriteBatch {
 public:
  /// One accumulated operation (spelling form).
  struct Op {
    bool add;  ///< true = insert, false = remove.
    std::string subject;
    std::string predicate;
    std::string object;
  };

  WriteBatch() = default;

  /// Queues an insert of the ground triple with the given IRI spellings
  /// (no angle brackets, as `Database::AddTriple`).
  void Add(std::string_view subject, std::string_view predicate,
           std::string_view object);

  /// Queues a removal by spelling. Removing a triple the database never
  /// held (and that no earlier `Add` in this batch introduces) is a
  /// silent no-op at apply time.
  void Remove(std::string_view subject, std::string_view predicate,
              std::string_view object);

  /// Queues an insert of `t`, resolving spellings through `pool` (use
  /// the database's own `Database::pool()`). Returns false — and queues
  /// nothing — when `t` contains a variable: only ground triples are
  /// storable facts.
  bool Add(const TermPool& pool, const Triple& t);

  /// Queues a removal of `t` via `pool` spellings; false for non-ground
  /// triples.
  bool Remove(const TermPool& pool, const Triple& t);

  /// Parses N-Triples text (the rdf/ntriples.h subset) and queues an
  /// `Add` per triple. Atomic on parse errors: either every line's
  /// triple is queued or the batch is left untouched.
  Status LoadNTriples(std::string_view text);

  /// Reads the file at `path` and queues it as `LoadNTriples`.
  Status LoadNTriplesFile(const std::string& path);

  /// Number of queued operations (not net effect: an add/remove pair of
  /// the same triple counts twice here and zero at apply time).
  std::size_t size() const { return ops_.size(); }
  bool empty() const { return ops_.empty(); }

  /// Drops every queued operation; the batch is reusable afterwards.
  void Clear() { ops_.clear(); }

  /// The queued operations, in order. Stable surface for tooling and
  /// for `Database::Apply` itself.
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_WRITE_BATCH_H_
