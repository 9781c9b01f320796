#ifndef WDSPARQL_PUBLIC_DATABASE_H_
#define WDSPARQL_PUBLIC_DATABASE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "wdsparql/metrics.h"
#include "wdsparql/session.h"
#include "wdsparql/snapshot.h"
#include "wdsparql/status.h"
#include "wdsparql/storage.h"
#include "wdsparql/term.h"
#include "wdsparql/trace.h"
#include "wdsparql/triple.h"
#include "wdsparql/write_batch.h"

/// \file
/// The owning database object.
///
/// `Database` is the front door of the engine: it owns the term pool
/// (optionally shared) and the dictionary-encoded SPO/POS/OSP
/// permutation indexes holding the ground graph, and it keeps them maintained
/// *incrementally* under mutation — inserts land in small sorted delta
/// runs and deletions in a tombstone set, folded into the base runs by a
/// periodic linear merge instead of a rebuild-from-scratch (the LSM
/// discipline of production stores). Reads go through `Session`s
/// (cheap, concurrent) and pull-based `Cursor`s.
///
/// Threading model (single writer / many readers; the full contract is
/// docs/CONCURRENCY.md): at most one thread mutates the database at a
/// time; any number of threads may concurrently prepare statements and
/// run cursors, on either backend, *while the writer works*. Every
/// mutation publishes a fresh immutable read view; cursors pin the
/// current view when they open and keep it — readers never block the
/// writer and never observe a half-applied mutation. The exceptions are
/// `Save`/`Checkpoint`/`Compact`, which are writer-side calls. The
/// database must outlive every session, statement and cursor derived
/// from it.
///
/// ```
/// Database db;
/// WriteBatch batch;
/// batch.Add("alice", "knows", "bob");
/// batch.Add("bob", "email", "bob@example.org");
/// db.Apply(std::move(batch));  // One delta build, one publish.
/// Session session = db.OpenSession();
/// Statement stmt = session.Prepare("(?x knows ?y) OPT (?y email ?e)");
/// Cursor cursor = stmt.Execute();
/// while (cursor.Next()) { /* cursor.Row(), cursor.Value(col) */ }
/// ```

namespace wdsparql {

struct DatabaseImpl;

/// Construction-time tuning.
struct DatabaseOptions {
  /// Slack of the automatic merge's copy budget. Every commit rebuilds
  /// the pending delta (inserts + tombstones) copy-on-write; a commit
  /// merges the delta into the base permutation runs once the delta
  /// sizes built since the last merge sum to at least the base size
  /// plus this value. Merges then cost at most about as much as the
  /// copies between them, and the pending delta stays below the base
  /// size plus this value. 0 disables automatic merging (callers then
  /// `Compact()` explicitly).
  std::size_t merge_threshold = 4096;

  /// Span capacity of the flight-recorder trace ring (rounded up to a
  /// power of two; see wdsparql/trace.h). 0 disables tracing entirely —
  /// `trace_recorder()` returns null and every instrumentation site
  /// reduces to one branch.
  std::size_t trace_capacity = TraceRecorder::kDefaultCapacity;
};

/// An owning, mutable triple database with incremental index
/// maintenance. Move-only.
class Database {
 public:
  /// A database owning a private `TermPool`.
  explicit Database(const DatabaseOptions& options = {});

  /// A database interning into an external pool (must outlive the
  /// database) — lets queries, graphs and databases share spellings.
  explicit Database(TermPool* pool, const DatabaseOptions& options = {});

  ~Database();
  Database(Database&&) noexcept;
  Database& operator=(Database&&) noexcept;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Persistence -------------------------------------------------------

  /// Opens the snapshot at `path` (see wdsparql/storage.h and
  /// docs/FILE_FORMAT.md). The file is memory-mapped (with a buffered
  /// fallback) and its term heap and SPO/POS/OSP runs are consumed in
  /// place, so open cost is validation + O(terms), not O(dataset).
  /// With `OpenOptions::durability == kWal` the sibling `<path>.wal` is
  /// replayed (torn tail discarded) and subsequent mutations are logged
  /// before they touch the in-memory delta. Corrupt files yield
  /// `kCorruption`, missing ones `kNotFound` (unless `create_if_missing`
  /// with kWal starts an empty database).
  static Result<Database> Open(const std::string& path,
                               const OpenOptions& options = {});

  /// Serializes the current content to `path` as a single-file snapshot
  /// (atomic rename). Folds any pending delta first, like `Compact`
  /// (open cursors keep the views they pinned).
  Status Save(const std::string& path);

  /// Folds base + delta into a fresh snapshot at the path this database
  /// was opened from, then truncates the write-ahead log. Requires a
  /// database from `Open` (`kFailedPrecondition` otherwise).
  Status Checkpoint();

  /// The sticky status of the storage layer: OK while healthy, or the
  /// first write-ahead-log failure after which mutations return false
  /// without being applied (they were never made durable). Thread-safe:
  /// any thread may poll health while the writer works.
  Status storage_status() const;

  // Mutation (writer side: one mutating thread at a time) -------------
  // Every effective mutation (and non-empty `Compact`) publishes a new
  // read view and bumps `generation()`; a no-op — duplicate insert,
  // absent removal, empty or fully-cancelling batch — publishes
  // nothing. Open cursors are *not* invalidated: they keep the view
  // they pinned at `Open` and continue to enumerate the database
  // exactly as it was then.

  /// Applies `batch` atomically: the net effect of its operations (a
  /// later op on the same triple supersedes an earlier one; ops that
  /// match the current state drop out) lands in ONE merged
  /// copy-on-write delta build, ONE view publish, and — under
  /// `Durability::kWal` — ONE CRC-framed WAL group record, replayed
  /// all-or-nothing on reopen. A batch with empty net effect is a
  /// complete no-op: no publish, no WAL record, no `generation()` bump.
  /// On a WAL append failure nothing is applied and the error latches
  /// in `storage_status()`. `result`, when non-null, receives the net
  /// counts. This is THE bulk-ingest path: per-triple cost is amortised
  /// over the batch (see bench_e15_batch).
  Status Apply(WriteBatch&& batch, ApplyResult* result = nullptr,
               TraceContext* trace = nullptr);

  /// Inserts a ground triple; returns true iff newly inserted (false for
  /// duplicates and for triples containing variables). Equivalent to —
  /// and implemented as — applying a one-element batch.
  bool AddTriple(const Triple& t);

  /// Interns the spellings and inserts the triple.
  bool AddTriple(std::string_view s, std::string_view p, std::string_view o);

  /// Removes a triple; returns true iff it was present.
  bool RemoveTriple(const Triple& t);
  bool RemoveTriple(std::string_view s, std::string_view p, std::string_view o);

  /// Parses N-Triples text (see rdf/ntriples.h for the accepted subset)
  /// and applies it as ONE `WriteBatch` (single delta build, single
  /// publish, single WAL group). Atomic on parse errors: either the
  /// whole text loads or nothing does.
  Status LoadNTriples(std::string_view text);

  /// Reads the file at `path` and loads it as `LoadNTriples`. With
  /// `batch_size > 0` the file is streamed and applied in batches of
  /// that many triples (bounding peak memory and WAL group size at the
  /// price of parse-error atomicity: batches applied before the error
  /// stay applied); `batch_size == 0` loads the whole file as one
  /// atomic batch.
  Status LoadNTriplesFile(const std::string& path, std::size_t batch_size = 0);

  /// Per-batch progress callback for the streaming loader: invoked after
  /// every committed batch with the triples parsed so far and the size
  /// of the batch just applied (ingest tooling reports throughput from
  /// these without re-deriving the streaming loop).
  using LoadProgress =
      std::function<void(std::size_t triples_loaded, std::size_t batch_triples)>;

  /// As `LoadNTriplesFile(path, batch_size)`, reporting progress after
  /// every committed batch (including the final partial one). Requires
  /// `batch_size > 0`.
  Status LoadNTriplesFile(const std::string& path, std::size_t batch_size,
                          const LoadProgress& progress);

  /// Folds pending delta runs and tombstones into the base permutation
  /// runs now. Idempotent; changes no query results. Pinned views keep
  /// the pre-merge runs alive, so open cursors are unaffected.
  void Compact();

  // Inspection (safe on any thread, concurrent with the writer) -------

  /// Number of triples (of the latest published view).
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// True iff the ground triple is present (in the latest view).
  bool Contains(const Triple& t) const;

  /// Pending un-merged index work (delta inserts + tombstones).
  std::size_t pending_delta() const;

  /// The view generation: the monotonic publish counter of the latest
  /// read view. Every successful mutation and every (non-empty)
  /// compaction publishes at least one new view, so two equal
  /// generations bracket an unchanged database; cursors record the
  /// generation of the view they pinned (`Cursor::generation()`). A
  /// commit advances it by exactly one, an automatic merge included;
  /// only a batch too large for one WAL group frame advances it once
  /// per group (`ApplyResult::publishes`).
  uint64_t generation() const;

  /// The term pool. Const access still permits interning (the pool is an
  /// append-only cache), which `Session::Prepare` relies on. The pool
  /// synchronises internally: interning and spelling lookups are safe
  /// from any thread.
  TermPool& pool() const;

  /// The engine-wide metrics registry: always-on counters, gauges and
  /// histograms covering the write path, storage and the view
  /// lifecycle (see wdsparql/metrics.h for the cost model and
  /// docs/OBSERVABILITY.md for the instrument glossary). Thread-safe;
  /// lives as long as the database.
  MetricsRegistry& metrics() const;

  /// Renders every registry instrument (`metrics().Dump(format)`).
  std::string DumpMetrics(MetricsFormat format = MetricsFormat::kText) const;

  /// The flight-recorder trace ring (see wdsparql/trace.h), or null when
  /// `DatabaseOptions::trace_capacity == 0`. Thread-safe; lives as long
  /// as the database. Construct a `TraceContext` over it per request and
  /// hand that to `ExecOptions::trace` / `Apply`.
  TraceRecorder* trace_recorder() const;

  /// The most recent complete traces as JSON
  /// (`trace_recorder()->DumpJson(max_traces)`; `{"traces":[]}` when
  /// tracing is disabled).
  std::string DumpTraces(std::size_t max_traces = 16) const;

  // Reading -----------------------------------------------------------

  /// Opens a session with the given execution options. Sessions are
  /// cheap value objects — open one per thread or per request.
  Session OpenSession(const SessionOptions& options = {}) const;

  /// Pins the current published state as a user-held `Snapshot` for
  /// repeatable reads across many statements and cursors (see
  /// wdsparql/snapshot.h for the lifetime rules). One atomic load plus
  /// a refcount — callable from any thread, concurrent with the writer.
  Snapshot GetSnapshot() const;

 private:
  friend struct DatabaseImpl;
  std::unique_ptr<DatabaseImpl> impl_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_DATABASE_H_
