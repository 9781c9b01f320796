#ifndef WDSPARQL_ENGINE_API_INTERNAL_H_
#define WDSPARQL_ENGINE_API_INTERNAL_H_

#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "engine/indexed_store.h"
#include "engine/join.h"
#include "engine/parallel_exec.h"
#include "engine/read_view.h"
#include "ptree/forest.h"
#include "sparql/ast.h"
#include "sparql/filter.h"
#include "storage/wal.h"
#include "wd/enumerate.h"
#include "wdsparql/cursor.h"
#include "wdsparql/database.h"
#include "wdsparql/diagnostics.h"
#include "wdsparql/exec_options.h"
#include "wdsparql/metrics.h"
#include "wdsparql/session.h"
#include "wdsparql/stats.h"

/// \file
/// Shared implementation state behind the public Database/Session/Cursor
/// pimpl surface. In-tree only: the public headers forward-declare these
/// types; database.cc, session.cc, cursor.cc and storage/persist.cc (plus
/// in-tree tests, benches and tools) include this header to cross the
/// pimpl boundary.
///
/// Threading model (see docs/CONCURRENCY.md for the full contract): one
/// writer thread mutates; any number of reader threads pin `ReadView`s
/// through the store's epoch publish and run statements/cursors over
/// them. The pinned view is the only thing either backend reads: the
/// indexed engine joins over it, the naive oracle runs the paper's CSP
/// solver (or pebble game) over it. The fields below are annotated with
/// which side touches them.

namespace wdsparql {

/// Everything a `Database` owns.
struct DatabaseImpl {
  DatabaseImpl(TermPool* external_pool, const DatabaseOptions& opts)
      : owned_pool(external_pool == nullptr ? std::make_unique<TermPool>() : nullptr),
        pool(external_pool != nullptr ? external_pool : owned_pool.get()),
        options(opts) {
    store.set_merge_threshold(options.merge_threshold);
    store.set_metrics(metrics);
    if (options.trace_capacity != 0) {
      trace = std::make_unique<TraceRecorder>(options.trace_capacity);
    }
  }

  /// Crosses the pimpl boundary for in-tree code (storage/persist.cc,
  /// tests); DatabaseImpl is the one friend of Database.
  static DatabaseImpl& Get(const Database& db) { return *db.impl_; }

  /// The sticky storage status, thread-safe (readers may poll health
  /// while the writer latches a WAL failure).
  Status sticky_storage_status() const {
    std::lock_guard<std::mutex> lock(storage_mutex);
    return storage_error;
  }

  /// Latches the first storage failure (no-op once latched).
  void LatchStorageError(const Status& status) {
    std::lock_guard<std::mutex> lock(storage_mutex);
    if (storage_error.ok()) storage_error = status;
  }

  /// Clears the latch (Checkpoint folded everything into the snapshot).
  void ClearStorageError() {
    std::lock_guard<std::mutex> lock(storage_mutex);
    storage_error = Status::OK();
  }

  std::unique_ptr<TermPool> owned_pool;  // Null when the pool is external.
  TermPool* pool;
  /// The engine-wide metrics registry. Shared ownership so view
  /// lifetime tokens (the `views.live` gauge) and the WAL can hold it
  /// safely however long their owners live; updated from any thread
  /// (relaxed atomics inside).
  std::shared_ptr<MetricsRegistry> metrics = std::make_shared<MetricsRegistry>();
  /// The flight-recorder trace ring; null when
  /// `DatabaseOptions::trace_capacity == 0`. Lock-free, written by
  /// request-local `TraceContext` flushes from any thread.
  std::unique_ptr<TraceRecorder> trace;
  IndexedStore store;  // Permutation-indexed store; publishes the ReadViews.
  DatabaseOptions options;

  // The public view generation lives inside the store's published
  // ReadView (one counter, no way for the pinned view and the reported
  // generation to disagree); see IndexedStore::generation().

  // Persistence state (Database::Open / Save / Checkpoint). Writer side,
  // except the sticky status which is mutex-guarded for readers.
  std::string snapshot_path;           // Checkpoint target; empty if not opened.
  std::unique_ptr<storage::WriteAheadLog> wal;  // Null without kWal.
  mutable std::mutex storage_mutex;    // Guards storage_error.
  Status storage_error;                // Sticky last WAL/storage failure.
};

/// Everything a prepared `Statement` shares with its cursors.
/// Immutable after `Session::Prepare` returns, so it is safe to execute
/// one statement from many threads concurrently (each execution gets
/// its own cursor state).
struct StatementImpl {
  const DatabaseImpl* db = nullptr;
  SessionOptions options;
  QueryDiagnostics diagnostics;
  PatternPtr pattern;                   // Original pattern (with filters).
  PatternPtr core;                      // Filter-free executable core.
  std::vector<FilterCondition> filters; // Peeled top-level FILTERs.
  PatternForest forest;                 // wdpf(core).
  std::vector<TermId> var_ids;          // vars(core), first occurrence.
  std::vector<std::string> var_names;   // Display forms ("?x").

  // Preparation phase timers (always measured — three clock reads per
  // prepare — and copied into every stats-collecting execution).
  uint64_t parse_ns = 0;  // Text -> AST (0 for PrepareParsed).
  uint64_t check_ns = 0;  // Well-designedness check.
  uint64_t plan_ns = 0;   // Filter peel + wdpf forest + variables.
};

/// One cursor's execution state. Owned by exactly one thread at a time
/// (cursors are not shared); the pinned view decouples it from the
/// writer.
struct CursorImpl {
  std::shared_ptr<const StatementImpl> stmt;
  QueryDiagnostics diagnostics;
  Cursor::State state = Cursor::State::kUnopened;

  // Projection (column order; equal to the statement's variables when no
  // projection was requested).
  std::vector<TermId> columns;
  std::vector<std::string> column_names;
  bool dedup = false;  // Proper-subset projection: eliminate duplicates.

  // Live enumeration machinery (created at Open). Exactly one of
  // `enumerator` (serial) and `parallel` (ExecOptions::parallelism > 1
  // on the indexed backend) is non-null while the cursor is open.
  std::unique_ptr<SolutionEnumerator> enumerator;
  std::unique_ptr<ParallelEnumerator> parallel;
  std::unordered_set<Mapping, MappingHash> emitted;
  Mapping row;

  /// The store snapshot this cursor reads (both backends). Pinned at
  /// `Open` — or copied from a user-held `Snapshot` at `Execute` when
  /// `snapshot_bound` — and released at exhaustion, `Close` or
  /// destruction; mutations never invalidate it.
  std::shared_ptr<const ReadView> view;
  /// True when `view` came from a user-held `Snapshot`: `Open` must use
  /// it as-is instead of pinning the freshest published view.
  bool snapshot_bound = false;
  /// Per-execution bounds (row limit, deadline, cancellation token),
  /// bound at `Execute` time. Default state bounds nothing.
  ExecOptions exec;
  /// The pinned view's generation (kept after the view is released).
  uint64_t open_generation = 0;
  uint64_t rows = 0;

  /// Execution statistics, allocated only when
  /// `ExecOptions::collect_stats` is set (the disabled path allocates
  /// and counts nothing — `Cursor::stats()` is null).
  std::unique_ptr<ExecStats> stats;
  /// Join-layer counters the indexed-backend hooks write into when
  /// stats are on (cursor-local, folded into `stats` at finish).
  JoinStats join_stats;
  /// The enumerator's aggregate totals, snapshotted before the
  /// enumerator is released on a finish path (they feed the registry
  /// merge, which may run later than the reset).
  EnumerateStats enum_totals;
  /// The "enumerate" span opened at `Open` in `exec.trace` (0 when not
  /// tracing); ended with rows/outcome annotations when the cursor
  /// finalizes. The TraceContext in `exec` must outlive the cursor.
  uint32_t enumerate_span = 0;
  /// One-shot finish latch: the registry merge and the JoinStats fold
  /// run exactly once, whichever of exhaustion/Close/destruction comes
  /// first.
  bool finalized = false;
};

namespace engine_internal {

/// Enumeration hooks for the session's backend over `view` (pinned by
/// the caller — this is the cursor's pin-at-open step; the hooks share
/// ownership of it). Bound to the move-stable impl, not the movable
/// `Database` shell. The indexed backend opens a resumable `JoinCursor`
/// per subtree; the naive backend materialises each subtree's
/// homomorphisms with the CSP solver. A non-null `join_stats` (indexed
/// backend only) receives the join layer's scan and dictionary counters;
/// it must outlive the hooks. A non-null `root_claim` (indexed backend
/// only) is installed into every candidate generator the hooks open —
/// the parallel workers' space-partitioning filter (see
/// JoinCursor::SetRootClaim). `optimize` (indexed backend only) enables
/// the cost-based variable-order planner for each opened generator when
/// the view carries cardinality statistics; false preserves the
/// historic heuristic order exactly.
EnumerationHooks MakeEnumerationHooks(const DatabaseImpl& db,
                                      const SessionOptions& options,
                                      std::shared_ptr<const ReadView> view,
                                      JoinStats* join_stats = nullptr,
                                      std::function<bool()> root_claim = nullptr,
                                      bool optimize = true);

/// wdEVAL membership on the session's backend (no filter application):
/// decides mu ∈ JPKG against exactly the state `view` pinned, whatever
/// the writer has committed since. Backs both `Statement::Contains`
/// overloads.
bool EvaluateMembership(const PatternForest& forest, const SessionOptions& options,
                        const Mapping& mu, std::shared_ptr<const ReadView> view);

}  // namespace engine_internal

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_API_INTERNAL_H_
