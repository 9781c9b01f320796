#ifndef WDSPARQL_ENGINE_API_INTERNAL_H_
#define WDSPARQL_ENGINE_API_INTERNAL_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "engine/indexed_store.h"
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

/// A registry instrument resolved by name once and then cached: the
/// per-query and per-commit paths skip the registry's name lookup, its
/// mutex and the key's allocation. The lookup still runs at first use,
/// so an instrument enters the registry (and its dumps) exactly when an
/// uncached lookup would have created it. Any thread may call `get`;
/// registry addresses are stable, so racing first uses cache the same
/// pointer.
template <typename Instrument>
class CachedInstrument {
 public:
  CachedInstrument(MetricsRegistry* registry, const char* name)
      : registry_(registry), name_(name) {}

  Instrument& get() const {
    Instrument* instrument = cached_.load(std::memory_order_acquire);
    if (instrument == nullptr) {
      if constexpr (std::is_same_v<Instrument, Counter>) {
        instrument = &registry_->counter(name_);
      } else {
        instrument = &registry_->histogram(name_);
      }
      cached_.store(instrument, std::memory_order_release);
    }
    return *instrument;
  }

 private:
  MetricsRegistry* registry_;
  const char* name_;
  mutable std::atomic<Instrument*> cached_{nullptr};
};

/// The registry instruments that every query or commit updates,
/// resolved once per database (see docs/OBSERVABILITY.md).
struct ExecutionInstruments {
  explicit ExecutionInstruments(MetricsRegistry* registry)
      : cursors_opened(registry, "query.cursors_opened"),
        rows_emitted(registry, "query.rows_emitted"),
        candidates(registry, "query.candidates"),
        maximality_tests(registry, "query.maximality_tests"),
        deadline_exceeded(registry, "query.deadline_exceeded"),
        cancelled(registry, "query.cancelled"),
        limited(registry, "query.limited"),
        closed_early(registry, "query.closed_early"),
        enumerate_ns(registry, "query.enumerate_ns"),
        optimizer_plans(registry, "optimizer.plans"),
        optimizer_plan_ns(registry, "optimizer.plan_ns"),
        write_commits(registry, "write.commits"),
        write_net_ops(registry, "write.net_ops") {}

  CachedInstrument<Counter> cursors_opened;
  CachedInstrument<Counter> rows_emitted;
  CachedInstrument<Counter> candidates;
  CachedInstrument<Counter> maximality_tests;
  CachedInstrument<Counter> deadline_exceeded;
  CachedInstrument<Counter> cancelled;
  CachedInstrument<Counter> limited;
  CachedInstrument<Counter> closed_early;
  CachedInstrument<Histogram> enumerate_ns;
  CachedInstrument<Counter> optimizer_plans;
  CachedInstrument<Histogram> optimizer_plan_ns;
  CachedInstrument<Counter> write_commits;
  CachedInstrument<Histogram> write_net_ops;
};

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
  /// `metrics`' per-query and per-commit instruments.
  ExecutionInstruments instruments{metrics.get()};
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

  // Live enumeration machinery (created at Open).
  std::unique_ptr<SolutionEnumerator> enumerator;
  std::unordered_set<Mapping, MappingHash> emitted;
  Mapping row;
  /// The buffer each pull writes into. Without a projection it swaps
  /// with `row`, so rows reuse their binding storage.
  Mapping pulled;

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
  /// nothing — `Cursor::stats()` is null). The join layer counts
  /// straight into it; the enumeration record folds in at finish.
  std::unique_ptr<ExecStats> stats;
  /// The "enumerate" span opened at `Open` in `exec.trace` (0 when not
  /// tracing); ended with rows/outcome annotations when the cursor
  /// finalizes; the enumerator adds its `subtree` spans under it. The
  /// TraceContext in `exec` must outlive the cursor.
  uint32_t enumerate_span = 0;
  /// One-shot finish latch: the record fold, the registry merge and the
  /// release run exactly once, whichever of exhaustion/Close/destruction
  /// comes first.
  bool finalized = false;
};

/// Folds an enumeration record into a cursor's record: adds every
/// counter and appends the per-subpattern breakdown.
void AccumulateExecStats(const ExecStats& from, ExecStats* into);

namespace engine_internal {

/// Enumeration hooks for the session's backend over `view` (pinned by
/// the caller — this is the cursor's pin-at-open step; the hooks share
/// ownership of it). Bound to the move-stable impl, not the movable
/// `Database` shell. The indexed backend compiles each node search into
/// a `CompiledJoin` whose rows stay `DataId`s until an answer is
/// decoded; the naive backend runs the CSP solver (`SolverSearch`). A
/// non-null `join_stats` (indexed backend only) receives the join
/// layer's scan and dictionary counters; it must outlive the hooks.
/// `optimize` (indexed backend only) enables the cost-based
/// variable-order planner for each tree's root search when the view
/// carries cardinality statistics; false preserves the historic
/// heuristic order exactly.
EnumerationHooks MakeEnumerationHooks(const DatabaseImpl& db,
                                      const SessionOptions& options,
                                      std::shared_ptr<const ReadView> view,
                                      ExecStats* join_stats = nullptr,
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
