#ifndef WDSPARQL_ENGINE_PARALLEL_EXEC_H_
#define WDSPARQL_ENGINE_PARALLEL_EXEC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "ptree/forest.h"
#include "wd/enumerate.h"
#include "wdsparql/mapping.h"
#include "wdsparql/stats.h"
#include "wdsparql/trace.h"

/// \file
/// Parallel query execution over one pinned `ReadView`.
///
/// `ParallelEnumerator` fans one query's candidate space across a small
/// worker pool. Every worker runs its own `SolutionEnumerator` over the
/// same immutable pinned view (views need zero synchronisation with the
/// writer — that was the point of the epoch-publish design), walking the
/// identical deterministic sequence of (subtree, root-binding) work
/// units; a shared atomic counter hands each unit to exactly one worker
/// (`JoinCursor::SetRootClaim`), so partitioning costs one fetch_add per
/// claimed unit and one local compare for everyone else.
///
/// Results flow through a bounded queue into the consumer thread, which
/// only drains it and delivers rows in arrival order. No answer is
/// produced twice: each candidate is generated by exactly one worker,
/// and every worker's enumerator rejects the answers of earlier trees by
/// the stateless witness test (see wd/enumerate.h), whoever emitted
/// them. So the solution *set* is byte-identical to a serial run, the
/// row *order* is not (callers that need determinism sort, exactly as
/// they already must across backends).
///
/// Observability keeps the cursor-local discipline and is exactly as
/// explainable as a serial run: every worker counts into its own
/// `ExecStats` (the join layer's storage counters and its enumerator's
/// record), and shutdown merges them with `AccumulateExecStats` — the
/// same function the cursor's finish path folds a serial record with.
/// Every candidate gets its one verdict inside the worker that pulled
/// it, so the merged breakdown sums to the totals and
/// `candidates == dedup_rejected + non_maximal + rows delivered`.
/// Per-worker and per-subtree trace spans are recorded as plain timings
/// by the workers and emitted from the consumer thread (the
/// TraceContext stays single-threaded), so a parallel trace has the
/// serial one's `subtree` spans, one level down under each `worker`.
///
/// Cancellation ordering: a fired user probe (deadline/cancel token)
/// latches `interrupted` and raises the shared stop flag; every worker
/// observes it within one check interval (or immediately, if blocked on
/// the full queue) and the consumer returns false without draining.

namespace wdsparql {

/// Adds every counter and timer of `from` into `into` and merges the
/// per-subpattern breakdowns by (tree, subtree): counters summed, the
/// first entry's plan report kept, entries in enumeration order. The one
/// accumulation of execution records — parallel workers into the merged
/// record, an enumeration record into the cursor's.
void AccumulateExecStats(const ExecStats& from, ExecStats* into);

/// Merged, pull-based parallel enumeration. Mirrors the
/// slice of the `SolutionEnumerator` interface the engine's cursor
/// drives, so `CursorImpl` can hold either interchangeably.
class ParallelEnumerator {
 public:
  /// Builds one worker's enumeration hooks: `stats` is that worker's
  /// private record for the join layer's counters (null when stats are
  /// not collected), `claim` the work-partitioning filter the hooks must
  /// install into every candidate generator they open (see
  /// `JoinCursor::SetRootClaim`). Invoked once per worker, from the
  /// worker's own thread; everything it closes over must be safe to use
  /// from there (the pinned view is — it is immutable).
  using HooksFactory =
      std::function<EnumerationHooks(ExecStats* stats, std::function<bool()> claim)>;

  struct Options {
    uint32_t workers = 2;
    /// Enumeration steps between stop-flag/probe checks per worker
    /// (mirrors ExecOptions::check_interval).
    uint32_t check_interval = 64;
    /// Bounded result-queue capacity: backpressure for a slow consumer,
    /// and the bound on wasted candidate work after an early exit.
    std::size_t queue_capacity = 256;
    HooksFactory hooks_factory;
  };

  ParallelEnumerator(const PatternForest& forest, Options options);
  ~ParallelEnumerator();

  ParallelEnumerator(const ParallelEnumerator&) = delete;
  ParallelEnumerator& operator=(const ParallelEnumerator&) = delete;

  /// Delivers the next distinct solution (arrival order). Launches the
  /// workers on the first call; returns false once all workers drained
  /// (or the probe fired), after merging the worker records.
  bool Next(Mapping* out);

  /// True iff the enumeration was stopped by the interruption probe.
  bool interrupted() const {
    return user_interrupted_.load(std::memory_order_relaxed);
  }

  /// The merged record of every worker. Final once `Next` returned false
  /// or `Shutdown` ran.
  const ExecStats& stats() const { return stats_; }

  /// Thread-safe interruption probe shared by every worker (the cursor
  /// wires deadline/cancel-token checks through here — both are safe to
  /// evaluate from any thread). Install before the first `Next`.
  void SetInterruptProbe(std::function<bool()> probe, uint32_t interval) {
    probe_ = std::move(probe);
    options_.check_interval = interval == 0 ? 1 : interval;
  }

  /// Enables the counters that cost time to collect: each worker's
  /// per-subpattern breakdown (pat(T') rendered through `pool`, which must
  /// outlive the enumerator) and the join layer's storage counters. The
  /// totals are counted regardless. Call before the first `Next`.
  void CollectStats(const TermPool* pool) { pool_ = pool; }

  /// Trace sink: one "worker" span per worker under `parent`, with that
  /// worker's "subtree" spans under it, recorded by the workers as plain
  /// timings and emitted from the consumer thread at shutdown. Install
  /// before the first `Next`.
  void SetTraceSink(TraceContext* trace, uint32_t parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

  /// Stops the workers (raising the shared stop flag), joins them, and
  /// merges their records into `stats()`. Idempotent; the destructor and
  /// the natural end of `Next` both funnel through here. After an early
  /// exit (row limit, Close) this is how the cursor tears the pool down
  /// promptly: workers blocked on the full queue wake immediately,
  /// enumerating workers stop within one check interval.
  void Shutdown();

 private:
  /// Everything one worker owns: its private record (merged once at
  /// shutdown — workers never touch shared state mid-enumeration) and
  /// the plain span timings for the trace.
  struct Worker {
    ExecStats stats;
    std::chrono::steady_clock::time_point start;
    uint64_t duration_ns = 0;
    std::vector<SubtreeTiming> subtrees;  // Only when a trace sink is set.
    std::thread thread;
  };

  void Start();
  void WorkerMain(std::size_t index);
  /// Claim filter for worker-local use: hands each global work ordinal
  /// to exactly one worker via `claim_counter_`.
  std::function<bool()> MakeClaim();
  /// Blocking bounded push; false when the stop flag cut it short.
  bool Push(Mapping row);
  /// Blocking pop; false when drained or stopped.
  bool Pop(Mapping* out);
  void MergeWorkerStats();

  const PatternForest* forest_;
  Options options_;
  std::function<bool()> probe_;  // User deadline/cancel probe; may be null.

  std::atomic<bool> stop_{false};
  std::atomic<bool> user_interrupted_{false};
  std::atomic<std::size_t> claim_counter_{0};

  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Mapping> queue_;
  std::size_t active_workers_ = 0;

  std::vector<std::unique_ptr<Worker>> workers_;
  bool started_ = false;
  bool finished_ = false;

  ExecStats stats_;  // The merged record (consumer thread).

  const TermPool* pool_ = nullptr;  // Non-null: CollectStats enabled.
  TraceContext* trace_ = nullptr;
  uint32_t trace_parent_ = 0;
};

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_PARALLEL_EXEC_H_
