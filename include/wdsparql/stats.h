#ifndef WDSPARQL_PUBLIC_STATS_H_
#define WDSPARQL_PUBLIC_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// \file
/// Per-query execution statistics.
///
/// `ExecStats` is the per-execution observability record: one plain
/// struct of counters and phase timers, the only one an execution
/// keeps. The join layer, the enumerator and the cursor each write their
/// own fields (docs/OBSERVABILITY.md lists which); the enumeration's
/// counters fold into the cursor's record when the cursor finishes, so
/// read `Cursor::stats()` once the cursor is exhausted, limited or
/// closed. Collection is opt-in per execution
/// (`ExecOptions::collect_stats`); when it is off nothing is allocated
/// and the enumeration hot path is untouched — `Cursor::stats()` simply
/// returns null.
///
/// The counters are *cursor-local*: plain (non-atomic) integers owned by
/// the one thread driving the cursor, so collection adds increments, not
/// cache-line contention, to the hot path. Engine-wide aggregation
/// happens once, at cursor finish, into the database's
/// `MetricsRegistry` (see wdsparql/metrics.h).
///
/// Two renderings are provided: `ToText()` — an EXPLAIN-style tree of
/// the execution (phases, totals, one line per searched node) —
/// and `ToJson()` for machine consumption. `docs/OBSERVABILITY.md`
/// holds the counter glossary and a worked example.

namespace wdsparql {

/// Counters and timers of one statement execution. A plain value: copy
/// it out of the cursor to keep it past the cursor's lifetime.
struct ExecStats {
  /// Per-node breakdown: one entry for every pattern-tree node the
  /// enumerator searched, in the order of their first search. Each of a
  /// tree walk's node searches counts into its node's entry; the root's
  /// entry also carries its tree's answers (`rows`, `dedup_rejected`)
  /// and witness tests. The entries sum to the totals.
  struct Subpattern {
    std::size_t tree = 0;     ///< Index of the pattern tree in wdpf(P).
    std::size_t node = 0;     ///< Node id within its tree (0 = the root).
    std::string pattern;      ///< Rendered pat(n), e.g. "(?x knows ?y)".
    uint64_t candidates = 0;  ///< Rows pulled from the node's searches.
    uint64_t dedup_rejected = 0;    ///< Dropped: answers of an earlier tree.
    uint64_t non_maximal = 0;       ///< Searches of this child that found a row.
    uint64_t maximality_tests = 0;  ///< Searches of this child (root: witness tests).
    uint64_t rows = 0;        ///< Answers of the tree (root entry only).

    // Cost-based optimizer report (indexed backend with statistics;
    // est_rows stays -1 when no plan was chosen — e.g.
    // `ExecOptions::optimize = false` or a stats-less legacy snapshot).
    double est_rows = -1;     ///< Estimated candidates (compare `candidates`).
    double est_cost = 0;      ///< Estimated join work of the chosen order.
    uint64_t plan_ns = 0;     ///< Time the optimizer spent on this node.
    std::string plan;         ///< Chosen order, e.g. "order=[?y ?x]".
  };

  // Phase timers (nanoseconds). Parse/check/plan are properties of the
  // prepared statement (paid once, copied into every execution's stats);
  // enumerate_ns accumulates the wall-clock time this cursor spent
  // inside Next().
  uint64_t parse_ns = 0;      ///< Pattern text -> AST.
  uint64_t check_ns = 0;      ///< Well-designedness check.
  uint64_t plan_ns = 0;       ///< wdpf forest construction + projection.
  uint64_t optimize_ns = 0;   ///< Cost-based variable-order planning.
  uint64_t enumerate_ns = 0;  ///< Time spent pulling rows.

  /// Summed estimated join work across the planned roots (0 when
  /// the optimizer never ran — see `Subpattern::est_rows`).
  double est_cost = 0;

  // Enumeration totals.
  uint64_t rows_emitted = 0;     ///< Rows the cursor delivered (== Cursor::rows()).
  uint64_t candidates = 0;       ///< Rows pulled from node searches.
  uint64_t dedup_rejected = 0;   ///< Dropped as answers of an earlier tree.
  uint64_t non_maximal = 0;      ///< Child searches that found a row.
  /// Extension tests run: the child searches (each the maximality
  /// certificate of the mapping assembled so far) and the earlier-tree
  /// witness tests behind `dedup_rejected`.
  uint64_t maximality_tests = 0;
  uint64_t filtered_out = 0;     ///< Answers dropped by post-FILTERs.
  uint64_t projection_dedup_rejected = 0;  ///< Dropped by SELECT dedup.
  uint64_t empty_subpatterns = 0;  ///< Child searches that found no row.
  uint64_t interrupt_checks = 0;   ///< Deadline/cancellation probe calls.

  // Storage counters (indexed backend; zero on the naive-hash oracle).
  uint64_t ranges_scanned = 0;        ///< Ranges materialised, one per level fill.
  uint64_t values_probed = 0;         ///< Existence probes of a value into a conjunct.
  uint64_t base_triples_scanned = 0;  ///< Triples read from base runs.
  uint64_t delta_triples_scanned = 0; ///< Triples read from delta runs.
  uint64_t dict_encodes = 0;          ///< Term -> DataId dictionary probes.
  uint64_t dict_decodes = 0;          ///< DataId -> Term resolutions.

  /// Backend the execution ran on ("indexed" / "naive-hash").
  std::string backend;

  std::vector<Subpattern> subpatterns;

  /// Human-readable EXPLAIN-style rendering: phases, totals, then one
  /// line per searched node with its candidate/rejection/row counts.
  std::string ToText() const;

  /// The same content as one JSON object.
  std::string ToJson() const;
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_STATS_H_
