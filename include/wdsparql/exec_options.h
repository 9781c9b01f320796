#ifndef WDSPARQL_PUBLIC_EXEC_OPTIONS_H_
#define WDSPARQL_PUBLIC_EXEC_OPTIONS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>

/// \file
/// Per-execution resource bounds.
///
/// Well-designed-pattern enumeration is exponential in the pattern in
/// the worst case, and even easy queries can enumerate huge answer
/// sets. A server cannot hand such an execution an unbounded slice of a
/// worker thread: it needs every request bounded (row limits), timed
/// (deadlines), and individually revocable (cancellation). `ExecOptions`
/// carries those knobs per `Statement::Execute` call; the enumeration
/// state machine checks them *mid-subtree* — between candidates and
/// between maximality certificates, every `check_interval` steps — so a
/// runaway query stops within a bounded amount of work, not at the next
/// answer boundary.
///
/// Outcomes surface on the cursor: a reached row limit parks it in
/// `Cursor::State::kLimited` (the delivered rows are exact answers — a
/// LIMIT-style prefix, not an error); an expired deadline or a fired
/// cancellation token parks it in `kCancelled` with
/// `kDeadlineExceeded` / `kCancelled` diagnostics.
///
/// Thread-safety: the struct is a plain value. The cancellation flag is
/// shared state by design — flip it from any thread (a signal handler,
/// a connection-reaper, an admin endpoint) and every execution holding
/// the token stops at its next check.

namespace wdsparql {

class TraceContext;  // See wdsparql/trace.h.

/// A shared cancellation flag. Create one per revocable unit of work,
/// hand it to any number of executions, and `store(true)` to stop them
/// all at their next check.
using CancelToken = std::shared_ptr<std::atomic<bool>>;

/// Allocates a fresh, unfired cancellation token.
inline CancelToken MakeCancelToken() {
  return std::make_shared<std::atomic<bool>>(false);
}

/// Per-execution bounds, passed to `Statement::Execute`. The default
/// state bounds nothing (unlimited rows, no deadline, no token).
struct ExecOptions {
  /// Maximum rows the cursor delivers; 0 = unlimited. The pull after
  /// the last permitted row returns false with `kLimited`.
  uint64_t row_limit = 0;

  /// Absolute wall-clock bound on enumeration work (steady clock, so
  /// immune to system clock steps). Unset = no deadline.
  std::optional<std::chrono::steady_clock::time_point> deadline;

  /// Cooperative cancellation flag; null = not cancellable. Checked
  /// (relaxed load) every `check_interval` enumeration steps.
  CancelToken cancel;

  /// Enumeration steps (candidates generated or certified) between
  /// deadline/cancellation checks. Smaller = more responsive, more
  /// clock reads; 0 is treated as 1.
  uint32_t check_interval = 64;

  /// Cost-based variable-order optimization (indexed backend only):
  /// when true and the store carries cardinality statistics, each wdpf
  /// subtree's join binding order is chosen by the bottom-up planner
  /// instead of the built-in most-constrained-first heuristic. The
  /// answer *set* is identical either way (the order only changes work);
  /// set false to reproduce pre-optimizer plans exactly (A/B runs,
  /// plan-regression triage).
  bool optimize = true;

  /// Collect per-execution `ExecStats` (see wdsparql/stats.h) on the
  /// cursor: counters per subpattern, scan/dictionary totals and phase
  /// timers, retrievable via `Cursor::stats()`. Off by default: the
  /// disabled path allocates nothing and leaves the enumeration hot
  /// path untouched.
  bool collect_stats = false;

  /// Request-scoped tracing (see wdsparql/trace.h): when non-null, the
  /// execution emits parse/check/plan/enumerate and per-wdpf-subtree
  /// spans into this context, parented under `trace_parent`. The context
  /// is single-threaded and must outlive the cursor. Null (the default)
  /// costs one branch per instrumentation site — no clocks, no
  /// allocation, no atomics.
  TraceContext* trace = nullptr;

  /// Span id in `trace` to parent this execution's spans under
  /// (0 = top level of the trace).
  uint32_t trace_parent = 0;

  /// Convenience: a deadline `budget` from now.
  ExecOptions& WithTimeout(std::chrono::steady_clock::duration budget) {
    deadline = std::chrono::steady_clock::now() + budget;
    return *this;
  }

  /// True iff any bound is set (the cursor skips all checking
  /// machinery otherwise).
  bool bounded() const {
    return row_limit != 0 || deadline.has_value() || cancel != nullptr;
  }
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_EXEC_OPTIONS_H_
