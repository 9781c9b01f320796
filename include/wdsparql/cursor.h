#ifndef WDSPARQL_PUBLIC_CURSOR_H_
#define WDSPARQL_PUBLIC_CURSOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "wdsparql/diagnostics.h"
#include "wdsparql/mapping.h"
#include "wdsparql/stats.h"

/// \file
/// Pull-based result enumeration.
///
/// A `Cursor` is the volcano-style consumer side of a prepared
/// statement: `Open` pins the database's current read view, each `Next`
/// resumes the engine's suspendable enumeration state machine just long
/// enough to produce one more distinct (projected, filtered) answer,
/// and `Close` releases the machinery (and the pinned view) early.
/// Nothing is materialised ahead of the consumer beyond the current
/// subtree's candidate batch, so closing a cursor after the first row
/// skips the maximality certificates of every answer never asked for.
///
/// Executions can be bounded per call with `ExecOptions` (row limits,
/// deadlines, cancellation tokens — see wdsparql/exec_options.h) and
/// pinned to an explicit `Snapshot` for repeatable reads (see
/// wdsparql/snapshot.h); both bind at `Statement::Execute` time.

namespace wdsparql {

struct CursorImpl;

/// Pull-based enumeration of one statement execution. Move-only.
///
/// Lifetime: the cursor holds the prepared statement alive and a
/// refcounted pin on the read view it opened against, on either
/// backend. Mutations (including `Compact`) do NOT invalidate it: the
/// cursor keeps enumerating the exact snapshot it pinned, and the pin is
/// released only explicitly — by `Close`, exhaustion, or destruction.
/// Re-execute the statement for a cursor over the freshest view.
///
/// Thread-safety: one cursor belongs to one thread at a time, but any
/// number of cursors (across threads) may run concurrently with each
/// other and with a single writer mutating the database.
class Cursor {
 public:
  enum class State {
    kUnopened,     ///< Created, not yet opened.
    kOpen,         ///< Mid-enumeration; `Row` is valid after a true `Next`.
    kExhausted,    ///< Every answer was delivered.
    kClosed,       ///< Closed by the consumer.
    kLimited,      ///< `ExecOptions::row_limit` rows were delivered; the
                   ///< rows seen are an exact answer prefix, not an error.
    kCancelled,    ///< Stopped mid-enumeration by a fired cancellation
                   ///< token or an expired deadline (`diagnostics()`
                   ///< distinguishes: kCancelled vs kDeadlineExceeded).
    kFailed,       ///< The statement never prepared / bad projection.
  };

  /// An empty cursor in `kFailed` state (useful as a placeholder).
  Cursor();
  /// \internal Wraps an engine-constructed cursor state.
  explicit Cursor(std::unique_ptr<CursorImpl> impl);
  ~Cursor();
  Cursor(Cursor&&) noexcept;
  Cursor& operator=(Cursor&&) noexcept;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  /// Pins the database's current read view (or takes the bound
  /// snapshot's) and readies enumeration. Idempotent while open; returns
  /// true iff the cursor is (now) open.
  bool Open();

  /// Advances to the next answer. Opens on first call. Returns true iff
  /// a row is available; false on exhaustion, a limit, cancellation or
  /// failure (inspect `state()` to distinguish).
  bool Next();

  /// Releases enumeration state — and the pinned view — early. Further
  /// `Next` calls return false.
  void Close();

  State state() const;

  /// The `Database::generation()` the cursor pinned at `Open` (0 before
  /// opening). The rows this cursor delivers are exactly the statement's
  /// answers over that generation's view.
  uint64_t generation() const;

  /// Why the cursor failed / what was prepared (copied from the
  /// statement, possibly extended with execution-time codes).
  const QueryDiagnostics& diagnostics() const;

  // Row access — valid after `Next` returned true --------------------

  /// Number of projected columns.
  std::size_t width() const;

  /// Header of column `col`, display form ("?x").
  const std::string& VariableName(std::size_t col) const;

  /// True iff column `col` is bound in the current row (OPT answers are
  /// partial: unbound columns are genuine results, not errors).
  bool IsBound(std::size_t col) const;

  /// Spelling of the value in column `col`; empty string when unbound.
  std::string Value(std::size_t col) const;

  /// The current row as a mapping over the projected variables.
  const Mapping& Row() const;

  /// Rows delivered so far.
  uint64_t rows() const;

  /// The execution's statistics, or null unless the cursor was executed
  /// with `ExecOptions::collect_stats`. Counters update live while the
  /// cursor runs and are final once it finishes (exhaustion, limit,
  /// cancellation or `Close`); the pointer stays valid for the cursor's
  /// lifetime — copy the struct to keep it longer.
  const ExecStats* stats() const;

 private:
  std::unique_ptr<CursorImpl> impl_;
};

/// Human-readable cursor state name.
const char* CursorStateToString(Cursor::State state);

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_CURSOR_H_
