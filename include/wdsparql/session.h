#ifndef WDSPARQL_PUBLIC_SESSION_H_
#define WDSPARQL_PUBLIC_SESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "wdsparql/binding_table.h"
#include "wdsparql/cursor.h"
#include "wdsparql/diagnostics.h"
#include "wdsparql/exec_options.h"
#include "wdsparql/mapping.h"
#include "wdsparql/snapshot.h"

/// \file
/// Sessions and prepared statements.
///
/// A `Session` is a cheap read view over a `Database` (a pointer and an
/// options struct — copy freely, one per thread or per request). It
/// prepares pattern text into `Statement`s: parse → well-designedness →
/// wdpf planning, with the outcome carried in structured
/// `QueryDiagnostics` rather than a bare status string. Statements are
/// immutable, shareable, and executed through pull-based `Cursor`s or
/// materialised into columnar `BindingTable`s.
///
/// Concurrency: sessions are value objects bound to the database's
/// move-stable internals — copy them freely, one per thread or per
/// request. On either backend, preparing statements and iterating
/// cursors from many threads is safe even while a single writer thread
/// mutates the database: execution pins an immutable read view, and
/// `Prepare`'s interning of query terms into the shared `TermPool`
/// synchronises internally. See docs/CONCURRENCY.md.

namespace wdsparql {

class Database;
class GraphPattern;   // Internal AST node; see sparql/ast.h.
struct DatabaseImpl;  // Internal owning state; stable across Database moves.
struct StatementImpl;

/// Storage/execution backend selector.
enum class Backend {
  kNaiveHash,  ///< The paper's CSP solver (or pebble game) over the
               ///< pinned view: the paper-faithful oracle, kept for
               ///< differential testing.
  kIndexed,    ///< Dictionary-encoded permutation store + merge joins.
};

/// Human-readable backend name ("naive-hash" / "indexed").
const char* BackendToString(Backend backend);

/// Per-session execution options.
struct SessionOptions {
  Backend backend = Backend::kIndexed;

  /// Domination-width promise k for membership tests on the naive
  /// backend: 0 uses exact homomorphism extension tests (always
  /// correct), k >= 1 the polynomial (k+1)-pebble relaxation of
  /// Theorem 1 (correct under dw <= k).
  int pebble_promise = 0;
};

/// A parsed, validated and planned query. Immutable and cheap to copy
/// (shared state); produced by `Session::Prepare`. Because the prepared
/// state never changes, one statement may be executed from many threads
/// concurrently — every execution opens an independent cursor.
class Statement {
 public:
  /// An unprepared statement (kInternal diagnostics); placeholder only.
  Statement();
  /// \internal Wraps prepared state.
  explicit Statement(std::shared_ptr<const StatementImpl> impl);

  /// True iff the statement is executable.
  bool ok() const;

  /// Full preparation diagnostics (also available on failed statements —
  /// that is the point).
  const QueryDiagnostics& diagnostics() const;

  /// vars(P) in display form ("?x"), first-occurrence order.
  const std::vector<std::string>& variables() const;

  /// Opens a cursor over all variables.
  Cursor Execute() const;

  /// SELECT-style execution: a cursor over the named variable subset
  /// (names with or without the leading '?'), with duplicate projected
  /// rows eliminated. Unknown names yield a kFailed cursor carrying
  /// kInvalidProjection diagnostics.
  Cursor Execute(const std::vector<std::string>& projection) const;

  /// Bounded execution: the cursor observes `options`' row limit,
  /// deadline and cancellation token mid-enumeration (see
  /// wdsparql/exec_options.h). Note `Execute({})` is ambiguous between
  /// this and the projection overload — spell the empty case
  /// `Execute()` or `Execute(ExecOptions{})`.
  Cursor Execute(const ExecOptions& options) const;
  Cursor Execute(const std::vector<std::string>& projection,
                 const ExecOptions& options) const;

  /// Snapshot-bound execution: the cursor enumerates exactly the state
  /// `snapshot` pinned, regardless of batches committed since —
  /// repeatable reads across many cursors (see wdsparql/snapshot.h).
  /// Both backends read the pinned view in place. An invalid snapshot
  /// or one from another database yields a kFailed cursor with
  /// kInternal diagnostics.
  Cursor Execute(const Snapshot& snapshot, const ExecOptions& options = {}) const;
  Cursor Execute(const std::vector<std::string>& projection,
                 const Snapshot& snapshot, const ExecOptions& options = {}) const;

  /// Materialises the execution into a columnar table.
  BindingTable ExecuteTable() const;
  BindingTable ExecuteTable(const std::vector<std::string>& projection) const;

  /// Materialises all answers, sorted and duplicate-free.
  std::vector<Mapping> Solutions() const;

  /// |JPKG| (post-filtered).
  uint64_t Count() const;

  /// wdEVAL membership: decides mu ∈ JPKG on the session's backend
  /// (false on failed statements). The test pins the current read view
  /// for its duration, so it is safe concurrently with the writer.
  bool Contains(const Mapping& mu) const;

  /// Snapshot-bound membership: decides mu ∈ JPKG against exactly the
  /// state `snapshot` pinned, regardless of batches committed since —
  /// the membership analogue of the snapshot `Execute` overloads, so a
  /// server can answer a stream of membership probes from one
  /// repeatable-read point. Returns false on an invalid snapshot or on a
  /// snapshot from another database — mirroring the plain overload's
  /// false-on-failed-statement convention.
  bool Contains(const Mapping& mu, const Snapshot& snapshot) const;

  /// \internal Shared prepared state.
  const std::shared_ptr<const StatementImpl>& impl() const { return impl_; }

 private:
  /// The one execution funnel behind every `Execute` overload.
  Cursor ExecuteInternal(const std::vector<std::string>& projection,
                         const Snapshot* snapshot,
                         const ExecOptions& options) const;

  std::shared_ptr<const StatementImpl> impl_;
};

/// A cheap, concurrently-usable handle preparing queries against one
/// database. Obtained from `Database::OpenSession`. Sessions (and the
/// statements/cursors they produce) bind to the database's internal
/// state, which is stable across `Database` moves — only destroying the
/// database invalidates them.
class Session {
 public:
  /// Full preparation pipeline over the pattern text. Top-level FILTER
  /// conditions are peeled and installed as execution-time post-filters
  /// (so FILTER queries run on the configured backend); FILTER below
  /// AND/OPT is reported as kUnsupported.
  Statement Prepare(std::string_view pattern_text) const;

  /// Prepares an already-parsed pattern (advanced/internal callers; the
  /// pattern must use the database's TermPool).
  Statement PrepareParsed(const std::shared_ptr<const GraphPattern>& pattern) const;

  const SessionOptions& options() const { return options_; }

 private:
  friend class Database;
  Session(const DatabaseImpl* db, SessionOptions options)
      : db_(db), options_(options) {}

  const DatabaseImpl* db_;
  SessionOptions options_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_SESSION_H_
