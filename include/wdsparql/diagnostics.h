#ifndef WDSPARQL_PUBLIC_DIAGNOSTICS_H_
#define WDSPARQL_PUBLIC_DIAGNOSTICS_H_

#include <cstddef>
#include <string>
#include <vector>

/// \file
/// Structured preparation diagnostics.
///
/// `Session::Prepare` never reports through bare status strings: every
/// prepared `Statement` carries a `QueryDiagnostics` describing exactly
/// where in the pipeline the query stands — parse, well-designedness,
/// fragment support, plan shape — with the offending variable surfaced
/// as a field rather than buried in prose. Tools branch on `code`;
/// humans read `message`. Plain value type: the copies returned by
/// `Statement::diagnostics()`/`Cursor::diagnostics()` reference no
/// shared mutable state.

namespace wdsparql {

/// Where (if anywhere) preparation stopped, and what the planner learned.
struct QueryDiagnostics {
  /// Outcome category, ordered by pipeline stage.
  enum class Code {
    kOk = 0,             ///< Prepared; the statement is executable.
    kParseError,         ///< The pattern text did not parse.
    kNotWellDesigned,    ///< Violates the well-designedness condition.
    kUnsupported,        ///< Parses but sits outside the executable fragment
                         ///< (e.g. FILTER below AND/OPT).
    kInvalidProjection,  ///< An execution-time projection named an unknown
                         ///< variable.
    kCancelled,          ///< Execution stopped by a fired cancellation
                         ///< token (see wdsparql/exec_options.h).
    kDeadlineExceeded,   ///< Execution stopped at its deadline.
    kInternal,           ///< Pipeline invariant failure (library bug).
  };

  Code code = Code::kOk;

  /// Human-readable explanation (empty when kOk).
  std::string message;

  /// The variable violating well-designedness ("?x" display form), when
  /// the checker can name one; empty otherwise.
  std::string offending_variable;

  /// The original pattern text (empty for pre-parsed patterns).
  std::string pattern_text;

  // Pipeline facts (valid for the stages that completed) --------------

  bool parsed = false;          ///< Pattern text parsed into an AST.
  bool well_designed = false;   ///< Passed the well-designedness check.
  bool union_free = false;      ///< No UNION operator anywhere.

  /// Number of top-level FILTER conditions peeled off and applied as a
  /// post-filter over the enumerated bindings (0 for pure AND/OPT/UNION
  /// queries). Nested FILTERs are rejected as kUnsupported instead.
  std::size_t post_filters = 0;

  /// Trees in wdpf(P) (0 until planning succeeds).
  std::size_t num_trees = 0;

  /// Triple-pattern leaves in the core pattern.
  std::size_t num_triple_patterns = 0;

  /// vars(P) in display form ("?x"), first-occurrence order.
  std::vector<std::string> variables;

  bool ok() const { return code == Code::kOk; }

  /// Renders as "<code>: <message>" ("OK" when healthy).
  std::string ToString() const;
};

/// Human-readable name of a diagnostics code (e.g. "NotWellDesigned").
const char* DiagnosticsCodeToString(QueryDiagnostics::Code code);

}  // namespace wdsparql

#endif  // WDSPARQL_PUBLIC_DIAGNOSTICS_H_
