#ifndef WDSPARQL_SPARQL_WELL_DESIGNED_H_
#define WDSPARQL_SPARQL_WELL_DESIGNED_H_

#include <vector>

#include "sparql/ast.h"
#include "wdsparql/status.h"

/// \file
/// Well-designedness (Pérez, Arenas, Gutierrez; Section 2 of the paper).
///
/// A UNION-free pattern P is well designed iff for every subpattern
/// P' = (P1 OPT P2) of P, every variable occurring in P2 but not in P1
/// does not occur outside P' in P. A general pattern is well designed iff
/// it is of the form P1 UNION ... UNION Pm (UNION at top level only,
/// "UNION normal form") with each Pi UNION-free well designed.

namespace wdsparql {

/// Checks whether `pattern` is a well-designed graph pattern. Returns OK,
/// or NotWellDesigned with an explanation naming the offending variable /
/// operator nesting.
Status CheckWellDesigned(const PatternPtr& pattern, const TermPool& pool);

/// Structured outcome of the well-designedness check: the status plus the
/// offending variable as a field (for diagnostics objects), when the
/// violation names one (the UNION-nesting violation does not).
struct WellDesignedness {
  Status status;
  bool has_offending_variable = false;
  TermId offending_variable = 0;  ///< Valid iff has_offending_variable.
};

/// Like CheckWellDesigned, reporting the offending variable structurally.
WellDesignedness CheckWellDesignedDetailed(const PatternPtr& pattern,
                                           const TermPool& pool);

/// True iff `pattern` is well designed.
bool IsWellDesigned(const PatternPtr& pattern, const TermPool& pool);

/// Splits a well-designed pattern into its top-level UNION operands
/// P1, ..., Pm (each UNION-free). Returns NotWellDesigned if a UNION
/// occurs under AND or OPT.
Result<std::vector<PatternPtr>> UnionNormalForm(const PatternPtr& pattern);

}  // namespace wdsparql

#endif  // WDSPARQL_SPARQL_WELL_DESIGNED_H_
