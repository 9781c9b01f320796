#ifndef WDSPARQL_SPARQL_FILTER_H_
#define WDSPARQL_SPARQL_FILTER_H_

#include <string>
#include <vector>

#include "wdsparql/mapping.h"
#include "wdsparql/term.h"

/// \file
/// FILTER conditions (the Section 5 extension).
///
/// The paper's classified fragment is AND/OPT/UNION; Section 5 explains
/// that adding FILTER breaks the PTIME-vs-W[1]-hard dichotomy, because
/// well-designed patterns with FILTER express conjunctive queries with
/// inequalities, whose evaluation landscape embeds the open EMB(H)
/// classification. This header provides the FILTER substrate so the
/// library can (a) evaluate FILTER patterns under the textbook semantics
/// and (b) exhibit the CQ-with-inequalities embedding behind the
/// Section 5 discussion (see tests/filter_test.cc). FILTER patterns are
/// deliberately rejected by the pattern-forest pipeline: they sit outside
/// the fragment the dichotomy classifies.

namespace wdsparql {

/// Comparison operator of a filter atom.
enum class FilterOp {
  kEquals,     ///< lhs = rhs.
  kNotEquals,  ///< lhs != rhs.
};

/// One comparison between two terms (variables or IRIs).
struct FilterAtom {
  TermId lhs;
  TermId rhs;
  FilterOp op = FilterOp::kEquals;

  friend bool operator==(const FilterAtom& a, const FilterAtom& b) {
    return a.lhs == b.lhs && a.rhs == b.rhs && a.op == b.op;
  }
};

/// A conjunction of filter atoms (the only connective we support; the
/// SPARQL standard's && maps onto it directly).
struct FilterCondition {
  std::vector<FilterAtom> atoms;

  /// The distinct variables mentioned by the condition.
  std::vector<TermId> Variables() const;

  /// SPARQL effective-boolean semantics collapsed to two values: an atom
  /// whose variable operand is unbound evaluates to false (an "error" in
  /// the standard, which FILTER treats as elimination).
  bool Satisfied(const Mapping& mu) const;

  /// Renders as "?x != ?y AND ?z = c".
  std::string ToString(const TermPool& pool) const;

  friend bool operator==(const FilterCondition& a, const FilterCondition& b) {
    return a.atoms == b.atoms;
  }
};

/// Builds the all-pairs disequality condition over `vars` (the gadget
/// that turns homomorphism into *embedding*; Section 5's EMB(H) link).
FilterCondition AllDistinct(const std::vector<TermId>& vars);

}  // namespace wdsparql

#endif  // WDSPARQL_SPARQL_FILTER_H_
