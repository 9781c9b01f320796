#ifndef WDSPARQL_SPARQL_AST_H_
#define WDSPARQL_SPARQL_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "sparql/filter.h"
#include "wdsparql/term.h"
#include "wdsparql/triple.h"

/// \file
/// The SPARQL graph-pattern algebra (Section 2 of the paper).
///
/// A graph pattern is either a triple pattern or P1 op P2 for
/// op in {AND, OPT, UNION}. Patterns are immutable and shared via
/// `PatternPtr`; factory functions build them compositionally, which the
/// query-family generators rely on.

namespace wdsparql {

class GraphPattern;

/// Shared handle to an immutable graph pattern.
using PatternPtr = std::shared_ptr<const GraphPattern>;

/// The operator (or leaf-ness) of a pattern node.
enum class PatternKind {
  kTriple,  ///< A SPARQL triple pattern (leaf).
  kAnd,     ///< P1 AND P2.
  kOpt,     ///< P1 OPT P2 (OPTIONAL).
  kUnion,   ///< P1 UNION P2.
  kFilter,  ///< P FILTER R (the Section 5 extension; unary, see filter.h).
};

/// An immutable SPARQL graph-pattern node.
class GraphPattern {
 public:
  /// The node's operator / leaf kind.
  PatternKind kind() const { return kind_; }

  /// The triple of a leaf node; fatal on inner nodes.
  const Triple& triple() const {
    WDSPARQL_CHECK(kind_ == PatternKind::kTriple);
    return triple_;
  }

  /// Left operand of a binary node (or the child of a FILTER); fatal on
  /// leaves.
  const PatternPtr& left() const {
    WDSPARQL_CHECK(kind_ != PatternKind::kTriple);
    return left_;
  }

  /// Right operand of a binary node; fatal on leaves and FILTER nodes.
  const PatternPtr& right() const {
    WDSPARQL_CHECK(kind_ != PatternKind::kTriple && kind_ != PatternKind::kFilter);
    return right_;
  }

  /// The condition of a FILTER node; fatal otherwise.
  const FilterCondition& condition() const {
    WDSPARQL_CHECK(kind_ == PatternKind::kFilter);
    return condition_;
  }

  /// vars(P): the distinct variables of the pattern, in first-occurrence
  /// order.
  std::vector<TermId> Variables() const;

  /// Number of triple-pattern leaves.
  int NumTriples() const;

  /// Total number of AST nodes (|P| up to constants).
  int NumNodes() const;

  /// True iff the pattern contains no UNION operator.
  bool IsUnionFree() const;

  /// Renders the pattern with explicit parentheses, e.g.
  /// "((?x p ?y) OPT (?y q ?z))".
  std::string ToString(const TermPool& pool) const;

  // Factories -------------------------------------------------------------

  /// A leaf triple pattern.
  static PatternPtr MakeTriple(const Triple& t);
  /// P1 AND P2.
  static PatternPtr MakeAnd(PatternPtr left, PatternPtr right);
  /// P1 OPT P2.
  static PatternPtr MakeOpt(PatternPtr left, PatternPtr right);
  /// P1 UNION P2.
  static PatternPtr MakeUnion(PatternPtr left, PatternPtr right);
  /// P FILTER R.
  static PatternPtr MakeFilter(PatternPtr child, FilterCondition condition);

  /// AND-folds `patterns` left-associatively; fatal on empty input.
  static PatternPtr MakeAndAll(const std::vector<PatternPtr>& patterns);
  /// UNION-folds `patterns` left-associatively; fatal on empty input.
  static PatternPtr MakeUnionAll(const std::vector<PatternPtr>& patterns);

 private:
  GraphPattern(PatternKind kind, Triple triple, PatternPtr left, PatternPtr right)
      : kind_(kind), triple_(triple), left_(std::move(left)), right_(std::move(right)) {}

  void CollectVariables(std::vector<TermId>* out) const;

  PatternKind kind_;
  Triple triple_;              // Valid only for kTriple.
  PatternPtr left_;
  PatternPtr right_;           // Null for kFilter.
  FilterCondition condition_;  // Valid only for kFilter.
};

/// Renders the operator keyword ("AND", "OPT", "UNION").
const char* PatternKindToString(PatternKind kind);

}  // namespace wdsparql

#endif  // WDSPARQL_SPARQL_AST_H_
