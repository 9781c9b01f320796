#ifndef WDSPARQL_OPTIMIZER_PLANNER_H_
#define WDSPARQL_OPTIMIZER_PLANNER_H_

#include <optional>
#include <string>
#include <vector>

#include "engine/read_view.h"
#include "wdsparql/term.h"

/// \file
/// Cost-based variable-order planning for one conjunctive pattern.
///
/// The engine evaluates a well-designed pattern forest by walking each
/// tree top-down, one search per node with the values its ancestors
/// bound as inputs; inside one node the pattern is purely conjunctive,
/// and its solution set — the homomorphisms of the triple-pattern set —
/// is independent of the order in which the Generic Join
/// (engine/join.h) binds variables. That is the legality boundary the
/// optimizer lives inside: *any* variable order within a node is a
/// correct plan, while reordering *across* nodes would change which
/// maximality certificates wdEVAL tests and is never attempted. The
/// engine plans each tree's root search, the one search without
/// inputs; children keep the heuristic order with their inputs bound.
/// So the search space per root is the variable order; which range the
/// join walks and which it probes at each level follows from the range
/// sizes at run time.
///
/// Costing follows RDF-3X: exact cardinalities for the conjunct's
/// constant bindings from `CardinalityStats`, the independence
/// assumption for positions bound by earlier variables (divide by the
/// position's distinct-value count), and a bottom-up dynamic program
/// over variable subsets (Held-Karp style, exact up to `kDpMaxVars`
/// variables, greedy beyond) minimising the estimated join work: per
/// level, the smallest range walked plus one binary search per range
/// located and per existence probe.
///
/// `PlanSubtree` is a pure function of (view stats, patterns) with
/// deterministic tie-breaking, so a view and a pattern always give the
/// same plan.

namespace wdsparql {
namespace optimizer {

/// Exact dynamic programming is used up to this many unbound variables
/// per subtree (2^n subset states); larger subtrees fall back to the
/// same cost model driven greedily.
inline constexpr int kDpMaxVars = 12;

/// The chosen plan for one conjunctive subtree.
struct SubtreePlan {
  /// Variable binding order (global `TermId`s, first-bound first) —
  /// what `CompiledJoin` consumes.
  std::vector<TermId> var_order;
  /// Estimated solutions of the subtree (independence assumption).
  double est_rows = 0;
  /// Estimated join work of the whole descent under `var_order`:
  /// triples walked plus binary searches (ranges located, probes).
  double est_cost = 0;
};

/// Plans one subtree against `view`. Returns nullopt when there is
/// nothing to plan with or for: the view carries no statistics, the
/// pattern has no unbound variables, or a constant is absent from the
/// view (the join is provably empty; any order is equally cheap).
std::optional<SubtreePlan> PlanSubtree(const ReadView& view,
                                       const std::vector<Triple>& patterns);

/// Renders the plan for EXPLAIN output, e.g. "order=[?y ?x]".
std::string DescribePlan(const SubtreePlan& plan, const TermPool& pool);

}  // namespace optimizer
}  // namespace wdsparql

#endif  // WDSPARQL_OPTIMIZER_PLANNER_H_
