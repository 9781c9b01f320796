#ifndef WDSPARQL_WD_BRANCH_WIDTH_H_
#define WDSPARQL_WD_BRANCH_WIDTH_H_

#include <vector>

#include "ptree/pattern_tree.h"
#include "ptree/tgraph.h"
#include "sparql/ast.h"
#include "wdsparql/status.h"

/// \file
/// Branch treewidth (Definition 3, Section 3.2).
///
/// For a wdPT T and a non-root node n, the branch B_n is the root-to-
/// parent path of n; S^br_n = pat(n) u U_{n' in B_n} pat(n') and
/// X^br_n = vars(U_{n' in B_n} pat(n')). The branch treewidth bw(T) is
/// the least k with ctw(S^br_n, X^br_n) <= k for all non-root n.
/// Proposition 5: for UNION-free well-designed patterns, dw(P) = bw(P);
/// this module provides the simpler measure (and the tests confirm the
/// coincidence against wd/domination.h).

namespace wdsparql {

/// Per-node detail of a branch treewidth computation.
struct BranchNodeWidth {
  NodeId node = -1;
  GeneralizedTGraph branch_graph;  ///< (S^br_n, X^br_n).
  int core_treewidth = 0;          ///< ctw(S^br_n, X^br_n).
};

/// Computes ctw(S^br_n, X^br_n) for every non-root node of `tree`.
std::vector<BranchNodeWidth> BranchWidths(const PatternTree& tree);

/// bw(T): the branch treewidth of the tree (1 for single-node trees).
int BranchTreewidth(const PatternTree& tree);

/// bw(P) for a UNION-free well-designed pattern (Definition 3); fails on
/// patterns with UNION or that are not well designed.
Result<int> BranchTreewidthOfPattern(const PatternPtr& pattern, const TermPool& pool);

}  // namespace wdsparql

#endif  // WDSPARQL_WD_BRANCH_WIDTH_H_
