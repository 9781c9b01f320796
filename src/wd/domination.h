#ifndef WDSPARQL_WD_DOMINATION_H_
#define WDSPARQL_WD_DOMINATION_H_

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "ptree/tgraph.h"
#include "wdsparql/status.h"

/// \file
/// Domination width (Definitions 1 and 2, Section 3.1).
///
/// For a subtree T of a forest F, the paper derives a set GtG(T) of
/// generalised t-graphs (S_Delta, vars(T)), one per *valid children
/// assignment* Delta, capturing every way mu could simultaneously fail
/// to be maximal in all forest members supporting T. GtG(T) is
/// k-dominated if its members of core treewidth <= k homomorphically
/// dominate the rest; dw(F) is the least k making every subtree's GtG
/// k-dominated.
///
/// Everything here is *recognition-level* machinery: enumerating subtrees
/// and children assignments is exponential (the recognition problem is
/// NP-hard already for UNION-free patterns and in Pi^p_2 in general,
/// Section 5), so the APIs carry explicit budgets. The evaluation
/// algorithms in wd/eval.h never call any of this.

namespace wdsparql {

/// A children assignment Delta: tree index -> chosen child node of the
/// witness subtree T^sp(i). Sorted map for deterministic enumeration.
using ChildrenAssignment = std::map<int, NodeId>;

/// supp(T) entry: a supporting tree and its witness subtree T^sp(i).
struct SupportEntry {
  int tree_index = -1;
  Subtree witness;
};

/// Computes supp(T): for each tree of `forest`, the unique subtree with
/// the same variable set as `subtree`, if it exists.
std::vector<SupportEntry> ComputeSupport(const PatternForest& forest,
                                         const Subtree& subtree);

/// The generalised t-graph S_Delta = pat(T) u U_i rho_Delta(i), with
/// variables of each chosen child outside vars(T) renamed fresh via
/// `pool`. `support` must come from ComputeSupport on the same subtree.
GeneralizedTGraph BuildSDelta(const PatternForest& forest, const Subtree& subtree,
                              const std::vector<SupportEntry>& support,
                              const ChildrenAssignment& delta, TermPool* pool);

/// True iff Delta is *valid*: no unsupported index j in supp(T)\dom(Delta)
/// with (pat(T^sp(j)), vars(T)) -> (S_Delta, vars(T)).
bool IsValidAssignment(const PatternForest& forest, const Subtree& subtree,
                       const std::vector<SupportEntry>& support,
                       const ChildrenAssignment& delta,
                       const GeneralizedTGraph& s_delta);

/// An element of GtG(T) with its assignment and core treewidth.
struct GtGElement {
  ChildrenAssignment delta;
  GeneralizedTGraph graph;   ///< (S_Delta, vars(T)).
  int core_treewidth = 0;    ///< ctw(S_Delta, vars(T)).
};

/// Budgets for the recognition computations.
struct DominationOptions {
  uint64_t max_assignments_per_subtree = 1u << 20;
  uint64_t max_subtrees = 1u << 20;
};

/// Computes GtG(T) = {(S_Delta, vars(T)) : Delta valid}, with core
/// treewidths. Fails with ResourceExhausted past the budget.
Result<std::vector<GtGElement>> ComputeGtG(const PatternForest& forest,
                                           const Subtree& subtree, TermPool* pool,
                                           const DominationOptions& options = {});

/// The least k for which `gtg` is k-dominated (Definition 1); 1 if empty.
int MinDominationWidth(const std::vector<GtGElement>& gtg);

/// dw(F): the domination width of the forest (Definition 2).
Result<int> DominationWidth(const PatternForest& forest, TermPool* pool,
                            const DominationOptions& options = {});

/// dw(P) = dw(wdpf(P)) for a well-designed pattern.
Result<int> DominationWidthOfPattern(const PatternPtr& pattern, TermPool* pool,
                                     const DominationOptions& options = {});

}  // namespace wdsparql

#endif  // WDSPARQL_WD_DOMINATION_H_
