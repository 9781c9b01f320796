#ifndef WDSPARQL_PTREE_SUBTREE_H_
#define WDSPARQL_PTREE_SUBTREE_H_

#include <functional>
#include <optional>
#include <vector>

#include "ptree/pattern_tree.h"
#include "rdf/scan.h"
#include "rdf/triple_set.h"
#include "wdsparql/mapping.h"

/// \file
/// The subtree calculus of wdPTs (Sections 2.1 and 3.1).
///
/// A subtree T' of a wdPT T always contains the root and is closed under
/// parents. Children of a subtree are the nodes just below it. The
/// domination-width machinery additionally needs, for a subtree T of a
/// forest member, the *witness* subtree T^sp(i) of every other tree with
/// the same variable set (unique in NR normal form), and the evaluation
/// algorithms need the unique subtree matching a mapping.

namespace wdsparql {

/// A subtree of a PatternTree: sorted node ids, containing the root and
/// closed under parents. The referenced tree must outlive the subtree.
struct Subtree {
  const PatternTree* tree = nullptr;
  std::vector<NodeId> nodes;  ///< Sorted; always contains 0.

  /// True iff `n` belongs to the subtree.
  bool Contains(NodeId n) const;
};

/// pat(T'): union of the node patterns of the subtree.
TripleSet SubtreePattern(const Subtree& subtree);

/// vars(T'): sorted variables of pat(T').
std::vector<TermId> SubtreeVariables(const Subtree& subtree);

/// The children of the subtree: nodes outside it whose parent is inside.
std::vector<NodeId> SubtreeChildren(const Subtree& subtree);

/// The maximality certificates of T': pat(T') ∪ pat(c) for each child c,
/// in `SubtreeChildren` order. A mapping with domain vars(T') that
/// matches pat(T') is an answer of T' iff none of them extends it.
std::vector<TripleSet> SubtreeCertificates(const Subtree& subtree);

/// Enumerates every subtree of `tree` (all parent-closed node sets
/// containing the root), invoking `fn` for each. The count is exponential
/// in the tree size in general; recognition-level APIs only.
void EnumerateSubtrees(const PatternTree& tree,
                       const std::function<void(const Subtree&)>& fn);

/// Number of subtrees of `tree` (product formula), as a double to avoid
/// overflow on wide trees.
double CountSubtrees(const PatternTree& tree);

/// The maximal subtree whose node variable sets are contained in `vars`
/// (`vars` must be sorted). Greedy from the root; the root is included
/// unconditionally iff vars(root) ⊆ vars, otherwise returns nullopt.
std::optional<Subtree> MaximalSubtreeWithVars(const PatternTree& tree,
                                              const std::vector<TermId>& vars);

/// The witness subtree with vars(T') == `vars` exactly (T^sp in the
/// paper); nullopt if none. Unique when `tree` is in NR normal form.
std::optional<Subtree> FindWitnessSubtree(const PatternTree& tree,
                                          const std::vector<TermId>& vars);

/// The unique subtree T^mu such that mu is a homomorphism from pat(T^mu)
/// to `graph` with dom(mu) = vars(T^mu): grows greedily from the root,
/// including a child iff its variables are bound by mu and its pattern is
/// satisfied, then checks that the subtree's variables cover dom(mu).
/// Returns nullopt if the root fails or coverage does not hold.
std::optional<Subtree> FindMatchingSubtree(const PatternTree& tree, const Mapping& mu,
                                           const TripleSet& graph);

/// Backend-generic variant: membership probes go through the
/// `TripleSource` interface, so any storage engine can serve as `graph`.
std::optional<Subtree> FindMatchingSubtree(const PatternTree& tree, const Mapping& mu,
                                           const TripleSource& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_PTREE_SUBTREE_H_
