#ifndef WDSPARQL_PTREE_PATTERN_TREE_H_
#define WDSPARQL_PTREE_PATTERN_TREE_H_

#include <string>
#include <vector>

#include "rdf/triple_set.h"
#include "wdsparql/status.h"

/// \file
//// Well-designed pattern trees (wdPTs; Section 2.1 of the paper).
///
/// A wdPT is a rooted tree whose nodes are labelled with t-graphs, the
/// tree shape encoding the nesting of OPT operators of a UNION-free
/// well-designed pattern. Node 0 is always the root. Trees satisfy the
/// variable-connectivity condition (the nodes mentioning any fixed
/// variable induce a connected subgraph) and — after `ToNrNormalForm` —
/// the NR ("non-redundant") condition: every non-root node mentions a
/// variable its parent does not.

namespace wdsparql {

/// Node id within a PatternTree (0 is the root).
using NodeId = int;

/// A well-designed pattern tree.
class PatternTree {
 public:
  /// Creates a tree with a single root labelled `root_pattern`.
  explicit PatternTree(TripleSet root_pattern);

  /// Adds a node labelled `pattern` under `parent`; returns its id.
  NodeId AddNode(NodeId parent, TripleSet pattern);

  /// Number of nodes.
  int NumNodes() const { return static_cast<int>(nodes_.size()); }
  /// The root id (always 0).
  NodeId root() const { return 0; }
  /// Parent of `n` (-1 for the root).
  NodeId parent(NodeId n) const { return nodes_[n].parent; }
  /// Children of `n`, in insertion order.
  const std::vector<NodeId>& children(NodeId n) const { return nodes_[n].children; }

  /// pat(n): the t-graph labelling node `n`.
  const TripleSet& pattern(NodeId n) const { return nodes_[n].pattern; }
  /// vars(n): the variables of pat(n), sorted.
  const std::vector<TermId>& variables(NodeId n) const { return nodes_[n].variables; }

  /// pat(T): union of all node patterns.
  TripleSet TreePattern() const;
  /// vars(T): all variables of the tree, sorted.
  std::vector<TermId> TreeVariables() const;

  /// Checks structural sanity plus the variable-connectivity condition
  /// (condition 3 of the wdPT definition).
  Status Validate() const;

  /// True iff every non-root node adds a variable missing from its
  /// parent (NR normal form).
  bool IsNrNormalForm() const;

  /// Rewrites the tree into an equivalent NR normal form: a non-root node
  /// n with vars(n) ⊆ vars(parent) is deleted after merging pat(n) into
  /// each of its children (semantics-preserving under the Lemma 1
  /// characterisation; see ptree/semantics.h tests).
  void ToNrNormalForm();

  /// Renders an indented dump of the tree.
  std::string ToString(const TermPool& pool) const;

 private:
  struct Node {
    TripleSet pattern;
    std::vector<TermId> variables;  // Sorted.
    NodeId parent = -1;
    std::vector<NodeId> children;
  };

  void RebuildAfterDeletion(const std::vector<bool>& deleted);

  std::vector<Node> nodes_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_PTREE_PATTERN_TREE_H_
