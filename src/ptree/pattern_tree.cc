#include "ptree/pattern_tree.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "wdsparql/check.h"

namespace wdsparql {
namespace {

std::vector<TermId> SortedVariables(const TripleSet& pattern) {
  std::vector<TermId> vars = pattern.Variables();
  std::sort(vars.begin(), vars.end());
  return vars;
}

bool IsSubset(const std::vector<TermId>& a, const std::vector<TermId>& b) {
  // Both sorted.
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace

PatternTree::PatternTree(TripleSet root_pattern) {
  Node root;
  root.pattern = std::move(root_pattern);
  root.variables = SortedVariables(root.pattern);
  root.parent = -1;
  nodes_.push_back(std::move(root));
}

NodeId PatternTree::AddNode(NodeId parent, TripleSet pattern) {
  WDSPARQL_CHECK(parent >= 0 && parent < NumNodes());
  Node node;
  node.pattern = std::move(pattern);
  node.variables = SortedVariables(node.pattern);
  node.parent = parent;
  NodeId id = NumNodes();
  nodes_.push_back(std::move(node));
  nodes_[parent].children.push_back(id);
  return id;
}

TripleSet PatternTree::TreePattern() const {
  TripleSet out;
  for (const Node& node : nodes_) out.InsertAll(node.pattern);
  return out;
}

std::vector<TermId> PatternTree::TreeVariables() const {
  return SortedVariables(TreePattern());
}

Status PatternTree::Validate() const {
  // Structural sanity: parent/child mutual consistency, acyclicity by id
  // ordering is not required, so walk explicitly.
  for (NodeId n = 0; n < NumNodes(); ++n) {
    if (n == 0) {
      if (nodes_[n].parent != -1) return Status::Internal("root has a parent");
    } else {
      NodeId p = nodes_[n].parent;
      if (p < 0 || p >= NumNodes()) return Status::Internal("dangling parent id");
      const auto& siblings = nodes_[p].children;
      if (std::find(siblings.begin(), siblings.end(), n) == siblings.end()) {
        return Status::Internal("parent does not list node as child");
      }
    }
  }
  // Condition 3: for every variable, the nodes mentioning it induce a
  // connected subgraph of the tree. Since the structure is a rooted tree,
  // it suffices that for every non-root node n and variable x in vars(n),
  // if x occurs in any proper ancestor of n then it occurs in the parent.
  for (NodeId n = 1; n < NumNodes(); ++n) {
    for (TermId x : nodes_[n].variables) {
      bool in_parent = std::binary_search(nodes_[nodes_[n].parent].variables.begin(),
                                          nodes_[nodes_[n].parent].variables.end(), x);
      if (in_parent) continue;
      // Check all non-descendant nodes for an occurrence of x: the set
      // {m : x in vars(m)} must be connected; n is in it, so any other
      // occurrence outside n's subtree disconnects it unless the parent
      // also mentions x.
      std::vector<bool> in_subtree(NumNodes(), false);
      // Mark n's subtree.
      for (NodeId m = 0; m < NumNodes(); ++m) {
        NodeId walk = m;
        while (walk != -1 && walk != n) walk = nodes_[walk].parent;
        in_subtree[m] = (walk == n);
      }
      for (NodeId m = 0; m < NumNodes(); ++m) {
        if (in_subtree[m]) continue;
        if (std::binary_search(nodes_[m].variables.begin(), nodes_[m].variables.end(),
                               x)) {
          return Status::Internal("variable occurrence set is not connected");
        }
      }
    }
  }
  return Status::OK();
}

bool PatternTree::IsNrNormalForm() const {
  for (NodeId n = 1; n < NumNodes(); ++n) {
    if (IsSubset(nodes_[n].variables, nodes_[nodes_[n].parent].variables)) return false;
  }
  return true;
}

void PatternTree::RebuildAfterDeletion(const std::vector<bool>& deleted) {
  std::vector<Node> new_nodes;
  std::vector<NodeId> remap(nodes_.size(), -1);
  for (NodeId n = 0; n < NumNodes(); ++n) {
    if (deleted[n]) continue;
    remap[n] = static_cast<NodeId>(new_nodes.size());
    new_nodes.push_back(std::move(nodes_[n]));
  }
  for (Node& node : new_nodes) {
    if (node.parent != -1) {
      WDSPARQL_CHECK(remap[node.parent] != -1);
      node.parent = remap[node.parent];
    }
    std::vector<NodeId> children;
    for (NodeId c : node.children) {
      if (remap[c] != -1) children.push_back(remap[c]);
    }
    node.children = std::move(children);
  }
  nodes_ = std::move(new_nodes);
}

void PatternTree::ToNrNormalForm() {
  for (;;) {
    NodeId redundant = -1;
    for (NodeId n = 1; n < NumNodes(); ++n) {
      if (IsSubset(nodes_[n].variables, nodes_[nodes_[n].parent].variables)) {
        redundant = n;
        break;
      }
    }
    if (redundant == -1) return;

    NodeId parent = nodes_[redundant].parent;
    // Push pat(redundant) into each child and reattach children to the
    // grandparent; then delete the node. This preserves the Lemma 1
    // semantics: an answer that matches the parent either fails
    // pat(redundant) (then it cannot extend into the old child either,
    // since the child now requires pat(redundant)) or passes it (then the
    // gate was transparent).
    for (NodeId c : nodes_[redundant].children) {
      nodes_[c].pattern.InsertAll(nodes_[redundant].pattern);
      nodes_[c].variables = SortedVariables(nodes_[c].pattern);
      nodes_[c].parent = parent;
      nodes_[parent].children.push_back(c);
    }
    nodes_[redundant].children.clear();
    auto& siblings = nodes_[parent].children;
    siblings.erase(std::remove(siblings.begin(), siblings.end(), redundant),
                   siblings.end());

    std::vector<bool> deleted(nodes_.size(), false);
    deleted[redundant] = true;
    RebuildAfterDeletion(deleted);
  }
}

std::string PatternTree::ToString(const TermPool& pool) const {
  std::string out;
  // Depth-first dump.
  std::vector<std::pair<NodeId, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [n, depth] = stack.back();
    stack.pop_back();
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
    out += "node " + std::to_string(n) + ": {";
    bool first = true;
    for (const Triple& t : nodes_[n].pattern.triples()) {
      if (!first) out += ", ";
      first = false;
      out += "(" + pool.ToDisplayString(t.subject) + " " +
             pool.ToDisplayString(t.predicate) + " " + pool.ToDisplayString(t.object) +
             ")";
    }
    out += "}\n";
    const auto& kids = nodes_[n].children;
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back({*it, depth + 1});
  }
  return out;
}

}  // namespace wdsparql
