#include "ptree/subtree.h"

#include <algorithm>

#include "wdsparql/check.h"

namespace wdsparql {

bool Subtree::Contains(NodeId n) const {
  return std::binary_search(nodes.begin(), nodes.end(), n);
}

TripleSet SubtreePattern(const Subtree& subtree) {
  TripleSet out;
  for (NodeId n : subtree.nodes) out.InsertAll(subtree.tree->pattern(n));
  return out;
}

std::vector<TermId> SubtreeVariables(const Subtree& subtree) {
  std::vector<TermId> vars;
  for (NodeId n : subtree.nodes) {
    const auto& node_vars = subtree.tree->variables(n);
    vars.insert(vars.end(), node_vars.begin(), node_vars.end());
  }
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  return vars;
}

std::vector<NodeId> SubtreeChildren(const Subtree& subtree) {
  std::vector<NodeId> out;
  for (NodeId n : subtree.nodes) {
    for (NodeId c : subtree.tree->children(n)) {
      if (!subtree.Contains(c)) out.push_back(c);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TripleSet> SubtreeCertificates(const Subtree& subtree) {
  const TripleSet pattern = SubtreePattern(subtree);
  std::vector<TripleSet> certificates;
  for (NodeId child : SubtreeChildren(subtree)) {
    certificates.push_back(pattern);
    certificates.back().InsertAll(subtree.tree->pattern(child));
  }
  return certificates;
}

namespace {

void EnumerateRec(const PatternTree& tree, std::vector<NodeId>* frontier,
                  std::vector<NodeId>* current,
                  const std::function<void(const Subtree&)>& fn) {
  if (frontier->empty()) {
    Subtree subtree;
    subtree.tree = &tree;
    subtree.nodes = *current;
    std::sort(subtree.nodes.begin(), subtree.nodes.end());
    fn(subtree);
    return;
  }
  NodeId next = frontier->back();
  frontier->pop_back();

  // Exclude `next` (and thereby its whole subtree).
  EnumerateRec(tree, frontier, current, fn);

  // Include `next`: its children join the frontier.
  current->push_back(next);
  std::size_t added = 0;
  for (NodeId c : tree.children(next)) {
    frontier->push_back(c);
    ++added;
  }
  EnumerateRec(tree, frontier, current, fn);
  for (std::size_t i = 0; i < added; ++i) frontier->pop_back();
  current->pop_back();

  frontier->push_back(next);
}

}  // namespace

void EnumerateSubtrees(const PatternTree& tree,
                       const std::function<void(const Subtree&)>& fn) {
  std::vector<NodeId> frontier = tree.children(tree.root());
  std::vector<NodeId> current = {tree.root()};
  EnumerateRec(tree, &frontier, &current, fn);
}

namespace {

double CountRec(const PatternTree& tree, NodeId n) {
  double product = 1.0;
  for (NodeId c : tree.children(n)) product *= 1.0 + CountRec(tree, c);
  return product;
}

}  // namespace

double CountSubtrees(const PatternTree& tree) { return CountRec(tree, tree.root()); }

std::optional<Subtree> MaximalSubtreeWithVars(const PatternTree& tree,
                                              const std::vector<TermId>& vars) {
  WDSPARQL_DCHECK(std::is_sorted(vars.begin(), vars.end()));
  auto covered = [&vars](const std::vector<TermId>& node_vars) {
    return std::includes(vars.begin(), vars.end(), node_vars.begin(), node_vars.end());
  };
  if (!covered(tree.variables(tree.root()))) return std::nullopt;

  Subtree subtree;
  subtree.tree = &tree;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    subtree.nodes.push_back(n);
    for (NodeId c : tree.children(n)) {
      if (covered(tree.variables(c))) stack.push_back(c);
    }
  }
  std::sort(subtree.nodes.begin(), subtree.nodes.end());
  return subtree;
}

std::optional<Subtree> FindWitnessSubtree(const PatternTree& tree,
                                          const std::vector<TermId>& vars) {
  std::optional<Subtree> maximal = MaximalSubtreeWithVars(tree, vars);
  if (!maximal.has_value()) return std::nullopt;
  if (SubtreeVariables(*maximal) != vars) return std::nullopt;
  return maximal;
}

std::optional<Subtree> FindMatchingSubtree(const PatternTree& tree, const Mapping& mu,
                                           const TripleSet& graph) {
  HashTripleSource scan(graph);
  return FindMatchingSubtree(tree, mu, scan);
}

std::optional<Subtree> FindMatchingSubtree(const PatternTree& tree, const Mapping& mu,
                                           const TripleSource& graph) {
  auto qualifies = [&](NodeId n) {
    for (TermId var : tree.variables(n)) {
      if (!mu.IsDefinedOn(var)) return false;
    }
    for (const Triple& t : tree.pattern(n).triples()) {
      if (!graph.Contains(mu.Apply(t))) return false;
    }
    return true;
  };
  if (!qualifies(tree.root())) return std::nullopt;

  Subtree subtree;
  subtree.tree = &tree;
  std::vector<NodeId> stack = {tree.root()};
  while (!stack.empty()) {
    NodeId n = stack.back();
    stack.pop_back();
    subtree.nodes.push_back(n);
    for (NodeId c : tree.children(n)) {
      if (qualifies(c)) stack.push_back(c);
    }
  }
  std::sort(subtree.nodes.begin(), subtree.nodes.end());

  // dom(mu) must be exactly the subtree's variables.
  std::vector<TermId> vars = SubtreeVariables(subtree);
  std::vector<TermId> domain = mu.Domain();
  if (vars != domain) return std::nullopt;
  return subtree;
}

}  // namespace wdsparql
