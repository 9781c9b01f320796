#include "ptree/forest.h"

#include "sparql/well_designed.h"

namespace wdsparql {
namespace {

/// Intermediate recursive tree used while flattening the AST.
struct RawTree {
  TripleSet pattern;
  std::vector<RawTree> children;
};

/// Builds the raw tree of a UNION-free pattern: AND merges roots and
/// concatenates child lists, OPT grafts the right tree under the left
/// root.
RawTree BuildRaw(const GraphPattern& p) {
  switch (p.kind()) {
    case PatternKind::kTriple: {
      RawTree leaf;
      leaf.pattern.Insert(p.triple());
      return leaf;
    }
    case PatternKind::kAnd: {
      RawTree left = BuildRaw(*p.left());
      RawTree right = BuildRaw(*p.right());
      left.pattern.InsertAll(right.pattern);
      for (RawTree& child : right.children) left.children.push_back(std::move(child));
      return left;
    }
    case PatternKind::kOpt: {
      RawTree left = BuildRaw(*p.left());
      left.children.push_back(BuildRaw(*p.right()));
      return left;
    }
    case PatternKind::kUnion:
    case PatternKind::kFilter:
      WDSPARQL_CHECK(false);  // Caller splits unions / rejects filters first.
  }
  WDSPARQL_CHECK(false);
  return RawTree{};
}

/// True iff the pattern contains a FILTER node anywhere.
bool ContainsFilter(const GraphPattern& p) {
  if (p.kind() == PatternKind::kTriple) return false;
  if (p.kind() == PatternKind::kFilter) return true;
  return ContainsFilter(*p.left()) || ContainsFilter(*p.right());
}

void AttachRaw(PatternTree* tree, NodeId parent, RawTree&& raw) {
  NodeId id = tree->AddNode(parent, std::move(raw.pattern));
  for (RawTree& child : raw.children) AttachRaw(tree, id, std::move(child));
}

PatternTree RawToPatternTree(RawTree&& raw) {
  PatternTree tree(std::move(raw.pattern));
  for (RawTree& child : raw.children) AttachRaw(&tree, tree.root(), std::move(child));
  return tree;
}

/// wdpf of a UNION-free pattern that is well designed.
Result<PatternTree> TreeOfWellDesigned(const PatternPtr& pattern,
                                       const WdpfOptions& options) {
  RawTree raw = BuildRaw(*pattern);
  PatternTree tree = RawToPatternTree(std::move(raw));
  if (options.nr_normal_form) tree.ToNrNormalForm();
  Status valid = tree.Validate();
  if (!valid.ok()) return Result<PatternTree>(valid);
  return tree;
}

}  // namespace

Result<PatternTree> BuildPatternTree(const PatternPtr& pattern, const TermPool& pool,
                                     const WdpfOptions& options) {
  WDSPARQL_CHECK(pattern != nullptr);
  if (!pattern->IsUnionFree()) {
    return Result<PatternTree>(
        Status::NotWellDesigned("BuildPatternTree requires a UNION-free pattern"));
  }
  if (ContainsFilter(*pattern)) {
    return Result<PatternTree>(Status::InvalidArgument(
        "FILTER is outside the classified AND/OPT/UNION fragment; evaluate "
        "FILTER patterns with sparql/semantics.h (see Section 5 of the paper)"));
  }
  Status wd = CheckWellDesigned(pattern, pool);
  if (!wd.ok()) return Result<PatternTree>(wd);
  return TreeOfWellDesigned(pattern, options);
}

Result<PatternForest> BuildPatternForest(const PatternPtr& pattern, const TermPool& pool,
                                         const WdpfOptions& options) {
  WDSPARQL_CHECK(pattern != nullptr);
  Status wd = CheckWellDesigned(pattern, pool);
  if (!wd.ok()) return Result<PatternForest>(wd);
  return BuildPatternForestOfWellDesigned(pattern, options);
}

Result<PatternForest> BuildPatternForestOfWellDesigned(const PatternPtr& pattern,
                                                       const WdpfOptions& options) {
  WDSPARQL_CHECK(pattern != nullptr);
  if (ContainsFilter(*pattern)) {
    return Result<PatternForest>(Status::InvalidArgument(
        "FILTER is outside the classified AND/OPT/UNION fragment; evaluate "
        "FILTER patterns with sparql/semantics.h (see Section 5 of the paper)"));
  }
  Result<std::vector<PatternPtr>> operands = UnionNormalForm(pattern);
  if (!operands.ok()) return Result<PatternForest>(operands.status());

  // Each UNION operand of a well-designed pattern is itself well
  // designed, so no operand is checked again.
  PatternForest forest;
  for (const PatternPtr& operand : operands.value()) {
    Result<PatternTree> tree = TreeOfWellDesigned(operand, options);
    if (!tree.ok()) return Result<PatternForest>(tree.status());
    forest.trees.push_back(std::move(tree).value());
  }
  return forest;
}

}  // namespace wdsparql
