#ifndef WDSPARQL_PTREE_FOREST_H_
#define WDSPARQL_PTREE_FOREST_H_

#include <vector>

#include "ptree/pattern_tree.h"
#include "sparql/ast.h"
#include "wdsparql/status.h"

/// \file
/// Well-designed pattern forests and the wdpf(·) translation.
///
/// A well-designed graph pattern P = P1 UNION ... UNION Pm translates to
/// the forest {T1, ..., Tm} of the pattern trees of its UNION-free
/// operands (Section 2.1). The translation is the paper's fixed
/// polynomial-time function wdpf: AND merges roots (grafting children),
/// OPT hangs the right tree below the left root, and the result is
/// normalised to NR normal form.

namespace wdsparql {

/// A well-designed pattern forest F = {T1, ..., Tm}.
struct PatternForest {
  std::vector<PatternTree> trees;
};

/// Options for the wdpf translation.
struct WdpfOptions {
  /// Rewrite each tree to NR normal form (the paper assumes all wdPTs are
  /// NR; disable only for tests of the rewriting itself).
  bool nr_normal_form = true;
};

/// wdpf(P): translates a *well-designed* graph pattern into an equivalent
/// pattern forest. Fails with NotWellDesigned otherwise.
Result<PatternForest> BuildPatternForest(const PatternPtr& pattern, const TermPool& pool,
                                         const WdpfOptions& options = {});

/// wdpf(P) for a pattern already known to be well designed (as
/// `CheckWellDesigned` decides): the same translation without the
/// check, for a caller that has just run it. A pattern that is not well
/// designed gives an unspecified forest.
Result<PatternForest> BuildPatternForestOfWellDesigned(const PatternPtr& pattern,
                                                       const WdpfOptions& options = {});

/// Translates a UNION-free well-designed pattern into a single wdPT.
Result<PatternTree> BuildPatternTree(const PatternPtr& pattern, const TermPool& pool,
                                     const WdpfOptions& options = {});

}  // namespace wdsparql

#endif  // WDSPARQL_PTREE_FOREST_H_
