#ifndef WDSPARQL_PTREE_SEMANTICS_H_
#define WDSPARQL_PTREE_SEMANTICS_H_

#include <vector>

#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "rdf/graph.h"
#include "wdsparql/mapping.h"

/// \file
/// The Lemma 1 semantics of wdPTs.
///
/// For a wdPT T in NR normal form, mu ∈ JTKG iff there is a subtree T'
/// with (1) mu a homomorphism from pat(T') to G and (2) no child n of T'
/// admitting a homomorphism from pat(n) to G compatible with mu. The
/// enumeration here materialises JTKG / JFKG by exhausting subtrees and
/// homomorphisms; it is the tree-level ground-truth oracle matching
/// sparql/semantics.h at the AST level (tested for agreement).

namespace wdsparql {

/// mu ∈ JTKG, decided directly from the Lemma 1 characterisation using
/// exact (exponential) homomorphism checks.
bool TreeContains(const PatternTree& tree, const RdfGraph& graph, const Mapping& mu);

/// mu ∈ JFKG = JT1KG u ... u JTmKG.
bool ForestContains(const PatternForest& forest, const RdfGraph& graph,
                    const Mapping& mu);

/// Materialises JTKG (duplicate-free, sorted). Exponential; testing and
/// example-sized inputs only.
std::vector<Mapping> EnumerateTreeSolutions(const PatternTree& tree,
                                            const RdfGraph& graph);

/// Materialises JFKG (duplicate-free, sorted).
std::vector<Mapping> EnumerateForestSolutions(const PatternForest& forest,
                                              const RdfGraph& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_PTREE_SEMANTICS_H_
