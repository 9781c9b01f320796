#ifndef WDSPARQL_PTREE_TGRAPH_H_
#define WDSPARQL_PTREE_TGRAPH_H_

#include <string>
#include <vector>

#include "hom/homomorphism.h"
#include "hom/treewidth.h"
#include "rdf/triple_set.h"
#include "util/undirected_graph.h"
#include "wdsparql/mapping.h"

/// \file
/// Generalised t-graphs (Section 3 of the paper).
///
/// A generalised t-graph is a pair (S, X) where S is a t-graph (a finite
/// set of triple patterns) and X ⊆ vars(S) is a set of distinguished
/// variables. Homomorphisms between generalised t-graphs fix X pointwise;
/// (S, X) corresponds to a conjunctive query with free variables X over a
/// single ternary relation. This header bundles the derived notions the
/// paper builds on the pair: the Gaifman graph over the *non-distinguished*
/// variables, tw(S, X), and ctw(S, X) (treewidth of the core).

namespace wdsparql {

/// A generalised t-graph (S, X).
struct GeneralizedTGraph {
  TripleSet S;               ///< The t-graph.
  std::vector<TermId> X;     ///< Distinguished variables (sorted, unique).

  GeneralizedTGraph() = default;
  /// Builds (S, X); X is sorted/deduplicated; variables of X not in
  /// vars(S) are permitted transiently but trimmed (the paper requires
  /// X ⊆ vars(S)).
  GeneralizedTGraph(TripleSet s, std::vector<TermId> x);

  /// vars(S) \ X.
  std::vector<TermId> FreeVariables() const;
};

/// The Gaifman graph G(S, X): vertices are vars(S)\X; edges join distinct
/// variables co-occurring in a triple of S. `out_vars[i]` names vertex i.
UndirectedGraph GaifmanGraph(const GeneralizedTGraph& g,
                             std::vector<TermId>* out_vars = nullptr);

/// tw(S, X): treewidth of the Gaifman graph, floored at 1 (paper
/// convention: no vertices or no edges give treewidth 1).
TreewidthResult TreewidthOf(const GeneralizedTGraph& g);

/// The core of (S, X) (unique up to renaming; see hom/core.h).
GeneralizedTGraph CoreOf(const GeneralizedTGraph& g);

/// ctw(S, X): treewidth of the core of (S, X), floored at 1.
TreewidthResult CoreTreewidthOf(const GeneralizedTGraph& g);

/// (S, X) -> (S', X): homomorphism fixing X pointwise. Requires equal X
/// (the paper only compares generalised t-graphs over the same X).
bool HomTo(const GeneralizedTGraph& from, const GeneralizedTGraph& to);

/// (S, X) ->mu G: homomorphism into an RDF graph `target` extending mu
/// (dom(mu) must be exactly X).
bool HomToUnder(const GeneralizedTGraph& from, const Mapping& mu,
                const TripleSet& target);

/// (S, X) ->mu_k G: the existential k-pebble relaxation of HomToUnder.
bool PebbleToUnder(const GeneralizedTGraph& from, const Mapping& mu,
                   const TripleSet& target, int k);

/// Converts a Mapping into the solver's pre-assignment representation.
VarAssignment MappingToAssignment(const Mapping& mu);

/// Renders (S, X) for debugging: triples then distinguished variables.
std::string ToString(const GeneralizedTGraph& g, const TermPool& pool);

}  // namespace wdsparql

#endif  // WDSPARQL_PTREE_TGRAPH_H_
