#ifndef WDSPARQL_SPARQL_SEMANTICS_H_
#define WDSPARQL_SPARQL_SEMANTICS_H_

#include <vector>

#include "rdf/graph.h"
#include "sparql/ast.h"
#include "wdsparql/mapping.h"

/// \file
/// The textbook set semantics of AND/OPT/UNION patterns (Section 2).
///
/// `Evaluate` materialises the full answer set JPKG bottom-up, exactly
/// following the recursive definition of Pérez et al. This evaluator is
/// exponential in |P| in the worst case and serves as (i) the ground
/// truth oracle for every other algorithm in the library and (ii) the
/// "materialise everything" baseline of experiment E9. The paper's
/// algorithms (naive coNP check, Theorem 1 pebble algorithm) never call
/// it.

namespace wdsparql {

/// Computes JPKG as a duplicate-free vector sorted lexicographically by
/// bindings (deterministic output).
std::vector<Mapping> Evaluate(const GraphPattern& pattern, const RdfGraph& graph);

/// Decides mu in JPKG by materialising JPKG (exponential baseline for
/// wdEVAL).
bool EvaluateContains(const GraphPattern& pattern, const RdfGraph& graph,
                      const Mapping& mu);

/// Computes JtKG for a single triple pattern (exposed for testing and for
/// the join-order-free leaf case).
std::vector<Mapping> EvaluateTriple(const Triple& t, const RdfGraph& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_SPARQL_SEMANTICS_H_
