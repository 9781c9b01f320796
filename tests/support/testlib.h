#ifndef WDSPARQL_TESTS_SUPPORT_TESTLIB_H_
#define WDSPARQL_TESTS_SUPPORT_TESTLIB_H_

#include <string>
#include <vector>

#include "rdf/graph.h"
#include "sparql/ast.h"
#include "sparql/mapping.h"
#include "util/rng.h"
#include "wdsparql/database.h"

/// \file
/// Shared helpers for the test and benchmark executables: random
/// well-designed pattern generation (well designed *by construction*),
/// small workload graphs, and mapping factories.

namespace wdsparql {
namespace testlib {

/// Options for RandomWellDesignedPattern.
struct RandomPatternOptions {
  int max_depth = 3;            ///< Maximum OPT nesting depth.
  int max_triples_per_node = 3; ///< Conjunction size per block.
  int num_predicates = 3;       ///< Predicate pool ("p0", "p1", ...).
  int scope_vars = 3;           ///< Variables shared across the pattern root.
  double opt_probability = 0.7; ///< Chance of attaching an OPT at each level.
  int max_opts_per_node = 2;    ///< Fan-out bound.
};

/// Generates a random UNION-free well-designed pattern. Well-designedness
/// holds by construction: the right side of each OPT uses variables from
/// its left side plus globally-fresh variables never reused elsewhere.
PatternPtr RandomWellDesignedPattern(Rng* rng, TermPool* pool,
                                     const RandomPatternOptions& options = {});

/// A UNION of `arms` random well-designed patterns (well designed).
PatternPtr RandomWellDesignedUnion(Rng* rng, TermPool* pool, int arms,
                                   const RandomPatternOptions& options = {});

/// A small dense random graph suited to the random patterns above (same
/// predicate pool "p0..").
void SmallWorkloadGraph(Rng* rng, int num_nodes, int num_triples, int num_predicates,
                        RdfGraph* graph);

/// Loads every triple of `graph` into `db` as one `WriteBatch`, then
/// compacts. `db` must intern into the graph's pool, so ids line up and
/// the graph stays an independent model of the database's content.
void LoadGraph(const RdfGraph& graph, Database* db);

/// Builds a mapping from variable/IRI spelling pairs, e.g.
/// MakeMapping(&pool, {{"x", "a"}, {"y", "b"}}).
Mapping MakeMapping(TermPool* pool,
                    const std::vector<std::pair<std::string, std::string>>& bindings);

/// All candidate mappings over dom ⊆ vars(P) for membership testing:
/// the true answers plus `extra_random` mutated non-answers.
std::vector<Mapping> MembershipProbes(const PatternPtr& pattern, const RdfGraph& graph,
                                      Rng* rng, int extra_random);

}  // namespace testlib
}  // namespace wdsparql

#endif  // WDSPARQL_TESTS_SUPPORT_TESTLIB_H_
