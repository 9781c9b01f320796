#ifndef WDSPARQL_TESTS_SUPPORT_TESTLIB_H_
#define WDSPARQL_TESTS_SUPPORT_TESTLIB_H_

#include <string>
#include <vector>

#include "engine/indexed_store.h"
#include "rdf/graph.h"
#include "sparql/ast.h"
#include "util/rng.h"
#include "wdsparql/database.h"
#include "wdsparql/mapping.h"

/// \file
/// Shared helpers for the test and benchmark executables: random
/// well-designed pattern generation (well designed *by construction*),
/// small workload graphs, stores, and mapping factories.

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

/// A UNION of `arms` well-designed arms whose roots all bind exactly
/// ?x0 and ?x1, so each later arm's root subtree has every earlier arm's
/// root as its witness, with the root triples they do not share as the
/// residual. Each arm may carry OPT children with a fresh variable; a
/// child may add a triple over ?x0/?x1 only (ground under a candidate)
/// or use the predicate "absent" (which no graph here holds).
PatternPtr RandomSharedRootUnion(Rng* rng, TermPool* pool, int arms,
                                 int num_predicates = 3);

/// A UNION of `arms` trees of one random branching shape, each well
/// designed and in NR normal form: the root binds ?x0 and ?x1 and has two
/// or three OPT children, every tree reaches depth >= 3, and some node
/// below the root has two OPT children. Every node introduces fresh
/// variables and links to variables its parent's triples use. The arms
/// share the shape and its variables (the first arm is the shape
/// itself; later arms change predicates, add triples and drop
/// subtrees), so a later arm's answers over many different sets of
/// active nodes have witnesses, with residuals and children, in the
/// earlier arms. `arms` = 1 gives one branching tree.
PatternPtr RandomBranchingUnion(Rng* rng, TermPool* pool, int arms,
                                int num_predicates = 3);

/// A small dense random graph suited to the random patterns above (same
/// predicate pool "p0..").
void SmallWorkloadGraph(Rng* rng, int num_nodes, int num_triples, int num_predicates,
                        RdfGraph* graph);

/// Loads every triple of `graph` into `db` as one `WriteBatch`, then
/// compacts. `db` must intern into the graph's pool, so ids line up and
/// the graph stays an independent model of the database's content.
void LoadGraph(const RdfGraph& graph, Database* db);

/// A store holding exactly `triples` (duplicates collapse), built the
/// way every load builds one: one `ApplyBatch` commit, then
/// `MergeDelta`, so every triple sits in the base runs. A batch gives
/// its new terms ascending `DataId`s in `TermId` order.
IndexedStore BuildStore(std::vector<Triple> triples);

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
