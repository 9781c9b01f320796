#ifndef WDSPARQL_WD_EVAL_H_
#define WDSPARQL_WD_EVAL_H_

#include <cstdint>
#include <functional>

#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "wdsparql/mapping.h"
#include "wdsparql/status.h"

/// \file
/// The wdEVAL evaluation algorithms (Sections 2.2 and 3.1).
///
/// wdEVAL: given a well-designed pattern P (as its forest wdpf(P)), an
/// RDF graph G and a mapping mu, decide mu ∈ JPKG. Two algorithms:
///
/// * `NaiveWdEval` — the natural algorithm of Letelier et al.: find, per
///   tree, the unique subtree T^mu matched by mu, then certify that no
///   child extends mu via an exact homomorphism test. Sound and complete
///   for all well-designed inputs, but the homomorphism tests make it
///   exponential (co-NP-hardness lives there).
///
/// * `PebbleWdEval` — the Theorem 1 algorithm: identical control flow,
///   but each homomorphism test `(pat(T^mu) u pat(n), vars(T^mu)) ->mu G`
///   is replaced by the polynomial existential (k+1)-pebble relaxation
///   `->mu_{k+1}`. Always sound: acceptance is certified, because the
///   relaxation only over-approximates the child extensions (a truly
///   extendable child also passes the pebble test, so a tree that
///   accepts has no extendable child). Complete whenever
///   dw(wdpf(P)) <= k, hence correct and polynomial-time on every class
///   of domination width <= k (Theorem 1).
///
/// `k` is a *promise* parameter: the evaluator never computes dw(P)
/// (recognition is NP-hard); callers either know the class bound or use
/// wd/domination.h diagnostics offline.

namespace wdsparql {

/// Counters describing one evaluation run (reported by the benches).
struct EvalStats {
  uint64_t trees_probed = 0;        ///< Trees whose T^mu was searched.
  uint64_t subtrees_matched = 0;    ///< Trees where T^mu exists.
  uint64_t extension_tests = 0;     ///< Child-extension tests performed.
  uint64_t pebble_maps_created = 0; ///< Pebble-game partial maps built.
};

/// The natural (exact-homomorphism) evaluation algorithm. Decides
/// mu ∈ JFKG for any well-designed forest.
bool NaiveWdEval(const PatternForest& forest, const RdfGraph& graph, const Mapping& mu,
                 EvalStats* stats = nullptr);

/// Backend-generic variant: subtree matching and the homomorphism
/// extension tests run against the `TripleSource` scan interface, so the
/// same algorithm executes over the hash backend or the engine's
/// dictionary-encoded permutation store.
bool NaiveWdEval(const PatternForest& forest, const TripleSource& graph,
                 const Mapping& mu, EvalStats* stats = nullptr);

/// The shared wdEVAL skeleton every variant instantiates: per tree,
/// find the matched subtree T^mu against `graph`, and accept iff some
/// tree has no child for which `extends` certifies an extension of mu.
/// `extends` receives the certificate pat(T^mu) ∪ pat(child) and
/// pat(child) alone, which decides the same question because mu maps
/// pat(T^mu) into `graph`; plugging in exact homomorphism, pebble-game
/// or compiled Generic Join tests yields the naive, Theorem 1 and
/// engine evaluators respectively.
bool WdEvalWith(const PatternForest& forest, const TripleSource& graph,
                const Mapping& mu, EvalStats* stats,
                const std::function<bool(const TripleSet& certificate,
                                         const TripleSet& child)>& extends);

/// The Theorem 1 algorithm with domination-width promise `k` (uses the
/// existential (k+1)-pebble game).
///
/// Guarantees: a `true` answer is always correct (soundness,
/// unconditional); a `false` answer is correct under the promise
/// dw(forest) <= k, in which case the result equals NaiveWdEval's.
bool PebbleWdEval(const PatternForest& forest, const RdfGraph& graph, const Mapping& mu,
                  int k, EvalStats* stats = nullptr);

}  // namespace wdsparql

#endif  // WDSPARQL_WD_EVAL_H_
