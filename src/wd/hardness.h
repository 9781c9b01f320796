#ifndef WDSPARQL_WD_HARDNESS_H_
#define WDSPARQL_WD_HARDNESS_H_

#include <vector>

#include <optional>

#include "ptree/forest.h"
#include "ptree/tgraph.h"
#include "rdf/graph.h"
#include "util/undirected_graph.h"
#include "wd/domination.h"
#include "wdsparql/mapping.h"
#include "wdsparql/status.h"

/// \file
/// The Theorem 2 hardness machinery (Section 4 and the appendix).
///
/// Lemma 2 adapts Grohe's JACM'07 construction to generalised t-graphs
/// with distinguished elements: from (S, X) whose core has a (k x K)-grid
/// minor (K = k-choose-2) and an undirected graph H, it builds (B, X)
/// such that H has a k-clique iff (S, X) -> (B, X), while (B, X) -> (S, X)
/// always holds. The fpt-reduction from p-CLIQUE then freezes B into an
/// RDF graph G and asks whether mu ∉ JPKG.
///
/// Substitution note (DESIGN.md): the paper invokes the Excluded Grid
/// Theorem to *guarantee* a grid minor once ctw >= w(K) — a
/// non-constructive, astronomically large bound. We run the identical
/// gadget on families whose cores have *explicit* grid minors (cliques
/// K_m with m = k*K give singleton branch sets), exercising the same
/// code path end to end.

namespace wdsparql {

/// A minor map gamma from the (rows x cols)-grid onto a set of variables
/// of a core's Gaifman graph: branch_sets[i*cols + p] is gamma(i, p).
struct GridMinorMap {
  int rows = 0;
  int cols = 0;
  std::vector<std::vector<TermId>> branch_sets;

  /// gamma(i, p).
  const std::vector<TermId>& At(int i, int p) const {
    return branch_sets[static_cast<std::size_t>(i) * cols + p];
  }
};

/// The canonical minor map from the (rows x cols)-grid onto a clique on
/// `clique_vars`: contiguous row-major blocks (singletons when
/// |clique_vars| == rows*cols). Requires |clique_vars| <= rows*cols.
GridMinorMap MinorMapOntoClique(int rows, int cols,
                                const std::vector<TermId>& clique_vars);

/// Verifies that `gamma` is a minor map from the grid onto an induced,
/// connected subgraph of the Gaifman graph of (C, X): branch sets
/// non-empty, disjoint, connected, inside one connected component which
/// they cover, and every grid edge realised by a Gaifman edge.
Status ValidateMinorMap(const GeneralizedTGraph& core, const GridMinorMap& gamma);

/// Limits for the gadget construction.
struct GadgetOptions {
  uint64_t max_triples = 5'000'000;  ///< Abort if B grows beyond this.
  bool validate_minor_map = true;
};

/// Lemma 2: builds (B, X) from (S, X), the clique size `k`, the host
/// graph H and a minor map of the (k x C(k,2))-grid onto a component of
/// the core's Gaifman graph. Postconditions (tested):
///  1. every triple of S over X u I is in B;
///  2. (B, X) -> (S, X);
///  3. H has a k-clique iff (S, X) -> (B, X).
Result<GeneralizedTGraph> BuildCliqueGadget(const GeneralizedTGraph& S,
                                            const UndirectedGraph& H, int k,
                                            const GridMinorMap& gamma, TermPool* pool,
                                            const GadgetOptions& options = {});

/// Freezes the variables of (B, X) into IRIs: G = Psi(B) and
/// mu = Psi restricted to X. `freeze_prefix` namespaces the new IRIs.
void FreezeTGraph(const GeneralizedTGraph& B, TermPool* pool, RdfGraph* out_graph,
                  Mapping* out_mu, const char* freeze_prefix = "frozen:");

/// A complete Theorem 2 reduction instance: deciding whether H contains a
/// k-clique reduces to mu ∉ JforestK_graph.
struct CliqueReductionInstance {
  PatternForest forest;        ///< The clique-branch wdPT family member.
  RdfGraph graph;              ///< G = Psi(B).
  Mapping mu;                  ///< The frozen identity on vars(T).
  int query_clique_size = 0;   ///< m = k * C(k,2): width parameter used.
};

/// Builds the reduction for (H, k) using the clique-branch family
/// (MakeCliqueBranchTree with m = k*C(k,2), whose dw = m-1 certifies the
/// unbounded-width regime). Correctness: H has a k-clique iff
/// mu ∉ Jforest K_graph (tested against brute force).
Result<CliqueReductionInstance> BuildCliqueReduction(const UndirectedGraph& H, int k,
                                                     TermPool* pool,
                                                     const GadgetOptions& options = {});

/// Brute-force k-clique test (reference oracle for the reduction tests).
bool HasCliqueBruteForce(const UndirectedGraph& H, int k);

/// A Lemma 3 witness for a forest of domination width >= k: a subtree T
/// and an element (S, vars(T)) of GtG(T) with
///  1. ctw(S, vars(T)) >= k, and
///  2. homomorphic minimality: every (S', vars(T)) in GtG(T) with
///     (S', vars(T)) -> (S, vars(T)) also satisfies
///     (S, vars(T)) -> (S', vars(T)).
struct Lemma3Witness {
  int tree_index = -1;
  Subtree subtree;
  GtGElement element;
};

/// Implements the Lemma 3 construction: scans the subtrees of `forest`
/// for one whose GtG is not (k-1)-dominated, restricts to the
/// non-dominated wide elements, and picks a member of a source strongly
/// connected component of the homomorphism digraph. Returns nullopt iff
/// dw(forest) <= k-1 (within the given budgets).
Result<std::optional<Lemma3Witness>> FindLemma3Witness(
    const PatternForest& forest, int k, TermPool* pool,
    const DominationOptions& options = {});

}  // namespace wdsparql

#endif  // WDSPARQL_WD_HARDNESS_H_
