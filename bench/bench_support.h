#ifndef WDSPARQL_BENCH_BENCH_SUPPORT_H_
#define WDSPARQL_BENCH_BENCH_SUPPORT_H_

#include <benchmark/benchmark.h>

#include "rdf/generator.h"
#include "rdf/graph.h"
#include "wdsparql/check.h"

/// \file
/// Shared fixtures for the experiment benches (see EXPERIMENTS.md).
///
/// Each bench binary regenerates one experiment row series. Workloads are
/// deterministic (fixed seeds) so the series are reproducible run to run.

namespace wdsparql {
namespace benchsupport {

/// Builds the E1 instance for the F_k family: an RDF graph whose
/// r-substructure encodes a dense k-clique-free graph H, a p-edge (a, b)
/// anchoring the root mapping, and NO q-edges into a (so the n11 child
/// never extends and the naive algorithm is forced into the clique
/// search at n12).
///
/// H is a complete (k-1)-partite-ish blow-up: vertices u_{c,i} for colour
/// c in [k-1], copy i in [copies]; edges between all differently-coloured
/// pairs. Its largest clique has size k-1, so no K_k exists, yet every
/// smaller clique extends in many ways — a worst case for backtracking.
inline void MakeFkHardGraph(TermPool* pool, int k, int copies, RdfGraph* graph) {
  WDSPARQL_CHECK(pool != nullptr);
  WDSPARQL_CHECK(k >= 2 && copies >= 1);
  graph->Insert("a", "p", "b");
  auto vertex = [](int colour, int copy) {
    return "u" + std::to_string(colour) + "_" + std::to_string(copy);
  };
  int colours = k - 1;
  for (int c1 = 0; c1 < colours; ++c1) {
    for (int i1 = 0; i1 < copies; ++i1) {
      graph->Insert("b", "r", vertex(c1, i1));  // Pendant (?y, r, ?o1) hook.
      for (int c2 = 0; c2 < colours; ++c2) {
        if (c1 == c2) continue;
        for (int i2 = 0; i2 < copies; ++i2) {
          graph->Insert(vertex(c1, i1), "r", vertex(c2, i2));
        }
      }
    }
  }
}

}  // namespace benchsupport
}  // namespace wdsparql

#endif  // WDSPARQL_BENCH_BENCH_SUPPORT_H_
