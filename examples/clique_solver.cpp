/// \file
/// The Theorem 2 reduction in action: decide k-CLIQUE on an undirected
/// graph by building the Lemma 2 gadget, freezing it into an RDF
/// instance, and asking a wdEVAL membership question — a clique exists
/// iff the frozen mapping is NOT an answer of the clique-branch query.
///
/// This is of course a terrible way to find cliques; the point is the
/// direction of the reduction: evaluating well-designed queries of
/// unbounded domination width is at least as hard as p-CLIQUE.
///
/// Build & run:  ./build/clique_solver

#include <cstdio>

#include "rdf/generator.h"
#include "wd/eval.h"
#include "wd/hardness.h"
#include "wdsparql/wdsparql.h"

using namespace wdsparql;

namespace {

void Solve(const char* name, const UndirectedGraph& h, int k) {
  TermPool pool;
  auto instance = BuildCliqueReduction(h, k, &pool);
  if (!instance.ok()) {
    std::printf("%-24s k=%d: reduction failed: %s\n", name, k,
                instance.status().ToString().c_str());
    return;
  }
  // The wdEVAL membership question over the frozen gadget itself.
  bool member = NaiveWdEval(instance.value().forest, instance.value().graph,
                            instance.value().mu);
  bool via_reduction = !member;  // Clique iff mu is NOT an answer.
  bool via_brute_force = HasCliqueBruteForce(h, k);
  std::printf(
      "%-24s k=%d: |V|=%2d |E|=%3d  gadget=%5zu triples  query clique m=%2d  "
      "clique: reduction=%s brute=%s %s\n",
      name, k, h.NumVertices(), h.NumEdges(), instance.value().graph.size(),
      instance.value().query_clique_size, via_reduction ? "yes" : "no ",
      via_brute_force ? "yes" : "no ", via_reduction == via_brute_force ? "" : "!!");
}

}  // namespace

int main() {
  std::printf("k-CLIQUE via the Theorem 2 reduction (p-CLIQUE -> co-wdEVAL):\n\n");

  UndirectedGraph triangle(5);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  triangle.AddEdge(2, 3);
  triangle.AddEdge(3, 4);

  Solve("triangle + tail", triangle, 3);
  Solve("5-cycle (triangle-free)", UndirectedGraph::Cycle(5), 3);
  Solve("K_5", UndirectedGraph::Complete(5), 3);
  Solve("3x3 grid", UndirectedGraph::Grid(3, 3), 2);
  Solve("empty graph", UndirectedGraph(6), 2);

  for (uint64_t seed = 1; seed <= 3; ++seed) {
    UndirectedGraph random = GenerateErdosRenyi(9, 0.45, seed);
    std::string name = "G(9, .45) seed " + std::to_string(seed);
    Solve(name.c_str(), random, 3);
  }

  std::printf(
      "\nEvery row agrees with brute force; rows marked '!!' would indicate a "
      "reduction bug.\n");
  return 0;
}
