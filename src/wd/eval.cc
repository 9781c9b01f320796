#include "wd/eval.h"

#include "hom/homomorphism.h"
#include "hom/pebble.h"
#include "ptree/tgraph.h"

namespace wdsparql {

bool WdEvalWith(const PatternForest& forest, const TripleSource& graph,
                const Mapping& mu, EvalStats* stats,
                const std::function<bool(const TripleSet&, const TripleSet&)>& extends) {
  for (const PatternTree& tree : forest.trees) {
    if (stats != nullptr) ++stats->trees_probed;
    std::optional<Subtree> matched = FindMatchingSubtree(tree, mu, graph);
    if (!matched.has_value()) continue;
    if (stats != nullptr) ++stats->subtrees_matched;

    const std::vector<TripleSet> certificates = SubtreeCertificates(*matched);
    const std::vector<NodeId> children = SubtreeChildren(*matched);
    bool some_child_extends = false;
    for (std::size_t i = 0; i < certificates.size(); ++i) {
      if (stats != nullptr) ++stats->extension_tests;
      if (extends(certificates[i], tree.pattern(children[i]))) {
        some_child_extends = true;
        break;
      }
    }
    if (!some_child_extends) return true;  // mu ∈ JT_iKG.
  }
  return false;
}

bool NaiveWdEval(const PatternForest& forest, const RdfGraph& graph, const Mapping& mu,
                 EvalStats* stats) {
  HashTripleSource scan(graph.triples());
  return NaiveWdEval(forest, scan, mu, stats);
}

bool NaiveWdEval(const PatternForest& forest, const TripleSource& graph,
                 const Mapping& mu, EvalStats* stats) {
  VarAssignment fixed = MappingToAssignment(mu);
  return WdEvalWith(forest, graph, mu, stats, [&](const TripleSet& combined, const TripleSet&) {
    return HasHomomorphism(combined, fixed, graph);
  });
}

bool PebbleWdEval(const PatternForest& forest, const RdfGraph& graph, const Mapping& mu,
                  int k, EvalStats* stats) {
  WDSPARQL_CHECK(k >= 1);
  VarAssignment fixed = MappingToAssignment(mu);
  HashTripleSource scan(graph.triples());
  return WdEvalWith(forest, scan, mu, stats, [&](const TripleSet& combined, const TripleSet&) {
    PebbleGameStats game_stats;
    bool wins = PebbleGameWins(combined, fixed, graph.triples(), k + 1, &game_stats);
    if (stats != nullptr) stats->pebble_maps_created += game_stats.maps_created;
    return wins;
  });
}

}  // namespace wdsparql
