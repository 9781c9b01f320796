#include "ptree/tgraph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "hom/core.h"
#include "hom/homomorphism.h"
#include "hom/pebble.h"
#include "wdsparql/check.h"

namespace wdsparql {

GeneralizedTGraph::GeneralizedTGraph(TripleSet s, std::vector<TermId> x)
    : S(std::move(s)) {
  std::vector<TermId> vars = S.Variables();
  std::unordered_set<TermId> var_set(vars.begin(), vars.end());
  for (TermId v : x) {
    WDSPARQL_CHECK(IsVariable(v));
    if (var_set.count(v) > 0) X.push_back(v);
  }
  std::sort(X.begin(), X.end());
  X.erase(std::unique(X.begin(), X.end()), X.end());
}

std::vector<TermId> GeneralizedTGraph::FreeVariables() const {
  std::vector<TermId> out;
  for (TermId v : S.Variables()) {
    if (!std::binary_search(X.begin(), X.end(), v)) out.push_back(v);
  }
  return out;
}

UndirectedGraph GaifmanGraph(const GeneralizedTGraph& g, std::vector<TermId>* out_vars) {
  std::vector<TermId> vars = g.FreeVariables();
  std::unordered_map<TermId, int> index;
  for (std::size_t i = 0; i < vars.size(); ++i) index[vars[i]] = static_cast<int>(i);

  UndirectedGraph graph(static_cast<int>(vars.size()));
  for (const Triple& t : g.S.triples()) {
    std::vector<TermId> t_vars = t.Variables();
    for (std::size_t i = 0; i < t_vars.size(); ++i) {
      for (std::size_t j = i + 1; j < t_vars.size(); ++j) {
        auto it_i = index.find(t_vars[i]);
        auto it_j = index.find(t_vars[j]);
        if (it_i != index.end() && it_j != index.end()) {
          graph.AddEdge(it_i->second, it_j->second);
        }
      }
    }
  }
  if (out_vars != nullptr) *out_vars = std::move(vars);
  return graph;
}

TreewidthResult TreewidthOf(const GeneralizedTGraph& g) {
  UndirectedGraph gaifman = GaifmanGraph(g);
  TreewidthResult result = ComputeTreewidth(gaifman);
  // Paper convention: tw(S, X) := 1 when the Gaifman graph has no
  // vertices or no edges; also floor proper graphs at width 1.
  result.lower = std::max(result.lower, 1);
  result.upper = std::max(result.upper, 1);
  return result;
}

GeneralizedTGraph CoreOf(const GeneralizedTGraph& g) {
  TripleSet core = ComputeCore(g.S, g.X);
  return GeneralizedTGraph(std::move(core), g.X);
}

TreewidthResult CoreTreewidthOf(const GeneralizedTGraph& g) {
  return TreewidthOf(CoreOf(g));
}

bool HomTo(const GeneralizedTGraph& from, const GeneralizedTGraph& to) {
  WDSPARQL_CHECK(from.X == to.X);
  return HasHomomorphism(from.S, IdentityOn(from.X), to.S);
}

VarAssignment MappingToAssignment(const Mapping& mu) {
  VarAssignment out;
  for (const auto& [var, iri] : mu.bindings()) out[var] = iri;
  return out;
}

bool HomToUnder(const GeneralizedTGraph& from, const Mapping& mu,
                const TripleSet& target) {
  return HasHomomorphism(from.S, MappingToAssignment(mu), target);
}

bool PebbleToUnder(const GeneralizedTGraph& from, const Mapping& mu,
                   const TripleSet& target, int k) {
  return PebbleGameWins(from.S, MappingToAssignment(mu), target, k);
}

std::string ToString(const GeneralizedTGraph& g, const TermPool& pool) {
  std::string out = "({";
  bool first = true;
  for (const Triple& t : g.S.triples()) {
    if (!first) out += ", ";
    first = false;
    out += "(" + pool.ToDisplayString(t.subject) + " " +
           pool.ToDisplayString(t.predicate) + " " + pool.ToDisplayString(t.object) +
           ")";
  }
  out += "}, {";
  first = true;
  for (TermId v : g.X) {
    if (!first) out += ", ";
    first = false;
    out += pool.ToDisplayString(v);
  }
  out += "})";
  return out;
}

}  // namespace wdsparql
