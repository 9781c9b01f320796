#include "support/testlib.h"

#include <algorithm>

#include "rdf/generator.h"
#include "sparql/semantics.h"
#include "util/check.h"

namespace wdsparql {
namespace testlib {
namespace {

/// State shared across one pattern generation.
struct GenState {
  Rng* rng;
  TermPool* pool;
  const RandomPatternOptions* options;
  int fresh_counter = 0;

  TermId Predicate() {
    return pool->InternIri("p" + std::to_string(rng->NextBounded(
                                     options->num_predicates)));
  }
  TermId FreshVar() { return pool->InternVariable("f" + std::to_string(fresh_counter++)); }
};

/// A random conjunction over `vars` (every triple uses vars from the list;
/// subject/object are variables, predicate an IRI).
PatternPtr RandomConjunction(GenState* state, const std::vector<TermId>& vars) {
  int count = 1 + static_cast<int>(state->rng->NextBounded(
                      state->options->max_triples_per_node));
  std::vector<PatternPtr> leaves;
  for (int i = 0; i < count; ++i) {
    TermId s = vars[state->rng->NextBounded(vars.size())];
    TermId o = vars[state->rng->NextBounded(vars.size())];
    leaves.push_back(GraphPattern::MakeTriple(Triple(s, state->Predicate(), o)));
  }
  return GraphPattern::MakeAndAll(leaves);
}

PatternPtr GenRec(GenState* state, const std::vector<TermId>& scope, int depth) {
  PatternPtr base = RandomConjunction(state, scope);
  if (depth <= 0) return base;
  // Optional sides may only reuse variables that actually occur in this
  // level's base conjunction (not merely in the requested scope, and not
  // in sibling optional branches), plus fresh variables exclusive to the
  // subtree. This makes the pattern well designed by construction: for
  // every OPT (L OPT R) generated here, vars(R) \ vars(L) are fresh
  // variables that occur nowhere outside R.
  std::vector<TermId> usable = base->Variables();
  PatternPtr current = base;
  int opts = static_cast<int>(
      state->rng->NextBounded(state->options->max_opts_per_node + 1));
  for (int i = 0; i < opts; ++i) {
    if (!state->rng->NextBernoulli(state->options->opt_probability)) continue;
    std::vector<TermId> extended = usable;
    int fresh = 1 + static_cast<int>(state->rng->NextBounded(2));
    for (int f = 0; f < fresh; ++f) extended.push_back(state->FreshVar());
    current = GraphPattern::MakeOpt(current, GenRec(state, extended, depth - 1));
  }
  return current;
}

}  // namespace

PatternPtr RandomWellDesignedPattern(Rng* rng, TermPool* pool,
                                     const RandomPatternOptions& options) {
  GenState state{rng, pool, &options};
  // Give each generated pattern its own fresh-variable namespace so
  // UNION arms do not accidentally share optional variables.
  state.fresh_counter = static_cast<int>(rng->NextBounded(1 << 20)) * 64;
  std::vector<TermId> scope;
  for (int i = 0; i < options.scope_vars; ++i) {
    scope.push_back(pool->InternVariable("x" + std::to_string(i)));
  }
  return GenRec(&state, scope, options.max_depth);
}

PatternPtr RandomWellDesignedUnion(Rng* rng, TermPool* pool, int arms,
                                   const RandomPatternOptions& options) {
  WDSPARQL_CHECK(arms >= 1);
  std::vector<PatternPtr> operands;
  for (int i = 0; i < arms; ++i) {
    operands.push_back(RandomWellDesignedPattern(rng, pool, options));
  }
  return GraphPattern::MakeUnionAll(operands);
}

void SmallWorkloadGraph(Rng* rng, int num_nodes, int num_triples, int num_predicates,
                        RdfGraph* graph) {
  RandomGraphOptions options;
  options.num_nodes = num_nodes;
  options.num_predicates = num_predicates;
  options.num_triples = num_triples;
  options.seed = rng->Next();
  GenerateRandomGraph(options, graph);
}

void LoadGraph(const RdfGraph& graph, Database* db) {
  WDSPARQL_CHECK(graph.pool() == &db->pool());
  WriteBatch batch;
  for (const Triple& t : graph.triples()) batch.Add(db->pool(), t);
  WDSPARQL_CHECK(db->Apply(std::move(batch)).ok());
  db->Compact();
}

Mapping MakeMapping(TermPool* pool,
                    const std::vector<std::pair<std::string, std::string>>& bindings) {
  Mapping mu;
  for (const auto& [var, iri] : bindings) {
    WDSPARQL_CHECK(mu.Bind(pool->InternVariable(var), pool->InternIri(iri)));
  }
  return mu;
}

std::vector<Mapping> MembershipProbes(const PatternPtr& pattern, const RdfGraph& graph,
                                      Rng* rng, int extra_random) {
  std::vector<Mapping> probes = Evaluate(*pattern, graph);
  std::vector<TermId> domain = graph.Domain();
  std::vector<Mapping> answers = probes;
  for (int i = 0; i < extra_random && !answers.empty() && !domain.empty(); ++i) {
    // Mutate a random answer: rebind one variable to a random IRI.
    const Mapping& base = answers[rng->NextBounded(answers.size())];
    Mapping mutated;
    const auto& bindings = base.bindings();
    if (bindings.empty()) continue;
    std::size_t flip = rng->NextBounded(bindings.size());
    for (std::size_t b = 0; b < bindings.size(); ++b) {
      TermId value = (b == flip) ? domain[rng->NextBounded(domain.size())]
                                 : bindings[b].second;
      WDSPARQL_CHECK(mutated.Bind(bindings[b].first, value));
    }
    probes.push_back(std::move(mutated));
  }
  return probes;
}

}  // namespace testlib
}  // namespace wdsparql
