#include "support/testlib.h"

#include <algorithm>

#include "rdf/generator.h"
#include "sparql/semantics.h"
#include "wdsparql/check.h"

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

/// One node of a branching shape: its triples and its OPT children.
struct ShapeNode {
  std::vector<Triple> triples;
  std::vector<ShapeNode> children;
};

/// Builds a node under a parent whose triples use `parent_vars`: one or
/// two fresh variables, each linked to a parent variable, and maybe one
/// more triple among them. `depth` more levels hang below when `spine`
/// demands it (a chain to depth 3, and two children at the first level
/// below the root); elsewhere children are random.
ShapeNode RandomShapeNode(Rng* rng, TermPool* pool, const std::vector<TermId>& parent_vars,
                          int depth, bool spine, int num_predicates, int* fresh) {
  auto predicate = [&] {
    return pool->InternIri("p" + std::to_string(rng->NextBounded(num_predicates)));
  };
  auto pick = [rng](const std::vector<TermId>& vars) {
    return vars[rng->NextBounded(vars.size())];
  };
  ShapeNode node;
  std::vector<TermId> vars;
  const int own = 1 + static_cast<int>(rng->NextBounded(2));
  for (int i = 0; i < own; ++i) {
    const TermId v = pool->InternVariable("v" + std::to_string((*fresh)++));
    const TermId link = pick(parent_vars);
    node.triples.push_back(rng->NextBernoulli(0.5) ? Triple(link, predicate(), v)
                                                   : Triple(v, predicate(), link));
    vars.push_back(link);
    vars.push_back(v);
  }
  if (rng->NextBernoulli(0.3)) node.triples.push_back(Triple(pick(vars), predicate(), pick(vars)));
  if (depth <= 0) return node;
  int children = static_cast<int>(rng->NextBounded(3));
  if (spine) children = std::max(children, depth == 2 ? 2 : 1);
  for (int c = 0; c < children; ++c) {
    node.children.push_back(RandomShapeNode(rng, pool, vars, depth - 1, spine && c == 0,
                                            num_predicates, fresh));
  }
  return node;
}

/// One arm of a branching UNION: `shape` itself when `mutate` is off,
/// else with changed predicates, added triples and dropped subtrees. A
/// change never removes a variable occurrence, so the arm stays well
/// designed.
PatternPtr ShapeArm(Rng* rng, TermPool* pool, const ShapeNode& shape, bool mutate,
                    int num_predicates) {
  std::vector<Triple> triples = shape.triples;
  if (mutate && rng->NextBernoulli(0.3)) {
    Triple& t = triples[rng->NextBounded(triples.size())];
    t.predicate = pool->InternIri("p" + std::to_string(rng->NextBounded(num_predicates)));
  }
  if (mutate && rng->NextBernoulli(0.25)) {
    const Triple& t = triples[rng->NextBounded(triples.size())];
    triples.push_back(Triple(t.object,
                             pool->InternIri("p" + std::to_string(
                                                 rng->NextBounded(num_predicates))),
                             t.subject));
  }
  std::vector<PatternPtr> leaves;
  for (const Triple& t : triples) leaves.push_back(GraphPattern::MakeTriple(t));
  PatternPtr out = GraphPattern::MakeAndAll(leaves);
  for (const ShapeNode& child : shape.children) {
    if (mutate && rng->NextBernoulli(0.2)) continue;
    out = GraphPattern::MakeOpt(out, ShapeArm(rng, pool, child, mutate, num_predicates));
  }
  return out;
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

PatternPtr RandomSharedRootUnion(Rng* rng, TermPool* pool, int arms,
                                 int num_predicates) {
  WDSPARQL_CHECK(arms >= 1);
  const TermId x0 = pool->InternVariable("x0");
  const TermId x1 = pool->InternVariable("x1");
  auto predicate = [&] {
    return pool->InternIri("p" + std::to_string(rng->NextBounded(num_predicates)));
  };
  auto root_var = [&] { return rng->NextBernoulli(0.5) ? x0 : x1; };
  auto triple = [](TermId s, TermId p, TermId o) {
    return GraphPattern::MakeTriple(Triple(s, p, o));
  };
  std::vector<PatternPtr> operands;
  int fresh = 0;
  for (int a = 0; a < arms; ++a) {
    std::vector<PatternPtr> root = {triple(x0, predicate(), x1)};
    const int extra = static_cast<int>(rng->NextBounded(3));
    for (int i = 0; i < extra; ++i) root.push_back(triple(root_var(), predicate(), root_var()));
    PatternPtr arm = GraphPattern::MakeAndAll(root);
    const int children = static_cast<int>(rng->NextBounded(3));
    for (int c = 0; c < children; ++c) {
      const TermId f = pool->InternVariable("g" + std::to_string(fresh++));
      const TermId p = rng->NextBernoulli(0.15) ? pool->InternIri("absent") : predicate();
      std::vector<PatternPtr> child = {rng->NextBernoulli(0.5) ? triple(root_var(), p, f)
                                                                : triple(f, p, root_var())};
      if (rng->NextBernoulli(0.4)) child.push_back(triple(root_var(), predicate(), root_var()));
      arm = GraphPattern::MakeOpt(arm, GraphPattern::MakeAndAll(child));
    }
    operands.push_back(arm);
  }
  return GraphPattern::MakeUnionAll(operands);
}

PatternPtr RandomBranchingUnion(Rng* rng, TermPool* pool, int arms, int num_predicates) {
  WDSPARQL_CHECK(arms >= 1);
  const std::vector<TermId> root_vars = {pool->InternVariable("x0"),
                                         pool->InternVariable("x1")};
  ShapeNode shape;
  shape.triples.push_back(Triple(root_vars[0], pool->InternIri("p0"), root_vars[1]));
  if (rng->NextBernoulli(0.4)) {
    shape.triples.push_back(Triple(root_vars[1],
                                   pool->InternIri("p" + std::to_string(
                                                       rng->NextBounded(num_predicates))),
                                   root_vars[rng->NextBounded(2)]));
  }
  int fresh = 0;
  const int children = 2 + static_cast<int>(rng->NextBounded(2));
  for (int c = 0; c < children; ++c) {
    shape.children.push_back(
        RandomShapeNode(rng, pool, root_vars, 2, c == 0, num_predicates, &fresh));
  }
  std::vector<PatternPtr> operands;
  for (int a = 0; a < arms; ++a) {
    operands.push_back(ShapeArm(rng, pool, shape, a > 0, num_predicates));
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

IndexedStore BuildStore(std::vector<Triple> triples) {
  std::sort(triples.begin(), triples.end());
  triples.erase(std::unique(triples.begin(), triples.end()), triples.end());
  IndexedStore store;
  store.ApplyBatch(triples, {});
  store.MergeDelta();
  return store;
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
