/// \file
/// Experiment E10 (Section 5, "enumerating all solutions"): cost of
/// materialising JFKG with the naive enumerator on OPT-heavy social
/// workloads, and on the F_k family as its clique child grows.
///
/// Paper context: enumeration/counting are the variant problems the
/// conclusion lists (cf. Kroll-Pichler-Skritek). The enumerator walks
/// each tree top-down, one CSP search per node with its ancestors'
/// values as inputs; a child whose search finds no row is its own
/// maximality certificate. Each search is an exact solve, so on F_k the
/// clique child's search grows with k (the E1 regime, where Theorem 1's
/// pebble game decides membership in polynomial time instead).

#include <benchmark/benchmark.h>

#include "rdf/generator.h"
#include "sparql/parser.h"
#include "wd/enumerate.h"
#include "wd/paper_examples.h"

namespace wdsparql {
namespace {

struct SocialInstance {
  TermPool pool;
  PatternForest forest;
  RdfGraph graph{&pool};

  explicit SocialInstance(int people) {
    auto pattern = ParsePattern(
        "(?p type Person) OPT ((?p email ?e) OPT (?p phone ?f))", &pool);
    WDSPARQL_CHECK(pattern.ok());
    auto built = BuildPatternForest(pattern.value(), pool);
    WDSPARQL_CHECK(built.ok());
    forest = std::move(built).value();
    SocialGraphOptions options;
    options.num_people = people;
    options.seed = 99;
    GenerateSocialGraph(options, &graph);
  }
};

void BM_E10_EnumerateNaive(benchmark::State& state) {
  SocialInstance instance(static_cast<int>(state.range(0)));
  uint64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    EnumerateSolutionsNaive(instance.forest, instance.graph, [&](const Mapping&) {
      ++answers;
      return true;
    });
    benchmark::DoNotOptimize(+answers);
  }
  WDSPARQL_CHECK(answers == static_cast<uint64_t>(state.range(0)));
  state.counters["people"] = static_cast<double>(state.range(0));
  state.counters["answers"] = static_cast<double>(answers);
}

void BM_E10_EnumerateFkFamily(benchmark::State& state) {
  // Enumeration on the F_k family: the exact search of the clique
  // child runs on every root row.
  int k = static_cast<int>(state.range(0));
  TermPool pool;
  PatternForest forest = MakeFkForest(&pool, k);
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  graph.Insert("c", "q", "a");
  graph.Insert("b", "r", "e");
  graph.Insert("e", "r", "e");
  uint64_t answers = 0;
  for (auto _ : state) {
    answers = 0;
    EnumerateSolutionsNaive(forest, graph, [&](const Mapping&) {
      ++answers;
      return true;
    });
    benchmark::DoNotOptimize(+answers);
  }
  state.counters["k"] = k;
  state.counters["answers"] = static_cast<double>(answers);
}

BENCHMARK(BM_E10_EnumerateNaive)
    ->RangeMultiplier(2)
    ->Range(16, 128)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E10_EnumerateFkFamily)->DenseRange(2, 5)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql

BENCHMARK_MAIN();
