/// \file
/// Experiment E16: observability overhead. Measures end-to-end
/// enumeration throughput through the public Database/Session/Cursor
/// API with statistics collection off (the default) and on
/// (`ExecOptions::collect_stats`), across graph sizes and pattern
/// shapes.
///
/// Acceptance bar for the stats feature: the stats-ON path stays
/// within 5% of the stats-OFF path on scan-heavy reads. The disabled
/// path should be indistinguishable from the pre-feature engine — it
/// pays one null check per `Next()` and a cursor-finish merge of a
/// handful of relaxed atomic adds.
///
///   BM_E16_Enumerate/<triples>/<collect>   collect: 0=off, 1=on
///   BM_E16_OptionalEnumerate/<triples>/<collect>   wdpf + maximality
///
/// Counters: rows/s is the comparable throughput metric.

#include <benchmark/benchmark.h>

#include <string>

#include "rdf/generator.h"
#include "support/testlib.h"
#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

/// A random graph loaded into a Database, queried through the
/// indexed backend (the serving default).
struct E16Instance {
  TermPool pool;
  Database db{&pool};

  explicit E16Instance(int num_triples) {
    RandomGraphOptions options;
    options.num_nodes = std::max(8, num_triples / 8);
    options.num_predicates = 8;
    options.num_triples = num_triples;
    options.seed = 16;
    RdfGraph staged(&pool);
    GenerateRandomGraph(options, &staged);
    testlib::LoadGraph(staged, &db);
  }
};

ExecOptions MakeExec(bool collect) {
  ExecOptions exec;
  exec.collect_stats = collect;
  return exec;
}

void RunEnumeration(benchmark::State& state, const std::string& pattern) {
  E16Instance instance(static_cast<int>(state.range(0)));
  const bool collect = state.range(1) != 0;
  Statement stmt = instance.db.OpenSession().Prepare(pattern);
  WDSPARQL_CHECK(stmt.ok());
  ExecOptions exec = MakeExec(collect);

  uint64_t rows = 0;
  for (auto _ : state) {
    Cursor cursor = stmt.Execute(exec);
    while (cursor.Next()) {
      benchmark::DoNotOptimize(cursor.Row());
      ++rows;
    }
    if (collect) WDSPARQL_CHECK(cursor.stats() != nullptr);
  }
  state.counters["rows/s"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsRate);
}

/// Scan-heavy conjunctive path: the acceptance workload.
void BM_E16_Enumerate(benchmark::State& state) {
  RunEnumeration(state, "((?x p0 ?y) AND (?y p1 ?z))");
}
BENCHMARK(BM_E16_Enumerate)
    ->ArgsProduct({{4096, 32768}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// Maximality-testing workload: OPT forces extension certificates, the
/// per-candidate instrumentation-heaviest path.
void BM_E16_OptionalEnumerate(benchmark::State& state) {
  RunEnumeration(state, "(?x p0 ?y) OPT (?y p1 ?z)");
}
BENCHMARK(BM_E16_OptionalEnumerate)
    ->ArgsProduct({{4096, 32768}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql

BENCHMARK_MAIN();
