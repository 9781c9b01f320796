/// \file
/// Experiment E17: tracing overhead. Measures end-to-end enumeration
/// throughput through the public Database/Session/Cursor API on the
/// E16 workloads, in three tracing modes:
///
///   mode 0 — recorder disabled (DatabaseOptions::trace_capacity = 0):
///            every instrumentation site is one predictable branch.
///            The acceptance bar is <1% vs the pre-feature engine
///            (compare against bench_e16's collect=0 numbers).
///   mode 1 — recorder enabled, request untraced (a null
///            ExecOptions::trace): the serving steady state for
///            requests that nobody is watching.
///   mode 2 — fully traced: a fresh TraceContext per query, a request
///            root span, per-wdpf-subtree spans, one ring publish per
///            query. The acceptance bar is <5% vs mode 0.
///
///   BM_E17_Enumerate/<triples>/<mode>
///   BM_E17_OptionalEnumerate/<triples>/<mode>   wdpf + maximality
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

/// The E16 graph, with the flight recorder sized by mode.
struct E17Instance {
  TermPool pool;
  Database db;

  E17Instance(int num_triples, bool tracing_enabled)
      : db(&pool, [&] {
          DatabaseOptions options;
          options.trace_capacity =
              tracing_enabled ? TraceRecorder::kDefaultCapacity : 0;
          return options;
        }()) {
    RandomGraphOptions options;
    options.num_nodes = std::max(8, num_triples / 8);
    options.num_predicates = 8;
    options.num_triples = num_triples;
    options.seed = 16;  // Same instance as bench_e16.
    RdfGraph staged(&pool);
    GenerateRandomGraph(options, &staged);
    testlib::LoadGraph(staged, &db);
  }
};

void RunEnumeration(benchmark::State& state, const std::string& pattern) {
  const int mode = static_cast<int>(state.range(1));
  E17Instance instance(static_cast<int>(state.range(0)), mode != 0);
  Statement stmt = instance.db.OpenSession().Prepare(pattern);
  WDSPARQL_CHECK(stmt.ok());
  TraceRecorder* recorder = instance.db.trace_recorder();
  WDSPARQL_CHECK((recorder != nullptr) == (mode != 0));

  uint64_t rows = 0;
  for (auto _ : state) {
    // Mode 2 pays the full per-request cost: context construction, a
    // root span, the traced execution, and the flush's ring publish.
    TraceContext ctx(mode == 2 ? recorder : nullptr);
    ExecOptions exec;
    if (ctx.enabled()) {
      exec.trace = &ctx;
      exec.trace_parent = ctx.StartSpan("request");
    }
    Cursor cursor = stmt.Execute(exec);
    while (cursor.Next()) {
      benchmark::DoNotOptimize(cursor.Row());
      ++rows;
    }
    cursor.Close();
    ctx.Flush();
  }
  if (mode == 2) {
    WDSPARQL_CHECK(!recorder->CollectTraces(1).empty());
  }
  state.counters["rows/s"] =
      benchmark::Counter(static_cast<double>(rows), benchmark::Counter::kIsRate);
}

/// Scan-heavy conjunctive path: the acceptance workload.
void BM_E17_Enumerate(benchmark::State& state) {
  RunEnumeration(state, "((?x p0 ?y) AND (?y p1 ?z))");
}
BENCHMARK(BM_E17_Enumerate)
    ->ArgsProduct({{4096, 32768}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

/// Maximality-testing workload: OPT forces extension certificates and
/// opens the most subtree spans per query.
void BM_E17_OptionalEnumerate(benchmark::State& state) {
  RunEnumeration(state, "(?x p0 ?y) OPT (?y p1 ?z)");
}
BENCHMARK(BM_E17_OptionalEnumerate)
    ->ArgsProduct({{4096, 32768}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql

BENCHMARK_MAIN();
