/// \file
/// Experiment E12: incremental index maintenance. The Database keeps
/// its SPO/POS/OSP permutation runs maintained under mutation with a
/// sorted-run delta plus periodic linear merges. This benchmark measures
/// that maintenance across scales:
///
///  * insert throughput — incremental `AddTriple` into a warm database;
///  * removal throughput — tombstoned `RemoveTriple`;
///  * query latency during interleaved updates — alternate small update
///    batches with a conjunctive query, i.e. the latency a reader
///    actually observes in an update-heavy workload.

#include <benchmark/benchmark.h>

#include <vector>

#include "rdf/generator.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

/// A warm database of `num_triples` random triples plus a disjoint
/// update stream over the same node/predicate pools.
struct E12Instance {
  TermPool pool;
  RdfGraph staged{&pool};  // The initial content, as a plain graph.
  Database db{&pool};
  std::vector<Triple> updates;

  E12Instance(int num_triples, int num_updates) {
    RandomGraphOptions options;
    options.num_nodes = std::max(8, num_triples / 8);
    options.num_predicates = 8;
    options.num_triples = num_triples;
    options.seed = 12;
    GenerateRandomGraph(options, &staged);
    testlib::LoadGraph(staged, &db);

    // The update stream: fresh triples over the same vocabulary.
    Rng rng(0xe12);
    std::vector<TermId> nodes = staged.triples().TermsAt(0);
    std::vector<TermId> predicates = staged.triples().TermsAt(1);
    while (static_cast<int>(updates.size()) < num_updates) {
      Triple t(nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))],
               predicates[rng.NextBounded(static_cast<uint32_t>(predicates.size()))],
               nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))]);
      if (!db.Contains(t)) updates.push_back(t);
    }
  }
};

/// Incremental inserts: delta runs + periodic merges.
void BM_E12_InsertIncremental(benchmark::State& state) {
  int num_triples = static_cast<int>(state.range(0));
  int batch = static_cast<int>(state.range(1));
  uint64_t inserted = 0;
  for (auto _ : state) {
    state.PauseTiming();
    E12Instance instance(num_triples, batch);
    state.ResumeTiming();
    for (const Triple& t : instance.updates) {
      inserted += instance.db.AddTriple(t) ? 1 : 0;
    }
    benchmark::DoNotOptimize(inserted);
  }
  state.counters["store"] = static_cast<double>(num_triples);
  state.SetItemsProcessed(static_cast<int64_t>(inserted));
}

/// Incremental removal throughput on a warm store.
void BM_E12_RemoveIncremental(benchmark::State& state) {
  int num_triples = static_cast<int>(state.range(0));
  int batch = static_cast<int>(state.range(1));
  uint64_t removed = 0;
  for (auto _ : state) {
    state.PauseTiming();
    E12Instance instance(num_triples, batch);
    std::vector<Triple> victims = instance.staged.triples().triples();
    victims.resize(std::min<std::size_t>(victims.size(), batch));
    state.ResumeTiming();
    for (const Triple& t : victims) {
      removed += instance.db.RemoveTriple(t) ? 1 : 0;
    }
    benchmark::DoNotOptimize(removed);
  }
  state.counters["store"] = static_cast<double>(num_triples);
  state.SetItemsProcessed(static_cast<int64_t>(removed));
}

/// Query latency during interleaved updates: per iteration, apply one
/// small update batch, then drain one query cursor.
void BM_E12_InterleavedQueryLatency(benchmark::State& state) {
  int num_triples = static_cast<int>(state.range(0));
  int batch = static_cast<int>(state.range(1));

  E12Instance instance(num_triples, 1 << 16);
  Session session = instance.db.OpenSession();
  Statement query = session.Prepare("((?x p0 ?y) AND (?y p1 ?z)) OPT (?z p2 ?w)");
  WDSPARQL_CHECK(query.ok());

  std::size_t next_update = 0;
  uint64_t answers = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      const Triple& t = instance.updates[next_update];
      next_update = (next_update + 1) % instance.updates.size();
      instance.db.AddTriple(t);
    }
    Cursor cursor = query.Execute();
    while (cursor.Next()) ++answers;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["store"] = static_cast<double>(instance.db.size());
  state.SetItemsProcessed(static_cast<int64_t>(answers));
}

void UpdateSweep(benchmark::internal::Benchmark* bench) {
  for (int triples : {1 << 12, 1 << 15}) {
    for (int batch : {16, 256, 4096}) {
      bench->Args({triples, batch});
    }
  }
}

void InterleavedSweep(benchmark::internal::Benchmark* bench) {
  for (int triples : {1 << 12, 1 << 15}) {
    bench->Args({triples, /*batch=*/64});
  }
}

BENCHMARK(BM_E12_InsertIncremental)->Apply(UpdateSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E12_RemoveIncremental)->Apply(UpdateSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E12_InterleavedQueryLatency)
    ->Apply(InterleavedSweep)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql
