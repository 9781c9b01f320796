/// \file
/// Experiment E15: batched ingest through the WriteBatch surface. PR 5
/// redesigned the write path around `Database::Apply`: one merged
/// copy-on-write delta build, one view publish and one WAL group record
/// per batch, however many triples the batch carries. This benchmark
/// quantifies the amortisation against the per-triple path the public
/// API used to force:
///
///  * in-memory ingest throughput at batch sizes 1 / 64 / 4096 over a
///    64k-triple bulk load — batch size 1 IS the old per-triple
///    discipline (one COW delta copy and one publish per triple), so
///    the 1-vs-4096 ratio is the cost the old `AddTriple`-loop surface
///    left on the table (expected: well over 5x);
///  * the publish count — the `publishes_per_commit` counter must read
///    1.0: one view publish per applied batch (threshold folds happen
///    inside the same publish), which is what keeps concurrent readers'
///    cache churn independent of batch size;
///  * WAL commit cost — one CRC-framed group append per batch versus
///    one framed record per triple, measured on a real log file.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "rdf/generator.h"
#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

/// Distinct random triples over a private pool, generated once per
/// benchmark and ingested into a fresh database per iteration.
struct E15Workload {
  TermPool pool;
  std::vector<Triple> triples;

  explicit E15Workload(int count) {
    RandomGraphOptions options;
    options.num_nodes = 1 << 12;
    options.num_predicates = 16;
    options.num_triples = count;
    options.seed = 15;
    RdfGraph staged(&pool);
    GenerateRandomGraph(options, &staged);
    triples = staged.triples().triples();
  }
};

/// Ingest `total` triples in WriteBatch commits of `batch` triples.
/// batch == 1 reproduces the per-triple discipline of the old surface.
void BM_E15_BatchedIngest(benchmark::State& state) {
  int total = static_cast<int>(state.range(0));
  int batch_size = static_cast<int>(state.range(1));
  E15Workload workload(total);
  uint64_t ingested = 0;
  uint64_t publishes = 0;
  uint64_t commits = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db(&workload.pool);
    uint64_t before = db.generation();
    state.ResumeTiming();
    WriteBatch batch;
    for (const Triple& t : workload.triples) {
      batch.Add(workload.pool, t);
      if (static_cast<int>(batch.size()) >= batch_size) {
        WDSPARQL_CHECK(db.Apply(std::move(batch)).ok());
        ++commits;
      }
    }
    if (!batch.empty()) {
      WDSPARQL_CHECK(db.Apply(std::move(batch)).ok());
      ++commits;
    }
    ingested += db.size();
    publishes += db.generation() - before;
    benchmark::DoNotOptimize(db.size());
  }
  state.counters["batch"] = static_cast<double>(batch_size);
  state.counters["publishes_per_commit"] =
      commits == 0 ? 0.0
                   : static_cast<double>(publishes) / static_cast<double>(commits);
  state.counters["publishes_per_sec"] =
      benchmark::Counter(static_cast<double>(publishes), benchmark::Counter::kIsRate);
  state.SetItemsProcessed(static_cast<int64_t>(ingested));
}

/// The legacy public surface verbatim: an AddTriple loop (now a
/// one-element batch per call through the same commit path).
void BM_E15_AddTripleLoop(benchmark::State& state) {
  int total = static_cast<int>(state.range(0));
  E15Workload workload(total);
  uint64_t ingested = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Database db(&workload.pool);
    state.ResumeTiming();
    for (const Triple& t : workload.triples) db.AddTriple(t);
    ingested += db.size();
    benchmark::DoNotOptimize(db.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(ingested));
}

/// WAL commit cost: one group frame per batch versus one framed record
/// per triple, on a real (create_if_missing) log. The file is recreated
/// per iteration so appends always start from an empty log.
void BM_E15_WalCommit(benchmark::State& state) {
  int total = static_cast<int>(state.range(0));
  int batch_size = static_cast<int>(state.range(1));
  E15Workload workload(total);
  std::string path = "/tmp/wdsparql_bench_e15.snap";
  uint64_t ingested = 0;
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
    OpenOptions options;
    options.durability = Durability::kWal;
    options.create_if_missing = true;
    Result<Database> opened = Database::Open(path, options);
    WDSPARQL_CHECK(opened.ok());
    Database db = std::move(opened).value();
    state.ResumeTiming();
    WriteBatch batch;
    for (const Triple& t : workload.triples) {
      batch.Add(workload.pool, t);
      if (static_cast<int>(batch.size()) >= batch_size) {
        WDSPARQL_CHECK(db.Apply(std::move(batch)).ok());
      }
    }
    if (!batch.empty()) WDSPARQL_CHECK(db.Apply(std::move(batch)).ok());
    ingested += db.size();
    benchmark::DoNotOptimize(db.storage_status().ok());
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  state.counters["batch"] = static_cast<double>(batch_size);
  state.SetItemsProcessed(static_cast<int64_t>(ingested));
}

void IngestSweep(benchmark::internal::Benchmark* bench) {
  for (int batch : {1, 64, 4096}) {
    bench->Args({1 << 16, batch});
  }
}

BENCHMARK(BM_E15_BatchedIngest)->Apply(IngestSweep)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E15_AddTripleLoop)->Args({1 << 16})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_E15_WalCommit)
    ->Args({1 << 14, 1})
    ->Args({1 << 14, 4096})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql
