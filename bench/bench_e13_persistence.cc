/// \file
/// Experiment E13: the persistent storage subsystem. Three questions:
///
///  * cold-open latency — `Database::Open` on a snapshot (mmap, runs
///    consumed in place, O(terms) pool rebuild) versus re-parsing and
///    re-sorting the same dataset from N-Triples text, across graph
///    sizes. The snapshot should win by well over an order of magnitude
///    and widen with scale (the acceptance bar is >= 10x at the largest
///    size);
///  * durable-write throughput — WAL-framed `AddTriple` into an open
///    database versus the crude alternative of rewriting the whole
///    snapshot after every batch;
///  * checkpoint cost — folding base + delta into a fresh snapshot and
///    truncating the log, as a function of store size.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

#include "rdf/generator.h"
#include "rdf/ntriples.h"
#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

std::string TempBase() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/wdsparql_bench_e13_";
}

/// One benchmark dataset: the N-Triples file and the snapshot, written
/// once per size and reused by every iteration.
struct E13Instance {
  std::string nt_path;
  std::string snap_path;
};

const E13Instance& InstanceFor(int num_triples) {
  static std::map<int, E13Instance>* cache = new std::map<int, E13Instance>();
  auto it = cache->find(num_triples);
  if (it != cache->end()) return it->second;

  RandomGraphOptions options;
  options.num_nodes = std::max(8, num_triples / 8);
  options.num_predicates = 8;
  options.num_triples = num_triples;
  options.seed = 13;
  TermPool pool;
  RdfGraph graph(&pool);
  GenerateRandomGraph(options, &graph);

  E13Instance instance;
  std::string base = TempBase() + std::to_string(num_triples);
  instance.nt_path = base + ".nt";
  instance.snap_path = base + ".snap";
  {
    std::ofstream out(instance.nt_path, std::ios::trunc);
    out << WriteNTriples(graph);
    WDSPARQL_CHECK(out.good());
  }
  Database db;
  WDSPARQL_CHECK(db.LoadNTriplesFile(instance.nt_path).ok());
  WDSPARQL_CHECK(db.Save(instance.snap_path).ok());
  return cache->emplace(num_triples, std::move(instance)).first->second;
}

/// Cold open from the snapshot: validation + O(terms), runs in place.
void BM_E13_ColdOpenSnapshot(benchmark::State& state) {
  const E13Instance& instance = InstanceFor(static_cast<int>(state.range(0)));
  // Counter from a pre-loop open (also warms the page cache, so the
  // loop measures the CPU cost of opening, not disk variance).
  std::size_t triples = 0;
  {
    Result<Database> warm = Database::Open(instance.snap_path);
    WDSPARQL_CHECK(warm.ok());
    triples = warm->size();
  }
  for (auto _ : state) {
    Result<Database> db = Database::Open(instance.snap_path);
    WDSPARQL_CHECK(db.ok());
    benchmark::DoNotOptimize(db->size());
  }
  state.counters["triples"] = static_cast<double>(triples);
}

/// The pre-PR alternative: re-parse the N-Triples text and rebuild the
/// dictionary plus all three permutation runs from scratch.
void BM_E13_ReparseNTriples(benchmark::State& state) {
  const E13Instance& instance = InstanceFor(static_cast<int>(state.range(0)));
  std::size_t triples = 0;
  {
    Database warm;
    WDSPARQL_CHECK(warm.LoadNTriplesFile(instance.nt_path).ok());
    triples = warm.size();
  }
  for (auto _ : state) {
    Database db;
    WDSPARQL_CHECK(db.LoadNTriplesFile(instance.nt_path).ok());
    benchmark::DoNotOptimize(db.size());
  }
  state.counters["triples"] = static_cast<double>(triples);
}

/// Open-then-query: the latency a reader actually observes from a cold
/// process to the first drained cursor.
void BM_E13_ColdOpenFirstQuery(benchmark::State& state) {
  const E13Instance& instance = InstanceFor(static_cast<int>(state.range(0)));
  uint64_t answers = 0;
  for (auto _ : state) {
    Result<Database> db = Database::Open(instance.snap_path);
    WDSPARQL_CHECK(db.ok());
    Statement stmt = db->OpenSession().Prepare("(?x p0 ?y) OPT (?y p1 ?z)");
    WDSPARQL_CHECK(stmt.ok());
    Cursor cursor = stmt.Execute();
    while (cursor.Next()) ++answers;
    benchmark::DoNotOptimize(answers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(answers));
}

/// Durable inserts through the WAL: one framed append per mutation,
/// indexes maintained incrementally.
void BM_E13_WalAppend(benchmark::State& state) {
  int batch = static_cast<int>(state.range(0));
  std::string path = TempBase() + "wal_append.snap";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  OpenOptions options;
  options.durability = Durability::kWal;
  options.create_if_missing = true;
  Result<Database> opened = Database::Open(path, options);
  WDSPARQL_CHECK(opened.ok());
  Database db = std::move(opened).value();
  uint64_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      std::string n = std::to_string(next++);
      db.AddTriple("s" + n, "p" + std::to_string(next % 8), "o" + n);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(next));
}

/// The crude durable alternative: rewrite the entire snapshot after
/// every batch.
void BM_E13_SnapshotRewritePerBatch(benchmark::State& state) {
  int batch = static_cast<int>(state.range(0));
  std::string path = TempBase() + "rewrite.snap";
  std::remove(path.c_str());
  Database db;
  uint64_t next = 0;
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      std::string n = std::to_string(next++);
      db.AddTriple("s" + n, "p" + std::to_string(next % 8), "o" + n);
    }
    WDSPARQL_CHECK(db.Save(path).ok());
  }
  state.SetItemsProcessed(static_cast<int64_t>(next));
}

/// Checkpoint cost: fold a `batch`-sized WAL'd delta over a warm store
/// of range(0) triples into a fresh snapshot and truncate the log.
void BM_E13_Checkpoint(benchmark::State& state) {
  int num_triples = static_cast<int>(state.range(0));
  int batch = static_cast<int>(state.range(1));
  const E13Instance& instance = InstanceFor(num_triples);
  std::string path = TempBase() + "checkpoint.snap";
  uint64_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    {
      std::ifstream src(instance.snap_path, std::ios::binary);
      std::ofstream dst(path, std::ios::binary | std::ios::trunc);
      dst << src.rdbuf();
    }
    std::remove((path + ".wal").c_str());
    OpenOptions options;
    options.durability = Durability::kWal;
    Result<Database> opened = Database::Open(path, options);
    WDSPARQL_CHECK(opened.ok());
    Database db = std::move(opened).value();
    for (int i = 0; i < batch; ++i) {
      std::string n = std::to_string(next++);
      db.AddTriple("cp-s" + n, "cp-p", "cp-o" + n);
    }
    state.ResumeTiming();
    WDSPARQL_CHECK(db.Checkpoint().ok());
  }
  state.counters["store"] = static_cast<double>(num_triples);
}

void SizeSweep(benchmark::internal::Benchmark* bench) {
  for (int triples : {1 << 12, 1 << 14, 1 << 16}) bench->Args({triples});
}

BENCHMARK(BM_E13_ColdOpenSnapshot)->Apply(SizeSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E13_ReparseNTriples)->Apply(SizeSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E13_ColdOpenFirstQuery)->Apply(SizeSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E13_WalAppend)->Arg(16)->Arg(256)->Arg(4096)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E13_SnapshotRewritePerBatch)
    ->Arg(16)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E13_Checkpoint)
    ->Args({1 << 12, 256})
    ->Args({1 << 15, 256})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql
