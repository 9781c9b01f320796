/// \file
/// Experiment E14: concurrent read scaling over epoch-published
/// ReadViews. N reader threads execute a prepared statement in a loop
/// (each execution pins the freshest view, enumerates it to exhaustion
/// and releases it) while one writer thread keeps mutating — inserting
/// and removing triples and periodically compacting. The design goal
/// under test: aggregate read throughput scales near-linearly with
/// reader threads *with the writer active*, because readers share
/// immutable runs and never take a lock on the query path (the only
/// synchronisation is one atomic shared-ptr load per cursor open plus
/// lock-free spelling reads).
///
///   bench_e14_concurrency --benchmark_filter=LiveWriter
///
/// compares `threads:1` vs `threads:8` items_per_second (answers/sec,
/// summed over reader threads); the `NoWriter` variant isolates how
/// much the writer's cache pressure costs readers. `PinView` measures
/// the pin itself (the entire per-execution synchronisation cost).

#include <benchmark/benchmark.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>

#include "rdf/generator.h"
#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

constexpr int kTriples = 64 * 1024;

/// The shared world of one benchmark run: a 64k-triple database, a
/// prepared path query, and (optionally) a live writer thread cycling
/// inserts, removals and compactions.
class E14World {
 public:
  explicit E14World(bool with_writer) {
    RandomGraphOptions options;
    options.num_nodes = kTriples / 8;
    options.num_predicates = 8;
    options.num_triples = kTriples;
    options.seed = 14;
    RdfGraph staged(&db_.pool());
    GenerateRandomGraph(options, &staged);
    std::string text;
    // LoadNTriples on the empty database takes the sort-based bulk path.
    for (const Triple& t : staged.triples()) {
      text += db_.pool().ToParsableString(t.subject);
      text += ' ';
      text += db_.pool().ToParsableString(t.predicate);
      text += ' ';
      text += db_.pool().ToParsableString(t.object);
      text += " .\n";
    }
    WDSPARQL_CHECK(db_.LoadNTriples(text).ok());
    statement_ = db_.OpenSession().Prepare("(?x p0 ?y) AND (?y p1 ?z)");
    WDSPARQL_CHECK(statement_.ok());
    if (with_writer) {
      writer_ = std::thread([this] { WriterLoop(); });
    }
  }

  ~E14World() {
    stop_.store(true);
    if (writer_.joinable()) writer_.join();
  }

  const Database& db() const { return db_; }
  const Statement& statement() const { return statement_; }
  uint64_t writer_ops() const { return writer_ops_.load(); }

 private:
  void WriterLoop() {
    // A steady mutation stream that keeps the dataset size stable:
    // insert a fresh churn row, and once 512 are live, remove the
    // oldest again. Every publish makes all later cursor opens see a
    // new view; periodic Compact exercises base-run replacement under
    // pinned readers.
    uint64_t next = 0;
    uint64_t oldest = 0;
    while (!stop_.load(std::memory_order_relaxed)) {
      db_.AddTriple("churn-s" + std::to_string(next), "p0",
                    "churn-o" + std::to_string(next));
      ++next;
      if (next - oldest > 512) {
        db_.RemoveTriple("churn-s" + std::to_string(oldest), "p0",
                         "churn-o" + std::to_string(oldest));
        ++oldest;
      }
      if (next % 1024 == 0) db_.Compact();
      writer_ops_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  mutable Database db_;
  Statement statement_;
  std::thread writer_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> writer_ops_{0};
};

E14World* g_world = nullptr;

/// One reader iteration: pin the freshest view (inside Cursor::Open),
/// enumerate every answer, release. Returns the answer count.
uint64_t RunOnce(const Statement& stmt) {
  Cursor cursor = stmt.Execute();
  uint64_t answers = 0;
  while (cursor.Next()) ++answers;
  return answers;
}

void ReaderScaling(benchmark::State& state, bool with_writer) {
  if (state.thread_index() == 0) {
    g_world = new E14World(with_writer);
  }
  // google-benchmark barriers all threads between this setup block and
  // the measurement loop, and again before the teardown block below.
  uint64_t answers = 0;
  for (auto _ : state) {
    answers += RunOnce(g_world->statement());
  }
  state.SetItemsProcessed(static_cast<int64_t>(answers));
  if (state.thread_index() == 0) {
    state.counters["writer_ops"] = static_cast<double>(g_world->writer_ops());
    delete g_world;
    g_world = nullptr;
  }
}

/// Aggregate answers/sec with a live writer mutating throughout. The
/// headline: items_per_second at threads:8 vs threads:1 (≥4x on
/// multi-core hardware).
void BM_E14_ReadScaling_LiveWriter(benchmark::State& state) {
  ReaderScaling(state, /*with_writer=*/true);
}
BENCHMARK(BM_E14_ReadScaling_LiveWriter)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The same readers on a quiescent database: the gap to LiveWriter is
/// the full cost the writer imposes on readers (should be small — no
/// lock is shared, only memory bandwidth and the per-open pin).
void BM_E14_ReadScaling_NoWriter(benchmark::State& state) {
  ReaderScaling(state, /*with_writer=*/false);
}
BENCHMARK(BM_E14_ReadScaling_NoWriter)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The entire per-execution synchronisation cost a reader ever pays:
/// one atomic shared-ptr load + refcount round trip, here through the
/// public `GetSnapshot`.
void BM_E14_PinView(benchmark::State& state) {
  E14World world(/*with_writer=*/false);
  const Database& db = world.db();
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.GetSnapshot());
  }
}
BENCHMARK(BM_E14_PinView);

/// Writer-side cost of the copy-on-write publish discipline: solo
/// insert throughput including the per-mutation delta copy and view
/// publish (compare bench_e12's pre-MVCC numbers).
void BM_E14_WriterPublish(benchmark::State& state) {
  E14World world(/*with_writer=*/false);
  Database& db = const_cast<Database&>(world.db());
  uint64_t i = 0;
  for (auto _ : state) {
    db.AddTriple("pub-s" + std::to_string(i), "p0", "pub-o" + std::to_string(i));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(i));
}
BENCHMARK(BM_E14_WriterPublish);

}  // namespace
}  // namespace wdsparql
