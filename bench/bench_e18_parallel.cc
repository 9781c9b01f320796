/// \file
/// Experiment E18: parallel query execution over one pinned ReadView.
///
/// Two workload shapes:
///
///   BM_E18_SingleQueryWorkers/<w> — ONE large enumeration (a two-hop
///     join over a 64k-triple graph) executed with
///     `ExecOptions::parallelism = w` for w in {1, 2, 4, 8}. Workers
///     fan the root-binding space of the join across threads over the
///     same pinned view; rows/s (items_per_second) is the comparable
///     metric. `w = 0` is the serial engine with the parallel machinery
///     entirely bypassed — the baseline for the no-regression bar.
///
///   BM_E18_MultiQueryLoad/threads:<t> — the bench_e14 shape: t
///     concurrent statements, each a parallelism=2 execution against a
///     fresh pin, with one live writer mutating and compacting
///     throughout. Measures how intra-query parallelism composes with
///     inter-query concurrency under churn.
///
/// Acceptance bars (documented here, asserted by eye against the JSON
/// this binary emits with --benchmark_format=json):
///
///   * single-query rows/s at w=8 >= 3x the w=1 number on hardware with
///     >= 8 physical cores;
///   * w=0 (serial path) within 5% of the pre-feature engine — the
///     suspendable-join rewrite must not tax serial execution;
///   * the w=1 worker-pool overhead (thread + queue + merge dedup) stays
///     modest vs w=0 (the pool is opt-in; nobody pays it by default).
///
/// CAVEAT for recorded numbers: a single-core container cannot show the
/// 3x bar — worker threads timeshare one CPU, so w>1 matches (or
/// slightly trails) w=1 there. The scaling claim is about the absence
/// of shared mutable state on the enumeration path (one atomic
/// fetch_add per claimed root value, one lock per delivered row);
/// re-run on multi-core hardware to regenerate the scaling series.

#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>

#include "rdf/generator.h"
#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

constexpr int kTriples = 64 * 1024;

/// The shared world: a 64k-triple random graph (the E14 instance shape)
/// and a prepared two-hop join; optionally a live writer thread.
class E18World {
 public:
  explicit E18World(bool with_writer) {
    RandomGraphOptions options;
    options.num_nodes = kTriples / 8;
    options.num_predicates = 8;
    options.num_triples = kTriples;
    options.seed = 18;
    RdfGraph staged(&db_.pool());
    GenerateRandomGraph(options, &staged);
    std::string text;
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

  ~E18World() {
    stop_.store(true);
    if (writer_.joinable()) writer_.join();
  }

  const Statement& statement() const { return statement_; }

 private:
  void WriterLoop() {
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
    }
  }

  mutable Database db_;
  Statement statement_;
  std::thread writer_;
  std::atomic<bool> stop_{false};
};

uint64_t RunOnce(const Statement& stmt, uint32_t parallelism) {
  ExecOptions exec;
  exec.parallelism = parallelism;
  Cursor cursor = stmt.Execute(exec);
  uint64_t answers = 0;
  while (cursor.Next()) ++answers;
  return answers;
}

/// One big enumeration at the requested worker count; range(0) is
/// `ExecOptions::parallelism` (0 = the untouched serial path).
void BM_E18_SingleQueryWorkers(benchmark::State& state) {
  static E18World* world = nullptr;
  if (world == nullptr) world = new E18World(/*with_writer=*/false);
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  uint64_t answers = 0;
  for (auto _ : state) {
    answers += RunOnce(world->statement(), workers);
  }
  state.SetItemsProcessed(static_cast<int64_t>(answers));
  state.counters["workers"] = static_cast<double>(workers);
}
BENCHMARK(BM_E18_SingleQueryWorkers)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

E18World* g_load_world = nullptr;

/// The E14 shape with intra-query parallelism: every benchmark thread
/// repeatedly runs a parallelism=2 execution against a fresh pin while
/// the writer churns.
void BM_E18_MultiQueryLoad(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_load_world = new E18World(/*with_writer=*/true);
  }
  uint64_t answers = 0;
  for (auto _ : state) {
    answers += RunOnce(g_load_world->statement(), /*parallelism=*/2);
  }
  state.SetItemsProcessed(static_cast<int64_t>(answers));
  if (state.thread_index() == 0) {
    delete g_load_world;
    g_load_world = nullptr;
  }
}
BENCHMARK(BM_E18_MultiQueryLoad)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql
