/// \file
/// Experiment E19: cost-based variable ordering vs the built-in
/// most-constrained-first heuristic, on a workload built to sit exactly
/// on the heuristic's blind spot.
///
/// Workload shapes:
///
///   BM_E19_BowtieSkew/<opt> — a "bowtie": two size-N fan classes
///     (x-side: `x_i p1 y_i` + `x_i pa ca` + `x_i pc cc`; y-side:
///     `y_i pb cb`) joined through a 4-row bridge (`y_j p2 q`, j < 4):
///
///       ((?x p1 ?y) AND (?x pa ca) AND (?x pc cc)
///                   AND (?y p2 q) AND (?y pb cb))
///
///     Both variables sit in exactly three conjuncts, so the
///     most-constrained-first heuristic is at a tie and its
///     deterministic tie-break binds ?x first: the join walks an N-row
///     x range and probes every value into the other two x conjuncts,
///     then walks one p1 triple per x at the ?y level — Theta(N) base
///     triples and probes for 4 answers. The planner sees from the
///     exact (p2, q) pair count that ?y has 4 candidate values and
///     binds it first: the 4 bridge rows plus one p1 triple per bridge
///     row, independent of N. `<opt>` is
///     `ExecOptions::optimize` (0 = heuristic, 1 = planned); the world
///     verifies once at startup that both modes return byte-identical
///     sorted answer sets.
///
///   BM_E19_PlanningOverhead/<opt> — a one-answer point lookup
///     (`(x0 p1 ?y)`) where the plan cannot beat the heuristic; what
///     remains is the per-cursor-open cost of running the DP at all.
///
/// Acceptance bars (documented here, asserted by eye against the JSON
/// this binary emits with --benchmark_format=json):
///
///   * BowtieSkew: optimize=1 executes the skewed join >= 3x faster
///     than optimize=0 with an identical answer set (the recorded run
///     shows ~two orders of magnitude — the gap is Theta(1) vs
///     Theta(N) scan volume, see the base_triples counters; CI gates
///     on heuristic base_triples >= 3x planned, a count that does not
///     depend on the runner's speed);
///   * PlanningOverhead: optimize=1 adds only a bounded, data-size-
///     independent per-open cost (~1us of DP on this library build) on
///     a point query that planning cannot improve — visible only
///     because the whole query is a few microseconds.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <vector>

#include "wdsparql/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

constexpr int kFanSize = 2048;
constexpr int kBridgeRows = 4;

/// Sorted rendered solutions of one execution.
std::vector<std::string> DrainSorted(Cursor cursor, const TermPool& pool) {
  std::vector<std::string> out;
  while (cursor.Next()) out.push_back(cursor.Row().ToString(pool));
  WDSPARQL_CHECK(cursor.state() == Cursor::State::kExhausted);
  std::sort(out.begin(), out.end());
  return out;
}

/// The shared world: the bowtie graph with statistics built (one
/// Compact after load), the two prepared statements, and a one-time
/// differential check that plans change cost, never answers.
class E19World {
 public:
  E19World() {
    std::string text;
    for (int i = 0; i < kFanSize; ++i) {
      const std::string x = "x" + std::to_string(i);
      const std::string y = "y" + std::to_string(i);
      text += x + " p1 " + y + " .\n";
      text += x + " pa ca .\n";
      text += x + " pc cc .\n";
      text += y + " pb cb .\n";
    }
    for (int j = 0; j < kBridgeRows; ++j) {
      text += "y" + std::to_string(j) + " p2 q .\n";
    }
    WDSPARQL_CHECK(db_.LoadNTriples(text).ok());
    db_.Compact();  // Merge -> cardinality stats.

    Session session = db_.OpenSession();
    bowtie_ = session.Prepare(
        "((?x p1 ?y) AND (?x pa ca) AND (?x pc cc)"
        " AND (?y p2 q) AND (?y pb cb))");
    WDSPARQL_CHECK(bowtie_.ok());
    point_ = session.Prepare("(x0 p1 ?y)");
    WDSPARQL_CHECK(point_.ok());

    ExecOptions heuristic;
    heuristic.optimize = false;
    const std::vector<std::string> expected =
        DrainSorted(bowtie_.Execute(heuristic), db_.pool());
    WDSPARQL_CHECK(expected.size() == static_cast<size_t>(kBridgeRows));
    WDSPARQL_CHECK(expected == DrainSorted(bowtie_.Execute(), db_.pool()));
  }

  const Statement& bowtie() const { return bowtie_; }
  const Statement& point() const { return point_; }

  /// Base triples scanned by one full drain under the given mode.
  uint64_t ScanVolume(const Statement& stmt, bool optimize) const {
    ExecOptions exec;
    exec.optimize = optimize;
    exec.collect_stats = true;
    Cursor cursor = stmt.Execute(exec);
    while (cursor.Next()) {
    }
    return cursor.stats()->base_triples_scanned;
  }

 private:
  mutable Database db_;
  Statement bowtie_;
  Statement point_;
};

uint64_t RunOnce(const Statement& stmt, bool optimize) {
  ExecOptions exec;
  exec.optimize = optimize;
  Cursor cursor = stmt.Execute(exec);
  uint64_t answers = 0;
  while (cursor.Next()) ++answers;
  return answers;
}

/// The skewed join at range(0) = ExecOptions::optimize.
void BM_E19_BowtieSkew(benchmark::State& state) {
  static E19World* world = nullptr;
  if (world == nullptr) world = new E19World;
  const bool optimize = state.range(0) != 0;
  uint64_t answers = 0;
  for (auto _ : state) {
    answers += RunOnce(world->bowtie(), optimize);
  }
  state.SetItemsProcessed(static_cast<int64_t>(answers));
  state.counters["base_triples"] =
      static_cast<double>(world->ScanVolume(world->bowtie(), optimize));
}
BENCHMARK(BM_E19_BowtieSkew)->Arg(0)->Arg(1)->UseRealTime()->Unit(
    benchmark::kMillisecond);

/// Fixed per-open planning cost on a query the plan cannot improve.
void BM_E19_PlanningOverhead(benchmark::State& state) {
  static E19World* world = nullptr;
  if (world == nullptr) world = new E19World;
  const bool optimize = state.range(0) != 0;
  uint64_t answers = 0;
  for (auto _ : state) {
    answers += RunOnce(world->point(), optimize);
  }
  state.SetItemsProcessed(static_cast<int64_t>(answers));
}
BENCHMARK(BM_E19_PlanningOverhead)
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wdsparql
