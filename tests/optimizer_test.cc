#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "engine/api_internal.h"
#include "storage/snapshot.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the cost-based optimizer: the differential property (the
/// chosen variable order must never change the answer set — optimized,
/// heuristic and naive-oracle runs agree on every random case),
/// statistics persistence round trips through the
/// snapshot, the legacy (version 1, stats-less) open-and-rebuild path,
/// and plan choice itself on deliberately skewed data.

namespace wdsparql {
namespace {

std::string FreshPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "wdsparql_optimizer_" + name;
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  return path;
}

/// Sorted rendered solutions of one execution.
std::vector<std::string> DrainSorted(Cursor cursor, const TermPool& pool) {
  std::vector<std::string> out;
  while (cursor.Next()) out.push_back(cursor.Row().ToString(pool));
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  std::sort(out.begin(), out.end());
  return out;
}

/// The first subpattern plan line of a stats-collecting run, or "" when
/// the optimizer chose no plan anywhere in the forest.
std::string FirstPlan(const ExecStats& stats) {
  for (const ExecStats::Subpattern& sub : stats.subpatterns) {
    if (sub.est_rows >= 0) return sub.plan;
  }
  return std::string();
}

// ---------------------------------------------------------------------
// Randomized differential property: >= 200 generated cases, each run
// three ways — optimized, heuristic and the naive oracle — over a store
// whose stats deliberately lag a pending delta.
// ---------------------------------------------------------------------

TEST(OptimizerDifferentialTest, OptimizedMatchesHeuristicAndNaiveAcrossSeeds) {
  constexpr int kCases = 200;
  for (int seed = 0; seed < kCases; ++seed) {
    SCOPED_TRACE("case seed=" + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b9u + 0xe19);
    TermPool pool;
    DatabaseOptions dopts;
    dopts.merge_threshold = 4 + rng.NextBounded(24);
    Database db(&pool, dopts);

    testlib::RandomPatternOptions popts;
    popts.max_depth = 2;
    popts.num_predicates = 3;
    PatternPtr pattern = testlib::RandomWellDesignedPattern(&rng, &pool, popts);
    RdfGraph staged(&pool);
    testlib::SmallWorkloadGraph(&rng, 6, 24 + static_cast<int>(rng.NextBounded(16)),
                                3, &staged);
    std::vector<Triple> triples = staged.triples().triples();

    // Load a prefix, force a merge (builds the statistics), then land
    // the suffix in the delta: the planner costs from base-only counts
    // while execution answers over base + delta — estimates may be off,
    // answers must not be.
    std::size_t prefix = triples.size() / 2 + rng.NextBounded(triples.size() / 4 + 1);
    for (std::size_t i = 0; i < prefix; ++i) db.AddTriple(triples[i]);
    db.Compact();
    for (std::size_t i = prefix; i < triples.size(); ++i) db.AddTriple(triples[i]);

    Statement stmt = db.OpenSession().PrepareParsed(pattern);
    ASSERT_TRUE(stmt.ok()) << stmt.diagnostics().ToString();
    SessionOptions naive_opts;
    naive_opts.backend = Backend::kNaiveHash;
    Statement oracle = db.OpenSession(naive_opts).PrepareParsed(pattern);
    ASSERT_TRUE(oracle.ok()) << oracle.diagnostics().ToString();

    ExecOptions heuristic;
    heuristic.optimize = false;
    const std::vector<std::string> expected =
        DrainSorted(stmt.Execute(heuristic), pool);

    EXPECT_EQ(expected, DrainSorted(oracle.Execute(), pool))
        << "naive oracle diverged from the heuristic indexed run";
    EXPECT_EQ(expected, DrainSorted(stmt.Execute(), pool))
        << "optimized run changed the answer set";
  }
}

// ---------------------------------------------------------------------
// Opt-out contract: optimize=false must not consult the planner at all.
// ---------------------------------------------------------------------

TEST(OptimizerOptOutTest, OptimizeFalseReportsNoPlansAndNoPlanningTime) {
  TermPool pool;
  Database db(&pool);
  for (int i = 0; i < 32; ++i) {
    db.AddTriple("a" + std::to_string(i), "p0", "b" + std::to_string(i % 4));
    db.AddTriple("b" + std::to_string(i % 4), "p1", "c" + std::to_string(i));
  }
  db.Compact();
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());

  ExecOptions exec;
  exec.collect_stats = true;
  exec.optimize = false;
  Cursor cursor = stmt.Execute(exec);
  while (cursor.Next()) {
  }
  ASSERT_NE(cursor.stats(), nullptr);
  EXPECT_EQ(cursor.stats()->optimize_ns, 0u);
  EXPECT_EQ(cursor.stats()->est_cost, 0.0);
  for (const ExecStats::Subpattern& sub : cursor.stats()->subpatterns) {
    EXPECT_LT(sub.est_rows, 0) << "plan reported despite optimize=false";
    EXPECT_TRUE(sub.plan.empty());
  }

  // And with the planner on, the same query reports a plan + metrics.
  const uint64_t plans_before = db.metrics().counter("optimizer.plans").value();
  ExecOptions on;
  on.collect_stats = true;
  Cursor planned = stmt.Execute(on);
  while (planned.Next()) {
  }
  ASSERT_NE(planned.stats(), nullptr);
  EXPECT_FALSE(FirstPlan(*planned.stats()).empty());
  EXPECT_GT(planned.stats()->est_cost, 0.0);
  EXPECT_GT(db.metrics().counter("optimizer.plans").value(), plans_before);
  EXPECT_GT(db.metrics().histogram("optimizer.plan_ns").count(), 0u);
}

// ---------------------------------------------------------------------
// Statistics round trip: Save -> Open serves identical answers AND
// identical plans (the persisted counts are the builder's, exactly).
// ---------------------------------------------------------------------

TEST(OptimizerPersistenceTest, StatsRoundTripThroughSnapshot) {
  std::string path = FreshPath("roundtrip.snap");
  TermPool pool;
  Database db(&pool);
  Rng rng(0xe19b);
  RdfGraph staged(&pool);
  testlib::SmallWorkloadGraph(&rng, 10, 120, 3, &staged);
  for (const Triple& t : staged.triples()) db.AddTriple(t);
  ASSERT_TRUE(db.Save(path).ok());

  const char* const kQuery = "((?x p0 ?y) AND (?y p1 ?z)) OPT (?z p2 ?w)";
  Statement stmt = db.OpenSession().Prepare(kQuery);
  ASSERT_TRUE(stmt.ok());
  ExecOptions exec;
  exec.collect_stats = true;
  Cursor original = stmt.Execute(exec);
  std::vector<std::string> expected;
  while (original.Next()) expected.push_back(original.Row().ToString(pool));
  std::sort(expected.begin(), expected.end());
  ASSERT_NE(original.stats(), nullptr);
  const std::string original_plan = FirstPlan(*original.stats());
  ASSERT_FALSE(original_plan.empty()) << "saved database chose no plan";

  Result<Database> reopened = Database::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Statement restmt = reopened->OpenSession().Prepare(kQuery);
  ASSERT_TRUE(restmt.ok());
  Cursor cursor = restmt.Execute(exec);
  std::vector<std::string> got;
  while (cursor.Next()) got.push_back(cursor.Row().ToString(reopened->pool()));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(expected, got);
  ASSERT_NE(cursor.stats(), nullptr);
  // The reopened database plans from the mmapped statistics sections —
  // no Compact has run, so a plan here proves the borrow works — and
  // the persisted counts are the builder's, so the plan is identical.
  EXPECT_EQ(FirstPlan(*cursor.stats()), original_plan);
}

// ---------------------------------------------------------------------
// Legacy snapshots: a version-1 (stats-less) file opens and serves;
// the first Compact rebuilds the statistics and turns the planner on.
// ---------------------------------------------------------------------

TEST(OptimizerPersistenceTest, LegacySnapshotOpensAndRebuildsStatsOnCompact) {
  std::string path = FreshPath("legacy.snap");
  TermPool pool;
  Database db(&pool);
  Rng rng(0xe19c);
  RdfGraph staged(&pool);
  testlib::SmallWorkloadGraph(&rng, 8, 80, 3, &staged);
  for (const Triple& t : staged.triples()) db.AddTriple(t);
  db.Compact();  // WriteSnapshot requires a merged delta.

  // The legacy writer path: a version-1 file without the six
  // statistics sections, byte-compatible with pre-optimizer snapshots.
  const DatabaseImpl& impl = DatabaseImpl::Get(db);
  ASSERT_TRUE(
      storage::WriteSnapshot(path, *impl.pool, impl.store, /*include_stats=*/false)
          .ok());

  const char* const kQuery = "((?x p0 ?y) AND (?y p1 ?z))";
  Statement stmt = db.OpenSession().Prepare(kQuery);
  ASSERT_TRUE(stmt.ok());
  const std::vector<std::string> expected = DrainSorted(stmt.Execute(), pool);

  Result<Database> opened = Database::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  Database odb = std::move(opened).value();
  Statement restmt = odb.OpenSession().Prepare(kQuery);
  ASSERT_TRUE(restmt.ok());

  // Before any Compact: no statistics, so queries run on the heuristic
  // order — correct answers, no plan reported.
  ExecOptions exec;
  exec.collect_stats = true;
  Cursor before = restmt.Execute(exec);
  std::vector<std::string> got;
  while (before.Next()) got.push_back(before.Row().ToString(odb.pool()));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(expected, got);
  ASSERT_NE(before.stats(), nullptr);
  EXPECT_TRUE(FirstPlan(*before.stats()).empty())
      << "legacy snapshot reported a plan before any statistics existed";

  // Compact rebuilds the statistics over the borrowed base (counted by
  // the rebuild metric) and the planner engages.
  const uint64_t rebuilds_before =
      odb.metrics().counter("optimizer.stats_rebuilds").value();
  odb.Compact();
  EXPECT_GT(odb.metrics().counter("optimizer.stats_rebuilds").value(),
            rebuilds_before);

  Cursor after = restmt.Execute(exec);
  got.clear();
  while (after.Next()) got.push_back(after.Row().ToString(odb.pool()));
  std::sort(got.begin(), got.end());
  EXPECT_EQ(expected, got);
  ASSERT_NE(after.stats(), nullptr);
  EXPECT_FALSE(FirstPlan(*after.stats()).empty())
      << "no plan after the statistics rebuild";
}

// ---------------------------------------------------------------------
// Plan choice on skewed data: the optimizer must start the descent at
// the selective side regardless of how the pattern is written.
// ---------------------------------------------------------------------

/// 400 (a_i p1 b_i) rows against a single (b7 p2 c): binding ?y via the
/// p2 conjunct first touches one row; binding ?x first scans all 400.
void BuildSkewed(Database* db) {
  for (int i = 0; i < 400; ++i) {
    db->AddTriple("a" + std::to_string(i), "p1", "b" + std::to_string(i));
  }
  db->AddTriple("b7", "p2", "c");
  db->Compact();
}

TEST(OptimizerPlanChoiceTest, SelectiveConjunctDrivesTheOrder) {
  TermPool pool;
  Database db(&pool);
  // 400 matches of (?x p1 o) against one match of (?z p2 q). The two
  // conjuncts tie on the heuristic's pattern count, so the heuristic
  // binds ?x (first occurrence) first and re-scans the p2 range once
  // per p1 row; the statistics break the tie the right way round.
  for (int i = 0; i < 400; ++i) {
    db.AddTriple("a" + std::to_string(i), "p1", "o");
  }
  db.AddTriple("z0", "p2", "q");
  db.Compact();

  Statement stmt = db.OpenSession().Prepare("((?x p1 o) AND (?z p2 q))");
  ASSERT_TRUE(stmt.ok());
  ExecOptions exec;
  exec.collect_stats = true;
  Cursor cursor = stmt.Execute(exec);
  std::vector<std::string> rows;
  while (cursor.Next()) rows.push_back(cursor.Row().ToString(pool));
  ASSERT_EQ(rows.size(), 400u);
  ASSERT_NE(cursor.stats(), nullptr);
  const std::string plan = FirstPlan(*cursor.stats());
  EXPECT_EQ(plan.rfind("order=[?z ?x]", 0), 0u)
      << "expected the selective variable first, got: " << plan;

  // Same query under optimize=false pays the unselective order: the
  // answer set is identical, the scan volume is not.
  ExecOptions heuristic;
  heuristic.collect_stats = true;
  heuristic.optimize = false;
  Cursor hc = stmt.Execute(heuristic);
  std::vector<std::string> hrows;
  while (hc.Next()) hrows.push_back(hc.Row().ToString(pool));
  std::sort(rows.begin(), rows.end());
  std::sort(hrows.begin(), hrows.end());
  EXPECT_EQ(rows, hrows);
  ASSERT_NE(hc.stats(), nullptr);
  EXPECT_LT(cursor.stats()->base_triples_scanned, hc.stats()->base_triples_scanned)
      << "optimized order did not reduce scan work on skewed data";
}

TEST(OptimizerPlanChoiceTest, AlreadySelectiveOrderIsKept) {
  TermPool pool;
  Database db(&pool);
  BuildSkewed(&db);

  // Written selective-side first: the optimizer should agree with the
  // textual order, not churn it.
  Statement stmt = db.OpenSession().Prepare("((?y p2 c) AND (?x p1 ?y))");
  ASSERT_TRUE(stmt.ok());
  ExecOptions exec;
  exec.collect_stats = true;
  Cursor cursor = stmt.Execute(exec);
  uint64_t n = 0;
  while (cursor.Next()) ++n;
  EXPECT_EQ(n, 1u);
  ASSERT_NE(cursor.stats(), nullptr);
  const std::string plan = FirstPlan(*cursor.stats());
  EXPECT_EQ(plan.rfind("order=[?y ?x]", 0), 0u) << plan;
}

TEST(OptimizerPlanChoiceTest, EstimatesAreExactWithoutPendingDelta) {
  TermPool pool;
  Database db(&pool);
  // A clean star: 16 subjects, each with p0 -> one of 4 objects.
  for (int i = 0; i < 16; ++i) {
    db.AddTriple("s" + std::to_string(i), "p0", "o" + std::to_string(i % 4));
  }
  db.Compact();
  Statement stmt = db.OpenSession().Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());
  ExecOptions exec;
  exec.collect_stats = true;
  Cursor cursor = stmt.Execute(exec);
  uint64_t n = 0;
  while (cursor.Next()) ++n;
  EXPECT_EQ(n, 16u);
  ASSERT_NE(cursor.stats(), nullptr);
  ASSERT_FALSE(cursor.stats()->subpatterns.empty());
  const ExecStats::Subpattern& sub = cursor.stats()->subpatterns.front();
  // One conjunct, one constant (p0): the estimate is the exact P-count.
  EXPECT_EQ(sub.est_rows, 16.0);
}

}  // namespace
}  // namespace wdsparql
