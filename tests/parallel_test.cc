#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "rdf/graph.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Parallel query execution over one pinned ReadView: the differential
/// and stress harness. The core property under test is semantic
/// transparency — `ExecOptions::parallelism` must never change the
/// delivered solution *set*, only how many threads produce it — checked
/// three ways on every randomly generated case:
///
///   serial indexed  ==  parallel indexed (1/2/4/8 workers)
///                   ==  naive-hash oracle,
///
/// all bound to the same `Snapshot` while a mutation stream churns the
/// database around them (the naive oracle reads the same pinned view, so
/// it too reads frozen state — that is what makes the three-way
/// comparison meaningful under a live writer).
///
/// The suite runs under ThreadSanitizer in CI (the `tsan` job's regex
/// includes it): assertions are differential, never timing based, and
/// worker-thread failures are counted into atomics and asserted on the
/// main thread.

namespace wdsparql {
namespace {

/// Sorted rendered solutions of one execution; optionally reports the
/// cursor's final state.
std::vector<std::string> DrainSorted(Cursor cursor, const TermPool& pool,
                                     Cursor::State* final_state = nullptr) {
  std::vector<std::string> out;
  while (cursor.Next()) out.push_back(cursor.Row().ToString(pool));
  if (final_state != nullptr) *final_state = cursor.state();
  std::sort(out.begin(), out.end());
  return out;
}

// ---------------------------------------------------------------------
// Randomized differential property: ~200 generated
// (pattern, dataset, mutation-interleaving) cases.
// ---------------------------------------------------------------------

TEST(ParallelDifferentialTest, ParallelMatchesSerialAndNaiveOracleUnderChurn) {
  constexpr int kCases = 200;
  constexpr uint32_t kWorkerCounts[] = {1, 2, 4, 8};
  for (int seed = 0; seed < kCases; ++seed) {
    SCOPED_TRACE("case seed=" + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b9u + 0xe18);
    TermPool pool;
    DatabaseOptions dopts;
    // Vary the merge threshold so cases exercise different delta/base
    // shapes (including mid-case merges triggered by the churn below).
    dopts.merge_threshold = 4 + rng.NextBounded(24);
    Database db(&pool, dopts);

    // One random well-designed pattern and one random dataset per case.
    testlib::RandomPatternOptions popts;
    popts.max_depth = 2;
    popts.num_predicates = 3;
    PatternPtr pattern = testlib::RandomWellDesignedPattern(&rng, &pool, popts);
    RdfGraph staged(&pool);
    testlib::SmallWorkloadGraph(&rng, 6, 24 + static_cast<int>(rng.NextBounded(16)),
                                3, &staged);
    std::vector<Triple> triples = staged.triples().triples();

    // Load a prefix, snapshot, then keep mutating: the suffix plus random
    // removals land *after* the pin, so every execution below must see
    // exactly the prefix state however the interleaving continues.
    std::size_t prefix = triples.size() / 2 + rng.NextBounded(triples.size() / 4 + 1);
    for (std::size_t i = 0; i < prefix; ++i) db.AddTriple(triples[i]);

    Statement stmt = db.OpenSession().PrepareParsed(pattern);
    ASSERT_TRUE(stmt.ok()) << stmt.diagnostics().ToString();
    SessionOptions naive_opts;
    naive_opts.backend = Backend::kNaiveHash;
    Statement oracle = db.OpenSession(naive_opts).PrepareParsed(pattern);
    ASSERT_TRUE(oracle.ok()) << oracle.diagnostics().ToString();

    Snapshot snap = db.GetSnapshot();
    Cursor::State state = Cursor::State::kUnopened;
    std::vector<std::string> expected = DrainSorted(stmt.Execute(snap), pool, &state);
    ASSERT_EQ(state, Cursor::State::kExhausted);

    // Mutation interleaving step 1: the rest of the dataset plus some
    // removals of rows the snapshot CAN see — if any backend leaks live
    // state, the comparisons below diverge.
    {
      WriteBatch batch;
      for (std::size_t i = prefix; i < triples.size(); ++i) {
        batch.Add(pool, triples[i]);
      }
      for (int r = 0; r < 4 && prefix > 0; ++r) {
        batch.Remove(pool, triples[rng.NextBounded(prefix)]);
      }
      ASSERT_TRUE(db.Apply(std::move(batch)).ok());
    }

    EXPECT_EQ(expected, DrainSorted(oracle.Execute(snap), pool))
        << "naive oracle diverged from the pinned serial run";

    for (uint32_t workers : kWorkerCounts) {
      SCOPED_TRACE("workers=" + std::to_string(workers));
      ExecOptions exec;
      exec.parallelism = workers;
      // Small check intervals on some cases: more claim/stop traffic.
      exec.check_interval = rng.NextBernoulli(0.3) ? 4 : 64;
      Cursor cursor = stmt.Execute(snap, exec);
      std::vector<std::string> got;
      // Mutation interleaving step 2: mutate and compact *while* the
      // parallel worker pool is live, between the first pull and the
      // drain of the remaining rows.
      if (cursor.Next()) {
        got.push_back(cursor.Row().ToString(pool));
        db.AddTriple("churn-s" + std::to_string(seed), "p0",
                     "churn-o" + std::to_string(workers));
        if (workers == 4) db.Compact();
        while (cursor.Next()) got.push_back(cursor.Row().ToString(pool));
      }
      EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
      std::sort(got.begin(), got.end());
      EXPECT_EQ(expected, got) << "parallel run diverged from serial";
    }
  }
}

// ---------------------------------------------------------------------
// Stress: many parallel-query cursors vs a live writer and Compact.
// ---------------------------------------------------------------------

TEST(ParallelStressTest, ParallelCursorsAgainstLiveWriterAndCompact) {
  TermPool pool;
  DatabaseOptions dopts;
  dopts.merge_threshold = 16;  // Merge churn mid-flight.
  Database db(&pool, dopts);
  Rng rng(0xe18a);
  for (int i = 0; i < 160; ++i) {
    db.AddTriple("n" + std::to_string(rng.NextBounded(24)), "p0",
                 "n" + std::to_string(rng.NextBounded(24)));
    db.AddTriple("n" + std::to_string(rng.NextBounded(24)), "p1",
                 "n" + std::to_string(rng.NextBounded(24)));
  }
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());
  Snapshot snap = db.GetSnapshot();
  const std::vector<std::string> expected = DrainSorted(stmt.Execute(snap), pool);
  ASSERT_FALSE(expected.empty());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> bad_states{0};

  // One writer: inserts, removals, periodic Compact — every publish and
  // base-run replacement races the live worker pools below.
  std::thread writer([&] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      WriteBatch batch;
      batch.Add("w" + std::to_string(i), "p0", "w" + std::to_string(i + 1));
      batch.Remove("w" + std::to_string(i / 2), "p0",
                   "w" + std::to_string(i / 2 + 1));
      (void)db.Apply(std::move(batch));
      if (++i % 8 == 0) db.Compact();
    }
  });

  // Four reader threads, each repeatedly running a *parallel* execution
  // bound to the shared snapshot (and occasionally to a fresh snapshot,
  // checked against its own serial run).
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      for (int iter = 0; iter < 6; ++iter) {
        ExecOptions exec;
        exec.parallelism = 2 + static_cast<uint32_t>((t + iter) % 3) * 2;
        Cursor::State state = Cursor::State::kUnopened;
        if (iter % 3 == 2) {
          // Fresh pin: parallel vs serial on the same new snapshot.
          Snapshot fresh = db.GetSnapshot();
          std::vector<std::string> serial =
              DrainSorted(stmt.Execute(fresh), pool);
          std::vector<std::string> par =
              DrainSorted(stmt.Execute(fresh, exec), pool, &state);
          if (par != serial) mismatches.fetch_add(1);
          if (state != Cursor::State::kExhausted) bad_states.fetch_add(1);
        } else {
          std::vector<std::string> got =
              DrainSorted(stmt.Execute(snap, exec), pool, &state);
          if (got != expected) mismatches.fetch_add(1);
          if (state != Cursor::State::kExhausted) bad_states.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(bad_states.load(), 0u);
}

// ---------------------------------------------------------------------
// Early-exit regression: row_limit=1 on a large enumeration must stop
// after a bounded amount of candidate work — serially and in parallel.
// ---------------------------------------------------------------------

/// A join with a large answer product: a_i -p0-> m_j -p1-> b_k gives
/// 32*4*32 = 4096 answers from 256 triples.
void BuildWideJoin(Database* db) {
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 4; ++j) {
      db->AddTriple("a" + std::to_string(i), "p0", "m" + std::to_string(j));
      db->AddTriple("m" + std::to_string(j), "p1", "b" + std::to_string(i));
    }
  }
}

TEST(ParallelEarlyExitTest, RowLimitOneStopsAfterBoundedWorkSerially) {
  TermPool pool;
  Database db(&pool);
  BuildWideJoin(&db);
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());

  // Establish the size of the full space (and that full runs count it).
  ExecOptions full;
  full.collect_stats = true;
  Cursor all = stmt.Execute(full);
  uint64_t total = 0;
  while (all.Next()) ++total;
  ASSERT_EQ(total, 4096u);
  ASSERT_NE(all.stats(), nullptr);
  const uint64_t full_candidates = all.stats()->candidates;
  ASSERT_GE(full_candidates, total);

  // row_limit=1: the serial engine generates candidates lazily, so the
  // first emitted row costs O(1) candidates — not a materialised
  // subtree batch. This is the regression guard for the suspendable
  // join: a batching engine would show ~4096 candidates here.
  ExecOptions exec;
  exec.row_limit = 1;
  exec.collect_stats = true;
  Cursor cursor = stmt.Execute(exec);
  ASSERT_TRUE(cursor.Next());
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.state(), Cursor::State::kLimited);
  ASSERT_NE(cursor.stats(), nullptr);
  EXPECT_LE(cursor.stats()->candidates, 4u);
  EXPECT_LT(cursor.stats()->values_probed, full_candidates / 4);
}

TEST(ParallelEarlyExitTest, RowLimitOneStopsWorkersWithinOneCheckInterval) {
  TermPool pool;
  Database db(&pool);
  BuildWideJoin(&db);
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());

  ExecOptions exec;
  exec.row_limit = 1;
  exec.parallelism = 4;
  exec.check_interval = 16;
  exec.collect_stats = true;
  Cursor cursor = stmt.Execute(exec);
  ASSERT_TRUE(cursor.Next());
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.state(), Cursor::State::kLimited);
  ASSERT_NE(cursor.stats(), nullptr);
  // Workers race ahead of the consumer by at most the queue capacity
  // plus one check interval each before the shutdown flag lands; the
  // bound below is ~4x that slack and ~4x below the full space — a
  // worker pool that ignored the stop flag would show ~4096.
  EXPECT_LT(cursor.stats()->candidates, 1500u);
}

TEST(ParallelEarlyExitTest, CancelTokenStopsParallelWorkersPromptly) {
  TermPool pool;
  Database db(&pool);
  BuildWideJoin(&db);
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());

  ExecOptions exec;
  exec.parallelism = 4;
  exec.check_interval = 16;
  exec.collect_stats = true;
  exec.cancel = MakeCancelToken();
  Cursor cursor = stmt.Execute(exec);
  ASSERT_TRUE(cursor.Next());
  exec.cancel->store(true);
  // The fired token beats any queued rows: the cursor refuses to keep
  // draining and reports the cancellation.
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.state(), Cursor::State::kCancelled);
  EXPECT_EQ(cursor.diagnostics().code, QueryDiagnostics::Code::kCancelled);
  ASSERT_NE(cursor.stats(), nullptr);
  EXPECT_LT(cursor.stats()->candidates, 1500u);
}

// ---------------------------------------------------------------------
// Mode interactions.
// ---------------------------------------------------------------------

TEST(ParallelModeTest, NaiveBackendIgnoresParallelismAndRunsSerially) {
  TermPool pool;
  Database db(&pool);
  BuildWideJoin(&db);
  SessionOptions opts;
  opts.backend = Backend::kNaiveHash;
  Statement stmt = db.OpenSession(opts).Prepare("(?x p0 ?y)");
  ASSERT_TRUE(stmt.ok());
  ExecOptions exec;
  exec.parallelism = 8;  // Documented: ignored on the naive backend.
  Cursor::State state = Cursor::State::kUnopened;
  std::vector<std::string> got = DrainSorted(stmt.Execute(exec), pool, &state);
  EXPECT_EQ(state, Cursor::State::kExhausted);
  EXPECT_EQ(got, DrainSorted(stmt.Execute(), pool));
}

TEST(ParallelModeTest, ParallelRunReportsMergedStats) {
  TermPool pool;
  Database db(&pool);
  BuildWideJoin(&db);
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());

  ExecOptions serial;
  serial.collect_stats = true;
  Cursor sc = stmt.Execute(serial);
  while (sc.Next()) {
  }
  ASSERT_NE(sc.stats(), nullptr);

  ExecOptions par;
  par.collect_stats = true;
  par.parallelism = 4;
  Cursor pc = stmt.Execute(par);
  uint64_t rows = 0;
  while (pc.Next()) ++rows;
  ASSERT_NE(pc.stats(), nullptr);
  EXPECT_EQ(rows, 4096u);
  EXPECT_EQ(pc.stats()->rows_emitted, 4096u);
  // Every answer was generated by exactly one worker (the root-claim
  // partitioning), so the merged candidate count matches the serial
  // run's — parallelism duplicates scan setup, never candidate work.
  EXPECT_EQ(pc.stats()->candidates, sc.stats()->candidates);
  // The per-subpattern breakdown survives the cross-worker re-merge.
  ASSERT_FALSE(pc.stats()->subpatterns.empty());
  uint64_t subpattern_candidates = 0;
  for (const ExecStats::Subpattern& sp : pc.stats()->subpatterns) {
    subpattern_candidates += sp.candidates;
  }
  EXPECT_EQ(subpattern_candidates, pc.stats()->candidates);
}

}  // namespace
}  // namespace wdsparql
