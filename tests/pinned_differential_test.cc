#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "rdf/graph.h"
#include "sparql/semantics.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Query execution over one pinned ReadView: the differential and
/// stress harness. The core property under test is that a pin freezes
/// the answer set — checked on every randomly generated case:
///
///   indexed before the writes  ==  indexed across the writes
///                              ==  naive-hash oracle after the writes,
///
/// all bound to the same `Snapshot` while a mutation stream churns the
/// database around them (the naive oracle reads the same pinned view, so
/// it too reads frozen state — that is what makes the comparison
/// meaningful under a live writer).
///
/// The suite runs under ThreadSanitizer in CI (the `tsan` job's regex
/// includes it): assertions are differential, never timing based, and
/// reader-thread failures are counted into atomics and asserted on the
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

TEST(PinnedDifferentialTest, IndexedMatchesNaiveOracleUnderChurn) {
  constexpr int kCases = 200;
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

    ExecOptions exec;
    // Small check intervals on some cases: more interruption checks.
    exec.check_interval = rng.NextBernoulli(0.3) ? 4 : 64;
    Cursor cursor = stmt.Execute(snap, exec);
    std::vector<std::string> got;
    // Mutation interleaving step 2: mutate and compact *while* the
    // cursor is live, between the first pull and the drain of the
    // remaining rows.
    if (cursor.Next()) {
      got.push_back(cursor.Row().ToString(pool));
      db.AddTriple("churn-s" + std::to_string(seed), "p0", "churn-o");
      db.Compact();
      while (cursor.Next()) got.push_back(cursor.Row().ToString(pool));
    }
    EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
    std::sort(got.begin(), got.end());
    EXPECT_EQ(expected, got) << "mid-drain writes leaked into the pinned run";
  }
}

// ---------------------------------------------------------------------
// Stress: many reader cursors vs a live writer and Compact.
// ---------------------------------------------------------------------

TEST(PinnedStressTest, ReadersAgainstLiveWriterAndCompact) {
  TermPool pool;
  DatabaseOptions dopts;
  // Merge churn: budget merges while loading, then the writer's
  // Compact calls replace the base runs mid-flight.
  dopts.merge_threshold = 16;
  Database db(&pool, dopts);
  Rng rng(0xe18a);
  for (int i = 0; i < 160; ++i) {
    db.AddTriple("n" + std::to_string(rng.NextBounded(24)), "p0",
                 "n" + std::to_string(rng.NextBounded(24)));
    db.AddTriple("n" + std::to_string(rng.NextBounded(24)), "p1",
                 "n" + std::to_string(rng.NextBounded(24)));
  }
  EXPECT_GE(db.metrics().counter("store.compactions").value(), 1u);
  Statement stmt = db.OpenSession().Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(stmt.ok());
  SessionOptions naive_opts;
  naive_opts.backend = Backend::kNaiveHash;
  Statement oracle =
      db.OpenSession(naive_opts).Prepare("((?x p0 ?y) AND (?y p1 ?z))");
  ASSERT_TRUE(oracle.ok());
  Snapshot snap = db.GetSnapshot();
  const std::vector<std::string> expected = DrainSorted(stmt.Execute(snap), pool);
  ASSERT_FALSE(expected.empty());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> bad_states{0};

  // One writer: inserts, removals, periodic Compact — every publish and
  // base-run replacement races the live reader cursors below.
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

  // Four reader threads, each repeatedly running an execution bound to
  // the shared snapshot (and occasionally to a fresh snapshot, checked
  // against the naive oracle on that same pin).
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int iter = 0; iter < 6; ++iter) {
        Cursor::State state = Cursor::State::kUnopened;
        if (iter % 3 == 2) {
          // Fresh pin: indexed vs the oracle on the same new snapshot.
          Snapshot fresh = db.GetSnapshot();
          std::vector<std::string> naive =
              DrainSorted(oracle.Execute(fresh), pool);
          std::vector<std::string> got =
              DrainSorted(stmt.Execute(fresh), pool, &state);
          if (got != naive) mismatches.fetch_add(1);
          if (state != Cursor::State::kExhausted) bad_states.fetch_add(1);
        } else {
          std::vector<std::string> got =
              DrainSorted(stmt.Execute(snap), pool, &state);
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
// after a bounded amount of candidate work.
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

TEST(EarlyExitTest, RowLimitOneStopsAfterBoundedWorkSerially) {
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

// ---------------------------------------------------------------------
// Cross-tree dedup: the record of a UNION with overlapping arms.
// ---------------------------------------------------------------------

TEST(UnionDedupTest, UnionOverlapsRejectDuplicatesAndBreakdownSumsToTotals) {
  // UNIONs whose later tree re-derives answers of the earlier one. The
  // enumerator rejects such a mapping by testing it against the
  // earlier tree's witness subtree, so each answer is delivered once,
  // with the expected `dedup_rejected`; the breakdown sums to the
  // totals, every assembled mapping has exactly one verdict, every child
  // search one outcome, and the registry merged exactly the record's
  // totals.
  TermPool pool;
  Database db(&pool);
  uint64_t p2_rows = 0, p3_rows = 0, both_rows = 0;
  for (int i = 0; i < 64; ++i) {
    for (int j = 0; j < 4; ++j) {
      const std::string a = "a" + std::to_string(i), m = "m" + std::to_string(j);
      db.AddTriple(a, "p0", m);
      // Back edges for the cyclic arms: p2 on even i + j, p3 on i + j
      // divisible by 3.
      if ((i + j) % 2 == 0) {
        db.AddTriple(m, "p2", a);
        ++p2_rows;
      }
      if ((i + j) % 3 == 0) {
        db.AddTriple(m, "p3", a);
        ++p3_rows;
      }
      if ((i + j) % 6 == 0) ++both_rows;
    }
  }
  db.AddTriple("m0", "p1", "b0");
  db.AddTriple("m2", "p1", "b2");

  struct Case {
    const char* pattern;
    uint64_t rows;
    uint64_t dedup_rejected;
  };
  const Case cases[] = {
      // Identical arms: every row of the second tree is a duplicate.
      {"(?x p0 ?y) UNION (?x p0 ?y)", 256, 256},
      // The first tree's witness has an OPT child: rows whose ?y has a
      // p1 edge (m0, m2) are extended there, so the second tree emits
      // them; the other 128 are duplicates.
      {"((?x p0 ?y) OPT (?y p1 ?z)) UNION (?x p0 ?y)", 384, 128},
      // Arms that differ in one triple: the witness's residual (?y p2 ?x)
      // decides.
      {"((?x p0 ?y) AND (?y p2 ?x)) UNION ((?x p0 ?y) AND (?y p3 ?x))",
       p2_rows + p3_rows - both_rows, both_rows},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pattern);
    Statement stmt = db.OpenSession().Prepare(c.pattern);
    ASSERT_TRUE(stmt.ok());
    MetricsRegistry& metrics = db.metrics();
    const uint64_t candidates_before = metrics.counter("query.candidates").value();
    const uint64_t tests_before = metrics.counter("query.maximality_tests").value();
    ExecOptions exec;
    exec.collect_stats = true;
    Cursor cursor = stmt.Execute(exec);
    std::vector<std::string> rows;
    while (cursor.Next()) rows.push_back(cursor.Row().ToString(pool));
    std::sort(rows.begin(), rows.end());
    ASSERT_EQ(cursor.state(), Cursor::State::kExhausted);
    ASSERT_NE(cursor.stats(), nullptr);
    const ExecStats& stats = *cursor.stats();
    EXPECT_EQ(rows.size(), c.rows);
    EXPECT_EQ(std::adjacent_find(rows.begin(), rows.end()), rows.end());
    EXPECT_EQ(stats.rows_emitted, rows.size());
    EXPECT_EQ(stats.dedup_rejected, c.dedup_rejected);

    uint64_t candidates = 0, dedup = 0, non_maximal = 0, tests = 0, sub_rows = 0;
    uint64_t child_searches = 0;
    for (const ExecStats::Subpattern& sub : stats.subpatterns) {
      candidates += sub.candidates;
      dedup += sub.dedup_rejected;
      non_maximal += sub.non_maximal;
      tests += sub.maximality_tests;
      sub_rows += sub.rows;
      if (sub.node != 0) {
        child_searches += sub.maximality_tests;
        continue;
      }
      // A root entry carries its tree's verdicts; the first tree has no
      // earlier one to test against. Every root row of these trees is
      // one assembled mapping: emitted or a duplicate.
      if (sub.tree == 0) EXPECT_EQ(sub.dedup_rejected, 0u);
      if (sub.tree == 0) EXPECT_EQ(sub.maximality_tests, 0u);
      EXPECT_EQ(sub.candidates, sub.rows + sub.dedup_rejected);
    }
    EXPECT_EQ(candidates, stats.candidates);
    EXPECT_EQ(dedup, stats.dedup_rejected);
    EXPECT_EQ(non_maximal, stats.non_maximal);
    EXPECT_EQ(tests, stats.maximality_tests);
    EXPECT_EQ(sub_rows, stats.rows_emitted);
    // Every child search finds a row or none.
    EXPECT_EQ(child_searches, stats.non_maximal + stats.empty_subpatterns);

    EXPECT_EQ(metrics.counter("query.candidates").value() - candidates_before,
              stats.candidates);
    EXPECT_EQ(metrics.counter("query.maximality_tests").value() - tests_before,
              stats.maximality_tests);
  }
}

// ---------------------------------------------------------------------
// Branching forests: trees of depth >= 3 with nodes of >= 2 OPT
// children, and UNIONs of them, on every backend against the set
// semantics; row limits and interruptions stop in the middle of a tree.
// ---------------------------------------------------------------------

/// Rendered rows of one execution in delivery order, at most `max_rows`.
std::vector<std::string> DrainInOrder(Cursor* cursor, const TermPool& pool,
                                      std::size_t max_rows = SIZE_MAX) {
  std::vector<std::string> out;
  while (out.size() < max_rows && cursor->Next()) {
    out.push_back(cursor->Row().ToString(pool));
  }
  return out;
}

TEST(BranchingForestDifferentialTest, BackendsMatchTheSetSemanticsAndStopMidTree) {
  constexpr int kCases = 150;
  ExecStats total;
  uint64_t multi_node_answers = 0;
  for (int seed = 0; seed < kCases; ++seed) {
    SCOPED_TRACE("case seed=" + std::to_string(seed));
    Rng rng(static_cast<uint64_t>(seed) * 0x9e3779b9u + 0xb7a);
    TermPool pool;
    PatternPtr pattern =
        testlib::RandomBranchingUnion(&rng, &pool, 1 + static_cast<int>(rng.NextBounded(3)));
    RdfGraph graph(&pool);
    // Sparse enough that the answers stay in the thousands.
    testlib::SmallWorkloadGraph(&rng, 7 + static_cast<int>(rng.NextBounded(3)),
                                16 + static_cast<int>(rng.NextBounded(8)), 3, &graph);
    Database db(&pool);
    testlib::LoadGraph(graph, &db);
    std::vector<std::string> expected;
    for (const Mapping& mu : Evaluate(*pattern, graph)) {
      expected.push_back(mu.ToString(pool));
      if (mu.size() > 2) ++multi_node_answers;
    }
    std::sort(expected.begin(), expected.end());

    SessionOptions naive;
    naive.backend = Backend::kNaiveHash;
    SessionOptions promise = naive;
    promise.pebble_promise = 1;
    ExecStats reference;
    for (const SessionOptions& options : {SessionOptions{}, naive, promise}) {
      SCOPED_TRACE(std::string(BackendToString(options.backend)) +
                   " promise=" + std::to_string(options.pebble_promise));
      Statement stmt = db.OpenSession(options).PrepareParsed(pattern);
      ASSERT_TRUE(stmt.ok()) << stmt.diagnostics().ToString();
      ExecOptions collect;
      collect.collect_stats = true;
      Cursor full_cursor = stmt.Execute(collect);
      const std::vector<std::string> full = DrainInOrder(&full_cursor, pool);
      ASSERT_EQ(full_cursor.state(), Cursor::State::kExhausted);
      std::vector<std::string> sorted = full;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(sorted, expected);  // Each answer once, none missing.
      // The walk is the same on every backend: the same rows pulled, the
      // same searches, the same verdicts.
      const ExecStats& stats = *full_cursor.stats();
      if (options.backend == Backend::kIndexed) {
        reference = stats;
        total.dedup_rejected += stats.dedup_rejected;
        total.non_maximal += stats.non_maximal;
        total.empty_subpatterns += stats.empty_subpatterns;
      } else {
        EXPECT_EQ(stats.candidates, reference.candidates);
        EXPECT_EQ(stats.maximality_tests, reference.maximality_tests);
        EXPECT_EQ(stats.non_maximal, reference.non_maximal);
        EXPECT_EQ(stats.dedup_rejected, reference.dedup_rejected);
      }
      if (full.empty()) continue;

      // A row limit delivers a prefix of the full run, wherever in a
      // tree it falls.
      ExecOptions limited;
      limited.row_limit = 1 + rng.NextBounded(full.size());
      Cursor limited_cursor = stmt.Execute(limited);
      const std::vector<std::string> prefix = DrainInOrder(&limited_cursor, pool);
      EXPECT_EQ(limited_cursor.state(), Cursor::State::kLimited);
      EXPECT_EQ(prefix, std::vector<std::string>(full.begin(),
                                                 full.begin() + prefix.size()));
      EXPECT_EQ(prefix.size(), std::min<std::size_t>(limited.row_limit, full.size()));

      // A probe consulted at every step resumes the walk where it
      // stopped until it fires; the rows before it are a prefix too.
      auto cancel = std::make_shared<std::atomic<bool>>(false);
      ExecOptions interruptible;
      interruptible.cancel = cancel;
      interruptible.check_interval = 1;
      Cursor cancelled_cursor = stmt.Execute(interruptible);
      std::vector<std::string> before =
          DrainInOrder(&cancelled_cursor, pool, rng.NextBounded(full.size()));
      cancel->store(true);
      EXPECT_FALSE(cancelled_cursor.Next());
      EXPECT_EQ(cancelled_cursor.state(), Cursor::State::kCancelled);
      EXPECT_EQ(before, std::vector<std::string>(full.begin(), full.begin() + before.size()));
    }
  }
  // The sweep reaches every verdict: children that extend and children
  // that do not, answers over several nodes, duplicates across trees.
  EXPECT_GT(total.non_maximal, 0u);
  EXPECT_GT(total.empty_subpatterns, 0u);
  EXPECT_GT(total.dedup_rejected, 0u);
  EXPECT_GT(multi_node_answers, 0u);
}

}  // namespace
}  // namespace wdsparql
