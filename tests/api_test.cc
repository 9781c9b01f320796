#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <set>
#include <vector>

#include "engine/api_internal.h"
#include "engine/dictionary.h"
#include "rdf/scan.h"
#include "rdf/generator.h"
#include "ptree/forest.h"
#include "ptree/semantics.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "sparql/semantics.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wdsparql/wdsparql.h"

/// \file
/// Tests of the public Database/Session/Cursor surface: mutation with
/// incremental index maintenance (differential against hash indexes),
/// cursor pause/resume, projection + duplicate elimination, structured
/// diagnostics, and miss-safe dictionary lookups.

namespace wdsparql {
namespace {

Database MakeSmallDatabase() {
  Database db;
  db.AddTriple("alice", "knows", "bob");
  db.AddTriple("bob", "knows", "carol");
  db.AddTriple("bob", "email", "bob-at-example");
  return db;
}

// ---------------------------------------------------------------------
// Database mutation basics
// ---------------------------------------------------------------------

TEST(DatabaseTest, AddRemoveContains) {
  Database db;
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(db.AddTriple("a", "p", "b"));
  EXPECT_FALSE(db.AddTriple("a", "p", "b"));  // Duplicate.
  EXPECT_EQ(db.size(), 1u);
  EXPECT_TRUE(db.Contains(Triple(db.pool().InternIri("a"), db.pool().InternIri("p"),
                                 db.pool().InternIri("b"))));
  EXPECT_TRUE(db.RemoveTriple("a", "p", "b"));
  EXPECT_FALSE(db.RemoveTriple("a", "p", "b"));  // Gone already.
  EXPECT_TRUE(db.empty());
}

TEST(DatabaseTest, RejectsNonGroundTriples) {
  Database db;
  TermId var = db.pool().InternVariable("x");
  TermId iri = db.pool().InternIri("p");
  EXPECT_FALSE(db.AddTriple(Triple(var, iri, iri)));
  EXPECT_TRUE(db.empty());
}

TEST(DatabaseTest, RemoveProbeOfUnknownSpellingsDoesNotGrowPool) {
  Database db = MakeSmallDatabase();
  std::size_t iris_before = db.pool().NumIris();
  EXPECT_FALSE(db.RemoveTriple("never-seen-s", "never-seen-p", "never-seen-o"));
  EXPECT_EQ(db.pool().NumIris(), iris_before);  // Pure lookup, no intern.
}

TEST(DatabaseTest, SessionsSurviveDatabaseMoves) {
  Database db = MakeSmallDatabase();
  Session session = db.OpenSession();
  Statement stmt = session.Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  // Sessions/statements bind to the move-stable internal state.
  Database moved = std::move(db);
  EXPECT_EQ(stmt.Count(), 2u);
  EXPECT_EQ(session.Prepare("(?x email ?e)").Count(), 1u);
}

TEST(DatabaseTest, GenerationAdvancesOnMutationAndCompact) {
  Database db;
  uint64_t g0 = db.generation();
  db.AddTriple("a", "p", "b");
  EXPECT_GT(db.generation(), g0);
  uint64_t g1 = db.generation();
  db.AddTriple("a", "p", "b");  // No-op: duplicate.
  EXPECT_EQ(db.generation(), g1);
  db.Compact();
  EXPECT_GT(db.generation(), g1);
}

TEST(DatabaseTest, LoadNTriplesIsAtomicOnParseError) {
  Database db;
  Status bad = db.LoadNTriples("a p b .\nthis is not a triple line at all ! ? .\n");
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(db.empty());
  EXPECT_TRUE(db.LoadNTriples("a p b .\nb q c .\n").ok());
  EXPECT_EQ(db.size(), 2u);
  // Second load takes the incremental path.
  EXPECT_TRUE(db.LoadNTriples("c r d .\n").ok());
  EXPECT_EQ(db.size(), 3u);
}

// ---------------------------------------------------------------------
// Dictionary miss-safety (satellite: TryResolve)
// ---------------------------------------------------------------------

/// The dictionary an older snapshot reopens to for the one triple
/// (a p b): its terms as the TermId-sorted prefix.
Dictionary OneTripleDictionary(TermPool* pool) {
  std::vector<TermId> terms = {pool->InternIri("a"), pool->InternIri("p"),
                               pool->InternIri("b")};
  std::sort(terms.begin(), terms.end());
  return Dictionary::FromParts(terms, terms.size());
}

TEST(DictionaryTest, TryResolveIsMissSafe) {
  TermPool pool;
  Dictionary dict = OneTripleDictionary(&pool);
  EXPECT_TRUE(dict.TryResolve(pool.InternIri("a")).has_value());
  EXPECT_FALSE(dict.TryResolve(pool.InternIri("never-stored")).has_value());
}

TEST(DictionaryTest, GetOrAddAppendsStableIds) {
  TermPool pool;
  Dictionary dict = OneTripleDictionary(&pool);
  std::size_t built = dict.size();
  DataId a_before = dict.Encode(pool.InternIri("a"));
  TermId fresh = pool.InternIri("zz-fresh");
  DataId id = dict.GetOrAdd(fresh);
  EXPECT_EQ(id, built);                       // Appended, not re-sorted.
  EXPECT_EQ(dict.Encode(pool.InternIri("a")), a_before);  // Old ids stable.
  EXPECT_EQ(dict.GetOrAdd(fresh), id);        // Idempotent.
  EXPECT_EQ(dict.Decode(id), fresh);
  EXPECT_EQ(*dict.TryResolve(fresh), id);
}

TEST(SessionTest, UnknownTermQueriesReturnEmptyCursors) {
  Database db = MakeSmallDatabase();
  Session session = db.OpenSession();
  // "nobody" and "likes" never occur in the database: the cursor must
  // come back empty (miss-safe), not assert.
  for (const char* text : {"(nobody knows ?x)", "(?x likes ?y)",
                           "(alice knows ?x) AND (?x likes nobody)"}) {
    Statement stmt = session.Prepare(text);
    ASSERT_TRUE(stmt.ok()) << text;
    Cursor cursor = stmt.Execute();
    EXPECT_FALSE(cursor.Next()) << text;
    EXPECT_EQ(cursor.state(), Cursor::State::kExhausted) << text;
  }
}

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

TEST(SessionTest, ParseErrorDiagnostics) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("((?x knows");
  EXPECT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.diagnostics().code, QueryDiagnostics::Code::kParseError);
  EXPECT_FALSE(stmt.diagnostics().parsed);
  EXPECT_EQ(stmt.diagnostics().pattern_text, "((?x knows");
}

TEST(SessionTest, NotWellDesignedDiagnosticsNameTheVariable) {
  Database db = MakeSmallDatabase();
  Statement stmt =
      db.OpenSession().Prepare("((?x knows ?x) OPT (?x knows ?y)) AND (?y knows ?y)");
  EXPECT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.diagnostics().code, QueryDiagnostics::Code::kNotWellDesigned);
  EXPECT_TRUE(stmt.diagnostics().parsed);
  EXPECT_FALSE(stmt.diagnostics().well_designed);
  EXPECT_EQ(stmt.diagnostics().offending_variable, "?y");
  // Failed statements execute to failed cursors, not crashes.
  Cursor cursor = stmt.Execute();
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.state(), Cursor::State::kFailed);
  EXPECT_FALSE(stmt.Contains(Mapping()));
}

TEST(SessionTest, NestedFilterIsUnsupported) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare(
      "((?x knows ?y) FILTER (?x != ?y)) OPT (?y email ?e)");
  EXPECT_FALSE(stmt.ok());
  EXPECT_EQ(stmt.diagnostics().code, QueryDiagnostics::Code::kUnsupported);
}

TEST(SessionTest, PlanFactsOnSuccess) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y) OPT (?y email ?e)");
  ASSERT_TRUE(stmt.ok());
  const QueryDiagnostics& diag = stmt.diagnostics();
  EXPECT_TRUE(diag.parsed);
  EXPECT_TRUE(diag.well_designed);
  EXPECT_TRUE(diag.union_free);
  EXPECT_EQ(diag.num_trees, 1u);
  EXPECT_EQ(diag.num_triple_patterns, 2u);
  EXPECT_EQ(diag.variables, (std::vector<std::string>{"?x", "?y", "?e"}));
  EXPECT_EQ(stmt.variables(), diag.variables);
}

// ---------------------------------------------------------------------
// Cursor pull semantics
// ---------------------------------------------------------------------

TEST(CursorTest, PauseAndResumeMidEnumeration) {
  Rng rng(7);
  TermPool pool;
  Database db(&pool);
  {
    RdfGraph staged(&pool);
    testlib::SmallWorkloadGraph(&rng, 6, 40, 3, &staged);
    for (const Triple& t : staged.triples()) db.AddTriple(t);
  }
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);
  Statement stmt = db.OpenSession().PrepareParsed(pattern);
  ASSERT_TRUE(stmt.ok());

  std::vector<Mapping> all = stmt.Solutions();

  // Pull a prefix, do unrelated work, then resume: the suspended cursor
  // must deliver exactly the remaining answers.
  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Open());
  std::vector<Mapping> streamed;
  std::size_t k = all.size() / 2;
  for (std::size_t i = 0; i < k; ++i) {
    ASSERT_TRUE(cursor.Next());
    streamed.push_back(cursor.Row());
  }
  EXPECT_EQ(cursor.state(), Cursor::State::kOpen);
  EXPECT_EQ(cursor.rows(), k);
  // (Suspension point: other cursors can run against the same database.)
  EXPECT_EQ(stmt.Count(), all.size());
  while (cursor.Next()) streamed.push_back(cursor.Row());
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);

  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, all);
}

/// Peak resident set of this process so far, in kB.
long MaxRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST(CursorTest, StreamsAMillionAnswersInBoundedMemory) {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "the sanitizer's allocator quarantine makes max-RSS meaningless";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "the sanitizer's allocator quarantine makes max-RSS meaningless";
#endif
#endif
  // A single-tree cross product: 1000 x 1000 answers of four variables.
  // In NR normal form one tree never yields an answer twice, so the
  // cursor keeps no answer set and its memory stays flat however many
  // rows it streams (a set of 10^6 four-variable mappings is ~100 MB).
  constexpr int kSide = 1000;
  TermPool pool;
  Database db(&pool);
  WriteBatch batch;
  for (int i = 0; i < kSide; ++i) {
    batch.Add("s" + std::to_string(i), "p", "o" + std::to_string(i));
    batch.Add("t" + std::to_string(i), "q", "u" + std::to_string(i));
  }
  ASSERT_TRUE(db.Apply(std::move(batch)).ok());
  Statement stmt = db.OpenSession().Prepare("(?x p ?y) AND (?z q ?w)");
  ASSERT_TRUE(stmt.ok());

  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());  // Setup (view pin, plan, first descent) done.
  const long before_kb = MaxRssKb();
  uint64_t rows = 1;
  while (cursor.Next()) ++rows;
  const long growth_kb = MaxRssKb() - before_kb;
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  EXPECT_EQ(rows, static_cast<uint64_t>(kSide) * kSide);
  EXPECT_LT(growth_kb, 16 * 1024) << "max-RSS grew by " << growth_kb << " kB";
}

TEST(CursorTest, CloseStopsEnumerationEarly) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());
  cursor.Close();
  EXPECT_EQ(cursor.state(), Cursor::State::kClosed);
  EXPECT_FALSE(cursor.Next());
}

TEST(CursorTest, IndexedCursorKeepsItsPinnedViewAcrossMutations) {
  // The MVCC contract: an open indexed-backend cursor pinned a read
  // view at Open and keeps enumerating that exact snapshot, whatever
  // the writer does meanwhile.
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());
  uint64_t pinned = cursor.generation();
  db.AddTriple("dave", "knows", "alice");
  EXPECT_GT(db.generation(), pinned);
  // The cursor still completes over the pre-mutation snapshot: two
  // answers total, never the freshly inserted row.
  uint64_t rows = 1;
  while (cursor.Next()) ++rows;
  EXPECT_EQ(rows, 2u);
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  EXPECT_TRUE(cursor.diagnostics().ok());
  // A fresh execution pins the freshest view and sees the new data.
  EXPECT_EQ(stmt.Count(), 3u);
}

TEST(CursorTest, NaiveCursorDrainsItsPinnedViewAcrossMutationAndCompact) {
  // The naive oracle pins at Open under the same contract as the
  // indexed engine: a writer's insert and a Compact underneath it change
  // nothing about the rows it delivers.
  Database db = MakeSmallDatabase();
  SessionOptions naive;
  naive.backend = Backend::kNaiveHash;
  Statement stmt = db.OpenSession(naive).Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());
  uint64_t pinned = cursor.generation();
  std::set<std::string> seen = {cursor.Value(0) + " " + cursor.Value(1)};
  db.AddTriple("dave", "knows", "alice");
  db.Compact();
  EXPECT_GT(db.generation(), pinned);
  while (cursor.Next()) seen.insert(cursor.Value(0) + " " + cursor.Value(1));
  EXPECT_EQ(seen, (std::set<std::string>{"alice bob", "bob carol"}));
  EXPECT_EQ(cursor.rows(), 2u);
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  EXPECT_TRUE(cursor.diagnostics().ok());
  EXPECT_EQ(cursor.generation(), pinned);
  // A fresh execution pins the freshest view and sees the new data.
  EXPECT_EQ(stmt.Count(), 3u);
}

TEST(CursorTest, PinnedCursorSurvivesCompactAndMergeChurn) {
  // Compact reallocates every base run; a pinned cursor must keep the
  // superseded runs alive and finish exactly its snapshot.
  DatabaseOptions options;
  options.merge_threshold = 4;  // Force merges mid-enumeration.
  Database db(options);
  for (int i = 0; i < 32; ++i) {
    db.AddTriple("n" + std::to_string(i), "p", "n" + std::to_string(i + 1));
  }
  Statement stmt = db.OpenSession().Prepare("(?x p ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute();
  ASSERT_TRUE(cursor.Next());
  // Churn: inserts spending the merge budget repeatedly, removals of
  // rows the cursor has not delivered yet, and an explicit Compact.
  const Counter& compactions = db.metrics().counter("store.compactions");
  const uint64_t compactions_before = compactions.value();
  for (int i = 0; i < 16; ++i) {
    db.AddTriple("m" + std::to_string(i), "p", "m" + std::to_string(i + 1));
  }
  EXPECT_GE(compactions.value(), compactions_before + 1);  // Merged mid-cursor.
  for (int i = 10; i < 20; ++i) {
    db.RemoveTriple("n" + std::to_string(i), "p", "n" + std::to_string(i + 1));
  }
  db.Compact();
  uint64_t rows = 1;
  while (cursor.Next()) ++rows;
  EXPECT_EQ(rows, 32u);  // The pinned snapshot, unperturbed.
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
}

// ---------------------------------------------------------------------
// Projection + duplicate elimination
// ---------------------------------------------------------------------

TEST(ProjectionTest, ProjectedCursorMatchesRestrictedSolutions) {
  Rng rng(21);
  TermPool pool;
  Database db(&pool);
  {
    RdfGraph staged(&pool);
    testlib::SmallWorkloadGraph(&rng, 6, 48, 3, &staged);
    for (const Triple& t : staged.triples()) db.AddTriple(t);
  }
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);
  Statement stmt = db.OpenSession().PrepareParsed(pattern);
  ASSERT_TRUE(stmt.ok());
  if (stmt.variables().size() < 2) GTEST_SKIP() << "needs >= 2 variables";

  // Project onto the first variable only.
  std::string var = stmt.variables()[0];
  std::vector<TermId> var_id = {pool.InternVariable(var.substr(1))};

  std::set<Mapping> expected;
  for (const Mapping& mu : stmt.Solutions()) expected.insert(mu.RestrictedTo(var_id));

  Cursor cursor = stmt.Execute({var});
  std::set<Mapping> projected;
  uint64_t delivered = 0;
  while (cursor.Next()) {
    EXPECT_TRUE(projected.insert(cursor.Row()).second)
        << "duplicate projected row " << cursor.Row().ToString(pool);
    ++delivered;
  }
  EXPECT_EQ(projected, expected);
  EXPECT_EQ(delivered, expected.size());

  // Same through the columnar table.
  BindingTable table = stmt.ExecuteTable({var});
  EXPECT_EQ(table.NumColumns(), 1u);
  EXPECT_EQ(table.NumRows(), expected.size());
  EXPECT_EQ(table.ColumnName(0), var);
}

TEST(ProjectionTest, RepeatedColumnsStillDeduplicateDroppedVariables) {
  Database db;
  db.AddTriple("a", "p", "b1");
  db.AddTriple("a", "p", "b2");
  Statement stmt = db.OpenSession().Prepare("(?x p ?y)");
  ASSERT_TRUE(stmt.ok());
  // SELECT ?x, ?x drops ?y: the two answers collapse to one projected
  // row even though the column count matches the variable count.
  Cursor cursor = stmt.Execute({"?x", "?x"});
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.width(), 2u);
  EXPECT_EQ(cursor.Value(0), "a");
  EXPECT_EQ(cursor.Value(1), "a");
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.rows(), 1u);
}

TEST(ProjectionTest, UnknownVariableFailsStructurally) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y)");
  ASSERT_TRUE(stmt.ok());
  Cursor cursor = stmt.Execute({"?nope"});
  EXPECT_EQ(cursor.state(), Cursor::State::kFailed);
  EXPECT_EQ(cursor.diagnostics().code, QueryDiagnostics::Code::kInvalidProjection);
  EXPECT_FALSE(cursor.Next());
}

TEST(ProjectionTest, BindingTableRepresentsUnboundCells) {
  Database db = MakeSmallDatabase();
  Statement stmt = db.OpenSession().Prepare("(?x knows ?y) OPT (?y email ?e)");
  ASSERT_TRUE(stmt.ok());
  BindingTable table = stmt.ExecuteTable();
  ASSERT_EQ(table.NumRows(), 2u);
  ASSERT_EQ(table.NumColumns(), 3u);
  auto e_col = table.ColumnIndex("e");
  ASSERT_TRUE(e_col.has_value());
  int bound = 0, unbound = 0;
  for (std::size_t row = 0; row < table.NumRows(); ++row) {
    if (table.IsBound(row, *e_col)) {
      ++bound;
      EXPECT_EQ(table.Value(row, *e_col), "bob-at-example");
    } else {
      ++unbound;
      EXPECT_EQ(table.Value(row, *e_col), "");
    }
  }
  EXPECT_EQ(bound, 1);    // alice->bob has the email.
  EXPECT_EQ(unbound, 1);  // bob->carol does not.
}

// ---------------------------------------------------------------------
// FILTER through the engine path (satellite: backend honoured)
// ---------------------------------------------------------------------

TEST(FilterTest, TopLevelFilterRunsOnBothBackends) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "a");
  graph.Insert("a", "p", "b");
  graph.Insert("b", "p", "c");
  Database db(&pool);
  testlib::LoadGraph(graph, &db);

  auto parsed = ParsePattern("((?x p ?y)) FILTER (?x != ?y)", &pool);
  ASSERT_TRUE(parsed.ok());
  std::vector<Mapping> reference = Evaluate(*parsed.value(), graph);

  for (Backend backend : {Backend::kNaiveHash, Backend::kIndexed}) {
    SessionOptions options;
    options.backend = backend;
    Statement stmt = db.OpenSession(options).Prepare("((?x p ?y)) FILTER (?x != ?y)");
    ASSERT_TRUE(stmt.ok()) << BackendToString(backend) << ": "
                           << stmt.diagnostics().ToString();
    EXPECT_EQ(stmt.diagnostics().post_filters, 1u);
    EXPECT_EQ(stmt.Solutions(), reference) << BackendToString(backend);
    // Membership honours the filter too.
    for (const Mapping& mu : reference) {
      EXPECT_TRUE(stmt.Contains(mu));
    }
    Mapping loop = testlib::MakeMapping(&pool, {{"x", "a"}, {"y", "a"}});
    EXPECT_FALSE(stmt.Contains(loop)) << "filtered-out mapping accepted";
  }
}

// ---------------------------------------------------------------------
// Incremental maintenance: differential against an independent model
// ---------------------------------------------------------------------

class IncrementalDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IncrementalDifferentialTest, ScansMatchHashSourceUnderRandomUpdates) {
  Rng rng(GetParam());
  TermPool pool;
  // Small merge threshold so the test crosses several merge boundaries
  // (the default 4096 would never trigger a merge at this scale).
  DatabaseOptions options;
  options.merge_threshold = 8;
  Database small(&pool, options);

  RdfGraph mirror(&pool);  // Ground truth, maintained in lockstep.
  std::vector<TermId> nodes;
  for (int i = 0; i < 10; ++i) {
    nodes.push_back(pool.InternIri("n" + std::to_string(i)));
  }
  std::vector<TermId> predicates;
  for (int i = 0; i < 3; ++i) {
    predicates.push_back(pool.InternIri("p" + std::to_string(i)));
  }
  auto random_triple = [&]() {
    return Triple(nodes[rng.NextBounded(10)], predicates[rng.NextBounded(3)],
                  nodes[rng.NextBounded(10)]);
  };

  for (int step = 0; step < 400; ++step) {
    Triple t = random_triple();
    if (rng.NextBounded(3) == 0) {
      EXPECT_EQ(small.RemoveTriple(t), mirror.Remove(t));
    } else {
      EXPECT_EQ(small.AddTriple(t), mirror.Insert(t));
    }
    ASSERT_EQ(small.size(), mirror.size());

    if (step % 25 != 0) continue;
    // Differential check: the incrementally maintained store scans
    // exactly like the mirror's hash indexes, an independent
    // implementation of the same scan interface.
    const std::shared_ptr<const ReadView> view = DatabaseImpl::Get(small).store.PinView();
    const HashTripleSource hash(mirror.triples());
    ASSERT_EQ(view->size(), hash.size());
    for (int trial = 0; trial < 12; ++trial) {
      Triple probe = random_triple();
      int mask = static_cast<int>(rng.NextBounded(8));
      for (int pos = 0; pos < 3; ++pos) {
        if (((mask >> pos) & 1) == 0) probe.Set(pos, kAnyTerm);
      }
      std::vector<Triple> incremental, expected;
      view->ScanPattern(probe, [&](const Triple& match) {
        incremental.push_back(match);
        return true;
      });
      hash.ScanPattern(probe, [&](const Triple& match) {
        expected.push_back(match);
        return true;
      });
      std::sort(incremental.begin(), incremental.end());
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(incremental, expected) << "step " << step << " mask " << mask;
    }
  }
}

TEST_P(IncrementalDifferentialTest, QueriesMatchRebuiltDatabaseUnderRandomUpdates) {
  Rng rng(GetParam() ^ 0xbeef);
  TermPool pool;
  DatabaseOptions options;
  options.merge_threshold = 16;
  Database db(&pool, options);
  // The model: a plain graph mirroring every add and remove, so the
  // oracles below never read through the engine's write path.
  RdfGraph model(&pool);
  testlib::SmallWorkloadGraph(&rng, 5, 24, 3, &model);
  for (const Triple& t : model.triples()) db.AddTriple(t);
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);

  std::vector<TermId> nodes = model.triples().Iris();
  auto random_triple = [&]() {
    auto pick = [&]() {
      return nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))];
    };
    return Triple(pick(), pick(), pick());
  };

  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 6; ++i) {
      Triple t = random_triple();
      if (rng.NextBounded(3) == 0) {
        ASSERT_EQ(db.RemoveTriple(t), model.Remove(t));
      } else {
        ASSERT_EQ(db.AddTriple(t), model.Insert(t));
      }
    }
    ASSERT_EQ(db.size(), model.size());
    // Rebuild a fresh database from the model, then compare the full
    // solution sets on both backends plus the set semantics.
    Database rebuilt(&pool);
    for (const Triple& t : model.triples()) rebuilt.AddTriple(t);

    Statement incremental = db.OpenSession().PrepareParsed(pattern);
    Statement fresh = rebuilt.OpenSession().PrepareParsed(pattern);
    ASSERT_TRUE(incremental.ok() && fresh.ok());
    std::vector<Mapping> inc_solutions = incremental.Solutions();
    ASSERT_EQ(inc_solutions, fresh.Solutions()) << "round " << round;
    ASSERT_EQ(inc_solutions, Evaluate(*pattern, model)) << "round " << round;

    SessionOptions naive;
    naive.backend = Backend::kNaiveHash;
    ASSERT_EQ(inc_solutions, db.OpenSession(naive).PrepareParsed(pattern).Solutions())
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalDifferentialTest,
                         ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Cursor enumeration equals the Lemma 1 oracle (ptree/semantics)
// ---------------------------------------------------------------------

class CursorVsOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CursorVsOracleTest, CursorSolutionsEqualForestSemantics) {
  Rng rng(GetParam());
  TermPool pool;
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 5, 16, 3, &graph);
  Result<PatternForest> forest = BuildPatternForest(pattern, pool);
  ASSERT_TRUE(forest.ok());
  std::vector<Mapping> oracle = EnumerateForestSolutions(forest.value(), graph);

  Database db(&pool);
  for (const Triple& t : graph.triples()) db.AddTriple(t);

  for (Backend backend : {Backend::kNaiveHash, Backend::kIndexed}) {
    SessionOptions session_options;
    session_options.backend = backend;
    Statement stmt = db.OpenSession(session_options).PrepareParsed(pattern);
    ASSERT_TRUE(stmt.ok());

    EXPECT_EQ(stmt.Solutions(), oracle) << BackendToString(backend);

    // Membership agreement on answers and near-misses.
    Rng probe_rng(GetParam() ^ 0xfeed);
    for (const Mapping& probe :
         testlib::MembershipProbes(pattern, graph, &probe_rng, 6)) {
      EXPECT_EQ(stmt.Contains(probe), ForestContains(forest.value(), graph, probe))
          << probe.ToString(pool);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CursorVsOracleTest, ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace wdsparql
