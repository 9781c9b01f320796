#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "engine/dictionary.h"
#include "engine/indexed_store.h"
#include "engine/join.h"
#include "hom/homomorphism.h"
#include "rdf/generator.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "sparql/semantics.h"
#include "support/testlib.h"
#include "util/rng.h"
#include "wd/domination.h"
#include "wdsparql/database.h"

namespace wdsparql {
namespace {

// ---------------------------------------------------------------------
// Dictionary
// ---------------------------------------------------------------------

TEST(DictionaryTest, RoundTripsEveryTermOfTheSet) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  graph.Insert("b", "q", "c");
  Dictionary dict = Dictionary::Build(graph.triples());
  EXPECT_EQ(dict.size(), 5u);  // a, b, c, p, q.
  for (TermId t : graph.triples().AllTerms()) {
    DataId id = dict.Encode(t);
    ASSERT_NE(id, kNoDataId);
    EXPECT_EQ(dict.Decode(id), t);
  }
}

TEST(DictionaryTest, AbsentTermEncodesToNoId) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  TermId stranger = pool.InternIri("not-in-graph");
  Dictionary dict = Dictionary::Build(graph.triples());
  EXPECT_EQ(dict.Encode(stranger), kNoDataId);
}

TEST(DictionaryTest, EncodingPreservesTermOrder) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("c", "p", "a");
  graph.Insert("a", "q", "b");
  Dictionary dict = Dictionary::Build(graph.triples());
  for (std::size_t i = 1; i < dict.size(); ++i) {
    EXPECT_LT(dict.Decode(static_cast<DataId>(i - 1)), dict.Decode(static_cast<DataId>(i)));
  }
}

// ---------------------------------------------------------------------
// IndexedStore: permutation-range scans against the naive filter.
// ---------------------------------------------------------------------

class IndexedStoreScanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexedStoreScanTest, EveryBoundMaskMatchesNaiveFilter) {
  TermPool pool;
  RdfGraph graph(&pool);
  RandomGraphOptions options;
  options.num_nodes = 12;
  options.num_predicates = 3;
  options.num_triples = 120;
  options.seed = GetParam();
  GenerateRandomGraph(options, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());
  ASSERT_EQ(store.view().size(), graph.size());

  Rng rng(GetParam() ^ 0xabc);
  std::vector<Triple> all = graph.triples().triples();
  for (int trial = 0; trial < 40; ++trial) {
    // Bind a random subset of positions to terms of a random triple
    // (hit-heavy) or to arbitrary pool terms (miss-heavy).
    const Triple& base = all[rng.NextBounded(static_cast<uint32_t>(all.size()))];
    Triple probe(kAnyTerm, kAnyTerm, kAnyTerm);
    int mask = static_cast<int>(rng.NextBounded(8));
    for (int pos = 0; pos < 3; ++pos) {
      if ((mask >> pos) & 1) probe.Set(pos, base[pos]);
    }

    std::vector<Triple> expected;
    for (const Triple& t : all) {
      bool match = true;
      for (int pos = 0; pos < 3; ++pos) {
        if (probe[pos] != kAnyTerm && t[pos] != probe[pos]) match = false;
      }
      if (match) expected.push_back(t);
    }
    std::sort(expected.begin(), expected.end());

    std::vector<Triple> scanned;
    store.view().ScanPattern(probe, [&](const Triple& t) {
      scanned.push_back(t);
      return true;
    });
    std::sort(scanned.begin(), scanned.end());
    EXPECT_EQ(scanned, expected) << "mask=" << mask;

    // The range must be exact: no post-filtering means size equality.
    EncPattern enc;
    if (store.view().EncodeScanPattern(probe, &enc)) {
      EXPECT_EQ(store.view().Scan(enc).size(), expected.size());
    } else {
      EXPECT_TRUE(expected.empty());
    }
  }
}

TEST_P(IndexedStoreScanTest, AgreesWithHashSourceOnContainsAndAllTerms) {
  TermPool pool;
  RdfGraph graph(&pool);
  RandomGraphOptions options;
  options.num_nodes = 10;
  options.num_triples = 60;
  options.seed = GetParam() ^ 0x77;
  GenerateRandomGraph(options, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());
  HashTripleSource hash(graph.triples());

  EXPECT_EQ(store.view().AllTerms(), hash.AllTerms());
  EXPECT_EQ(store.view().size(), hash.size());
  Rng rng(GetParam());
  std::vector<TermId> terms = store.view().AllTerms();
  for (int trial = 0; trial < 50; ++trial) {
    Triple t(terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))],
             terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))],
             terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))]);
    EXPECT_EQ(store.view().Contains(t), hash.Contains(t));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexedStoreScanTest, ::testing::Range<uint64_t>(1, 7));

// ---------------------------------------------------------------------
// Join: differential against the CSP homomorphism solver.
// ---------------------------------------------------------------------

std::vector<Mapping> SortedMappings(const std::vector<VarAssignment>& assignments) {
  std::vector<Mapping> out;
  for (const VarAssignment& a : assignments) {
    Mapping mu;
    for (const auto& [var, value] : a) EXPECT_TRUE(mu.Bind(var, value));
    out.push_back(mu);
  }
  std::sort(out.begin(), out.end());
  return out;
}

class JoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinDifferentialTest, JoinMatchesHomomorphismEnumeration) {
  Rng rng(GetParam());
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 24, 3, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());

  std::vector<TermId> nodes = graph.triples().Iris();
  for (int trial = 0; trial < 20; ++trial) {
    // Random conjunctive pattern over the graph's predicates.
    int num_vars = 1 + static_cast<int>(rng.NextBounded(3));
    std::vector<TermId> vars;
    for (int i = 0; i < num_vars; ++i) {
      vars.push_back(pool.InternVariable("j" + std::to_string(i)));
    }
    auto random_term = [&](bool allow_var) -> TermId {
      if (allow_var && rng.NextBounded(2) == 0) {
        return vars[rng.NextBounded(static_cast<uint32_t>(vars.size()))];
      }
      return nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))];
    };
    TripleSet pattern;
    int num_triples = 1 + static_cast<int>(rng.NextBounded(3));
    for (int i = 0; i < num_triples; ++i) {
      pattern.Insert(
          Triple(random_term(true), random_term(true), random_term(true)));
    }
    VarAssignment fixed;
    if (rng.NextBounded(2) == 0) {
      fixed[vars[rng.NextBounded(static_cast<uint32_t>(vars.size()))]] =
          nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))];
    }

    std::vector<VarAssignment> join_results;
    JoinEnumerate(store.view(), pattern.triples(), fixed,
                  [&](const VarAssignment& a) {
                    join_results.push_back(a);
                    return true;
                  });
    std::vector<VarAssignment> hom_results;
    EnumerateHomomorphisms(pattern, fixed, graph.triples(),
                           [&](const VarAssignment& a) {
                             hom_results.push_back(a);
                             return true;
                           });
    EXPECT_EQ(SortedMappings(join_results), SortedMappings(hom_results))
        << "trial " << trial;
    EXPECT_EQ(JoinExists(store.view(), pattern.triples(), fixed), !hom_results.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinDifferentialTest, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Database/Session: backends must agree byte for byte.
// ---------------------------------------------------------------------

TEST(SessionBackendTest, PrepareRejectsSyntaxErrors) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  Database db(&pool);
  testlib::LoadGraph(graph, &db);
  Statement q = db.OpenSession().Prepare("((?x p");
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.diagnostics().code, QueryDiagnostics::Code::kParseError);
}

TEST(SessionBackendTest, PrepareRejectsNonWellDesignedPatterns) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  Database db(&pool);
  testlib::LoadGraph(graph, &db);
  // ?y occurs in the OPT right side and outside the OPT, but not in the
  // left side: the classic non-well-designed shape.
  Statement q = db.OpenSession().Prepare("((?x p ?x) OPT (?x q ?y)) AND (?y p ?y)");
  EXPECT_FALSE(q.ok());
  EXPECT_EQ(q.diagnostics().code, QueryDiagnostics::Code::kNotWellDesigned);
}

TEST(SessionBackendTest, SimpleOptQueryOnBothBackends) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("alice", "knows", "bob");
  graph.Insert("bob", "knows", "carol");
  graph.Insert("bob", "email", "bob-at-example");
  Database db(&pool);
  testlib::LoadGraph(graph, &db);
  for (Backend backend : {Backend::kNaiveHash, Backend::kIndexed}) {
    SessionOptions options;
    options.backend = backend;
    Statement q = db.OpenSession(options).Prepare("(?x knows ?y) OPT (?y email ?e)");
    ASSERT_TRUE(q.ok()) << BackendToString(backend);
    std::vector<Mapping> answers = q.Solutions();
    ASSERT_EQ(answers.size(), 2u) << BackendToString(backend);
    EXPECT_EQ(q.Count(), 2u);
    for (const Mapping& mu : answers) {
      EXPECT_TRUE(q.Contains(mu)) << BackendToString(backend);
    }
    EXPECT_FALSE(
        q.Contains(testlib::MakeMapping(&pool, {{"x", "carol"}, {"y", "alice"}})));
  }
}

class SessionBackendDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SessionBackendDifferentialTest, BackendsProduceIdenticalVerdictsAndSolutions) {
  Rng rng(GetParam());
  TermPool pool;
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 5, 16, 3, &graph);
  Database db(&pool);
  testlib::LoadGraph(graph, &db);

  SessionOptions naive_options;
  naive_options.backend = Backend::kNaiveHash;
  SessionOptions indexed_options;
  indexed_options.backend = Backend::kIndexed;
  Statement naive_q = db.OpenSession(naive_options).PrepareParsed(pattern);
  Statement indexed_q = db.OpenSession(indexed_options).PrepareParsed(pattern);
  ASSERT_TRUE(naive_q.ok());
  ASSERT_TRUE(indexed_q.ok());

  // Identical enumerated solution sets (both sorted + deduplicated).
  std::vector<Mapping> naive_solutions = naive_q.Solutions();
  std::vector<Mapping> indexed_solutions = indexed_q.Solutions();
  EXPECT_EQ(naive_solutions, indexed_solutions);

  // Both must equal the compositional set semantics.
  EXPECT_EQ(naive_solutions, Evaluate(*pattern, graph));

  // Identical wdEVAL membership verdicts on answers and near-misses.
  Rng probe_rng(GetParam() ^ 0xfeed);
  for (const Mapping& probe : testlib::MembershipProbes(pattern, graph, &probe_rng, 8)) {
    EXPECT_EQ(naive_q.Contains(probe), indexed_q.Contains(probe)) << probe.ToString(pool);
  }
}

TEST_P(SessionBackendDifferentialTest, PebblePromiseOnThePinnedViewMatchesIndexed) {
  Rng rng(GetParam());
  TermPool pool;
  PatternPtr pattern = testlib::RandomWellDesignedUnion(&rng, &pool, 2);
  Result<int> dw = DominationWidthOfPattern(pattern, &pool);
  if (!dw.ok() || dw.value() > 3) GTEST_SKIP() << "outside budgeted promise";
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 5, 16, 3, &graph);
  Database db(&pool);
  testlib::LoadGraph(graph, &db);
  // Remove every third triple: the dictionary keeps their terms, so the
  // pebble game's domain (`ReadView::AllTerms`) includes dead terms.
  RdfGraph kept(&pool);
  std::size_t i = 0;
  for (const Triple& t : graph.triples().triples()) {
    if (i++ % 3 == 0) {
      ASSERT_TRUE(db.RemoveTriple(t));
    } else {
      kept.Insert(t);
    }
  }

  SessionOptions pebble_options;
  pebble_options.backend = Backend::kNaiveHash;
  pebble_options.pebble_promise = std::max(dw.value(), 1);
  Statement pebble_q = db.OpenSession(pebble_options).PrepareParsed(pattern);
  Statement indexed_q = db.OpenSession().PrepareParsed(pattern);
  ASSERT_TRUE(pebble_q.ok());
  ASSERT_TRUE(indexed_q.ok());

  std::vector<Mapping> pebble_solutions = pebble_q.Solutions();
  EXPECT_EQ(pebble_solutions, indexed_q.Solutions());
  EXPECT_EQ(pebble_solutions, Evaluate(*pattern, kept));
  Rng probe_rng(GetParam() ^ 0xbeef);
  for (const Mapping& probe : testlib::MembershipProbes(pattern, kept, &probe_rng, 8)) {
    EXPECT_EQ(pebble_q.Contains(probe), indexed_q.Contains(probe)) << probe.ToString(pool);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionBackendDifferentialTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace wdsparql
