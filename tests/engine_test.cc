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
    // With no delta and no tombstones the O(1) bound is exact too, and
    // the existence probe agrees with the filter on every bound mask.
    EncPattern enc;
    if (store.view().EncodeScanPattern(probe, &enc)) {
      EXPECT_EQ(store.view().Scan(enc).size(), expected.size());
      EXPECT_EQ(store.view().Scan(enc).bound_size(), expected.size());
      EXPECT_EQ(store.view().Exists(enc), !expected.empty()) << "mask=" << mask;
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

/// Twenty random conjunctive patterns over `nodes` (one variable
/// repeated inside a conjunct, `?x p ?x`-style, in a third of them),
/// each joined over `view` and checked against the CSP solver over
/// `graph`, which must hold exactly the view's triples.
void ExpectJoinsMatchSolver(Rng* rng, TermPool* pool, const RdfGraph& graph,
                            const ReadView& view, const std::vector<TermId>& nodes) {
  for (int trial = 0; trial < 20; ++trial) {
    // Random conjunctive pattern over the graph's predicates.
    int num_vars = 1 + static_cast<int>(rng->NextBounded(3));
    std::vector<TermId> vars;
    for (int i = 0; i < num_vars; ++i) {
      vars.push_back(pool->InternVariable("j" + std::to_string(i)));
    }
    auto random_var = [&] {
      return vars[rng->NextBounded(static_cast<uint32_t>(vars.size()))];
    };
    auto random_node = [&] {
      return nodes[rng->NextBounded(static_cast<uint32_t>(nodes.size()))];
    };
    auto random_term = [&](bool allow_var) -> TermId {
      if (allow_var && rng->NextBounded(2) == 0) return random_var();
      return random_node();
    };
    TripleSet pattern;
    int num_triples = 1 + static_cast<int>(rng->NextBounded(3));
    for (int i = 0; i < num_triples; ++i) {
      pattern.Insert(
          Triple(random_term(true), random_term(true), random_term(true)));
    }
    if (rng->NextBounded(3) == 0) {
      TermId x = random_var();
      pattern.Insert(Triple(x, random_node(), x));
    }
    VarAssignment fixed;
    if (rng->NextBounded(2) == 0) fixed[random_var()] = random_node();

    std::vector<VarAssignment> join_results;
    JoinEnumerate(view, pattern.triples(), fixed, [&](const VarAssignment& a) {
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
    EXPECT_EQ(JoinExists(view, pattern.triples(), fixed), !hom_results.empty())
        << "trial " << trial;
  }
}

class JoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinDifferentialTest, JoinMatchesHomomorphismEnumeration) {
  Rng rng(GetParam());
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 24, 3, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());
  ExpectJoinsMatchSolver(&rng, &pool, graph, store.view(), graph.triples().Iris());
}

TEST_P(JoinDifferentialTest, JoinMatchesSolverOverLiveDeltaAndTombstones) {
  Rng rng(GetParam() ^ 0xde17a);
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 24, 3, &graph);
  IndexedStore store = IndexedStore::Build(graph.triples());
  store.set_merge_threshold(0);  // Keep every mutation pending.

  // Churn without compacting: erase base and delta triples (base ones
  // become tombstones), insert fresh ones (some self-loops, so `?x p ?x`
  // conjuncts have matches). The solver sees the mirrored graph.
  std::vector<TermId> nodes = graph.triples().Iris();
  auto node = [&] {
    return nodes[rng.NextBounded(static_cast<uint32_t>(nodes.size()))];
  };
  for (int step = 0; step < 40; ++step) {
    std::vector<Triple> present = graph.triples().triples();
    if (!present.empty() && rng.NextBounded(2) == 0) {
      const Triple t = present[rng.NextBounded(static_cast<uint32_t>(present.size()))];
      ASSERT_TRUE(store.Erase(t));
      graph.Remove(t);
      continue;
    }
    TermId s = node();
    Triple t(s, node(), rng.NextBounded(3) == 0 ? s : node());
    EXPECT_EQ(store.Insert(t), graph.Insert(t));
  }
  ASSERT_GT(store.delta_size(), 0u);
  ASSERT_EQ(store.view().size(), graph.size());
  ExpectJoinsMatchSolver(&rng, &pool, graph, store.view(), nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinDifferentialTest, ::testing::Range<uint64_t>(1, 9));

/// Answers of `(c q ?y) AND (a p ?y)`: the (c q ?y) range holds one
/// triple and (a p ?y) two, so the join materialises ?y = b from the
/// former and probes (a p b) into the latter.
std::vector<VarAssignment> ProbeJoin(const IndexedStore& store, TermPool* pool) {
  const TermId y = pool->InternVariable("y");
  const std::vector<Triple> patterns = {
      Triple(pool->InternIri("c"), pool->InternIri("q"), y),
      Triple(pool->InternIri("a"), pool->InternIri("p"), y)};
  std::vector<VarAssignment> out;
  JoinEnumerate(store.view(), patterns, {}, [&](const VarAssignment& a) {
    out.push_back(a);
    return true;
  });
  EXPECT_EQ(JoinExists(store.view(), patterns, {}), !out.empty());
  return out;
}

TEST(JoinProbeTest, ProbeWhoseOnlyBaseMatchIsTombstonedFails) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  graph.Insert("a", "p", "d");
  graph.Insert("c", "q", "b");
  IndexedStore store = IndexedStore::Build(graph.triples());
  store.set_merge_threshold(0);
  const Triple dead(pool.InternIri("a"), pool.InternIri("p"), pool.InternIri("b"));
  ASSERT_TRUE(store.Erase(dead));

  EncPattern probe;
  ASSERT_TRUE(store.view().EncodeScanPattern(dead, &probe));
  EXPECT_GT(store.view().Scan(probe).bound_size(), 0u);  // The range still holds it.
  EXPECT_EQ(store.view().Scan(probe).size(), 0u);
  EXPECT_FALSE(store.view().Exists(probe));
  EXPECT_TRUE(ProbeJoin(store, &pool).empty());
}

TEST(JoinProbeTest, ProbeWhoseOnlyMatchIsInTheDeltaSucceeds) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "d");
  graph.Insert("c", "q", "b");
  IndexedStore store = IndexedStore::Build(graph.triples());
  store.set_merge_threshold(0);
  const Triple fresh(pool.InternIri("a"), pool.InternIri("p"), pool.InternIri("b"));
  ASSERT_TRUE(store.Insert(fresh));

  EncPattern probe;
  ASSERT_TRUE(store.view().EncodeScanPattern(fresh, &probe));
  EXPECT_TRUE(store.view().Exists(probe));
  const std::vector<VarAssignment> answers = ProbeJoin(store, &pool);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].at(pool.InternVariable("y")), pool.InternIri("b"));
}

/// Base triples one full join of `(y0 email ?e) AND (?e domain ?d)`
/// reads over a store holding `n` domain triples (one per ?e).
uint64_t ChainScanVolume(int n) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("y0", "email", "e0");
  for (int i = 0; i < n; ++i) {
    graph.Insert("e" + std::to_string(i), "domain", "d" + std::to_string(i));
  }
  IndexedStore store = IndexedStore::Build(graph.triples());
  const std::vector<Triple> patterns = {
      Triple(pool.InternIri("y0"), pool.InternIri("email"), pool.InternVariable("e")),
      Triple(pool.InternVariable("e"), pool.InternIri("domain"),
             pool.InternVariable("d"))};
  ExecStats stats;
  uint64_t answers = 0;
  JoinEnumerate(store.view(), patterns, {}, [&](const VarAssignment&) {
    ++answers;
    return true;
  }, &stats);
  EXPECT_EQ(answers, 1u);
  return stats.base_triples_scanned;
}

TEST(JoinScanVolumeTest, ChainReadsAConstantNumberOfTriplesWhateverTheRangeSize) {
  // The ?e level walks the one-triple email range and probes the
  // domain range; the ?d level walks (e0 domain ?d). A join that walks
  // the whole domain range would read >= n triples here.
  const uint64_t small = ChainScanVolume(2000);
  const uint64_t large = ChainScanVolume(8000);
  EXPECT_LE(small, 4u);
  EXPECT_EQ(small, large);
}

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
