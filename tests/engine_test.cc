#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "engine/dictionary.h"
#include "engine/indexed_store.h"
#include "engine/join.h"
#include "hom/homomorphism.h"
#include "rdf/generator.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "sparql/parser.h"
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

/// The dictionary an older snapshot reopens to: `terms`, sorted, as the
/// TermId-sorted prefix.
Dictionary SortedPrefixDictionary(std::vector<TermId> terms) {
  std::sort(terms.begin(), terms.end());
  const std::size_t sorted_limit = terms.size();
  return Dictionary::FromParts(std::move(terms), sorted_limit);
}

TEST(DictionaryTest, RoundTripsPrefixAndAppendedTerms) {
  TermPool pool;
  const TermId early = pool.InternIri("0");  // Below every prefix TermId.
  Dictionary dict = SortedPrefixDictionary(
      {pool.InternIri("c"), pool.InternIri("a"), pool.InternIri("p"), pool.InternIri("b")});
  ASSERT_EQ(dict.sorted_limit(), 4u);
  // Appended past the prefix, with TermIds below and above it.
  for (TermId t : {pool.InternIri("q"), early}) {
    const std::size_t before = dict.size();
    EXPECT_EQ(dict.GetOrAdd(t), before);
    EXPECT_EQ(dict.GetOrAdd(t), before);  // Idempotent.
  }
  EXPECT_EQ(dict.size(), 6u);
  for (const char* name : {"a", "b", "c", "p", "q", "0"}) {
    const TermId t = pool.InternIri(name);
    const DataId id = dict.Encode(t);
    ASSERT_NE(id, kNoDataId) << name;
    EXPECT_EQ(dict.Decode(id), t) << name;
    EXPECT_EQ(dict.view().Encode(t), id) << name;
  }
}

TEST(DictionaryTest, AbsentTermEncodesToNoId) {
  TermPool pool;
  Dictionary dict = SortedPrefixDictionary(
      {pool.InternIri("a"), pool.InternIri("p"), pool.InternIri("b")});
  dict.GetOrAdd(pool.InternIri("q"));
  const TermId stranger = pool.InternIri("not-in-graph");
  EXPECT_EQ(dict.Encode(stranger), kNoDataId);
  EXPECT_EQ(dict.view().Encode(stranger), kNoDataId);
}

TEST(DictionaryTest, OneBatchGetsIdsInTermOrder) {
  // Below and above the fold limit: each batch's newcomers take
  // consecutive ids in ascending TermId order.
  TermPool pool;
  std::vector<TermId> terms;
  for (int i = 0; i < 700; ++i) terms.push_back(pool.InternIri("t" + std::to_string(i)));
  Rng rng(3);
  rng.Shuffle(terms);
  Dictionary dict;
  for (std::size_t size : {std::size_t{5}, std::size_t{600}}) {
    const std::size_t before = dict.size();
    std::vector<TermId> batch(terms.begin() + static_cast<std::ptrdiff_t>(before),
                              terms.begin() + static_cast<std::ptrdiff_t>(before + size));
    dict.EnsureTerms(batch);
    ASSERT_EQ(dict.size(), before + size);
    for (std::size_t i = before + 1; i < dict.size(); ++i) {
      EXPECT_LT(dict.Decode(static_cast<DataId>(i - 1)), dict.Decode(static_cast<DataId>(i)));
    }
  }
}

TEST(DictionaryTest, EnsureTermsInterleavedWithTailAppendsKeepsIdsStable) {
  // Intern the terms in one order and register them in a shuffled one,
  // so every fold merges newcomers between already-folded TermIds.
  TermPool pool;
  std::vector<TermId> terms;
  for (int i = 0; i < 3000; ++i) terms.push_back(pool.InternIri("t" + std::to_string(i)));
  Rng rng(7);
  for (std::size_t i = terms.size(); i > 1; --i) {
    std::swap(terms[i - 1], terms[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  Dictionary dict = SortedPrefixDictionary({terms[0], terms[1], terms[2]});
  std::vector<std::pair<TermId, DataId>> assigned;
  for (std::size_t i = 0; i < 3; ++i) assigned.push_back({terms[i], dict.Encode(terms[i])});
  auto expect_stable = [&](const std::string& step) {
    const DictView view = dict.view();
    for (const auto& [term, id] : assigned) {
      ASSERT_EQ(dict.Encode(term), id) << step;
      ASSERT_EQ(view.Encode(term), id) << step;
      ASSERT_EQ(dict.Decode(id), term) << step;
    }
    ASSERT_EQ(dict.size(), assigned.size()) << step;
  };
  auto record_new = [&](std::size_t size_before) {
    for (DataId id = static_cast<DataId>(size_before); id < dict.size(); ++id) {
      assigned.push_back({dict.Decode(id), id});
    }
  };

  std::size_t next = 3;
  for (int round = 0; round < 8; ++round) {
    // A bulk batch (past the fold limit on even rounds, below it on odd
    // ones), repeating some already-known terms.
    const std::size_t fresh = round % 2 == 0 ? 300 + 20 * round : 40;
    std::vector<TermId> batch(terms.begin() + static_cast<std::ptrdiff_t>(next),
                              terms.begin() + static_cast<std::ptrdiff_t>(next + fresh));
    batch.insert(batch.end(), terms.begin(), terms.begin() + 10);
    next += fresh;
    std::size_t before = dict.size();
    dict.EnsureTerms(batch);
    EXPECT_EQ(dict.size(), before + fresh);
    record_new(before);
    expect_stable("EnsureTerms round " + std::to_string(round));

    // Single appends onto the tail, sometimes crossing its fold.
    for (int i = 0; i < 97; ++i) {
      before = dict.size();
      const DataId id = dict.GetOrAdd(terms[next++]);
      EXPECT_EQ(id, before);
      record_new(before);
      EXPECT_EQ(dict.GetOrAdd(assigned[static_cast<std::size_t>(i) * 7 % assigned.size()].first),
                assigned[static_cast<std::size_t>(i) * 7 % assigned.size()].second);
    }
    expect_stable("GetOrAdd round " + std::to_string(round));
  }
  for (std::size_t i = next; i < terms.size(); ++i) {
    EXPECT_EQ(dict.Encode(terms[i]), kNoDataId);
  }
}

// ---------------------------------------------------------------------
// IndexedStore: permutation-range scans against the naive filter.
// ---------------------------------------------------------------------

/// The live triples of `scan`, counted by walking it.
std::size_t LiveCount(const MergedScan& scan) {
  std::size_t n = 0;
  for (auto it = scan.begin(); it != scan.end(); ++it) ++n;
  return n;
}

/// The live triples of `scan`, in its order.
std::vector<EncTriple> LiveTriples(const MergedScan& scan) {
  std::vector<EncTriple> out;
  for (const EncTriple& t : scan) out.push_back(t);
  return out;
}

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
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
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
      EXPECT_EQ(LiveCount(store.view().Scan(enc)), expected.size());
      EXPECT_EQ(store.view().Scan(enc).bound_size(), expected.size());
      EXPECT_EQ(store.view().Probe(enc).Exists(enc), !expected.empty()) << "mask=" << mask;
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
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
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

/// The homomorphisms of `patterns` extending `fixed` into `graph`, by
/// the CSP solver, sorted.
std::vector<Mapping> SolverMappings(const RdfGraph& graph,
                                    const std::vector<Triple>& patterns,
                                    const Mapping& fixed) {
  TripleSet pattern;
  for (const Triple& t : patterns) pattern.Insert(t);
  std::vector<VarAssignment> hom_results;
  EnumerateHomomorphisms(pattern, MappingToAssignment(fixed), graph.triples(),
                         [&](const VarAssignment& a) {
                           hom_results.push_back(a);
                           return true;
                         });
  return SortedMappings(hom_results);
}

/// Whether some homomorphism of `patterns` over `view` extends `fixed`,
/// asked the way the engine asks it: a test compiled over dom(`fixed`)
/// and run on `fixed`'s values as a row of `DataId`s. A value absent
/// from the view fails before any test runs.
bool CompiledExtends(const ReadView& view, const std::vector<Triple>& patterns,
                     const Mapping& fixed, ExecStats* stats = nullptr) {
  std::vector<DataId> row;
  for (const auto& [var, value] : fixed.bindings()) {
    row.push_back(view.dict().Encode(value));
    if (row.back() == kNoDataId) return false;
  }
  return CompiledJoin(view, patterns, fixed.Domain(), stats).Extends(row.data());
}

/// The solutions of the join over `view` with no inputs (in `var_order`
/// when given), decoded and sorted.
std::vector<Mapping> JoinMappings(const std::shared_ptr<const ReadView>& view,
                                  const std::vector<Triple>& patterns,
                                  ExecStats* stats = nullptr,
                                  const std::vector<TermId>* var_order = nullptr) {
  CompiledJoin join(*view, patterns, {}, stats, var_order);
  std::vector<Mapping> out;
  join.Open(nullptr);
  while (join.Next()) {
    Mapping mu;
    for (std::size_t i = 0; i < join.variables().size(); ++i) {
      mu.Bind(join.variables()[i], view->dict().Decode(join.values()[i]));
    }
    out.push_back(std::move(mu));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Checks the join of `patterns` (in `var_order` when given) against the
/// CSP solver over `graph`, which must hold exactly the view's triples,
/// and the compiled test of `patterns` under `fixed` against the solver
/// under `fixed`.
void ExpectJoinMatchesSolver(const RdfGraph& graph,
                             const std::shared_ptr<const ReadView>& view,
                             const std::vector<Triple>& patterns, const Mapping& fixed,
                             const std::vector<TermId>* var_order = nullptr) {
  EXPECT_EQ(JoinMappings(view, patterns, nullptr, var_order),
            SolverMappings(graph, patterns, {}));
  EXPECT_EQ(CompiledExtends(*view, patterns, fixed),
            !SolverMappings(graph, patterns, fixed).empty());
}

/// Twenty random conjunctive patterns over `nodes` (one variable
/// repeated inside a conjunct, `?x p ?x`-style, in a third of them),
/// each joined over `view` and checked against the CSP solver over
/// `graph`, which must hold exactly the view's triples, and each run
/// as a compiled test, half of them under one random fixed variable.
void ExpectJoinsMatchSolver(Rng* rng, TermPool* pool, const RdfGraph& graph,
                            const std::shared_ptr<const ReadView>& view,
                            const std::vector<TermId>& nodes) {
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
    Mapping fixed;
    if (rng->NextBounded(2) == 0) fixed.Bind(random_var(), random_node());
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectJoinMatchesSolver(graph, view, pattern.triples(), fixed);
  }
}

class JoinDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(JoinDifferentialTest, JoinMatchesHomomorphismEnumeration) {
  Rng rng(GetParam());
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 24, 3, &graph);
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  ExpectJoinsMatchSolver(&rng, &pool, graph, store.PinView(), graph.triples().Iris());
}

TEST_P(JoinDifferentialTest, JoinMatchesSolverOverLiveDeltaAndTombstones) {
  Rng rng(GetParam() ^ 0xde17a);
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 24, 3, &graph);
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
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
      ASSERT_TRUE(store.view().Contains(t));
      store.ApplyBatch({}, {t});
      graph.Remove(t);
      continue;
    }
    TermId s = node();
    Triple t(s, node(), rng.NextBounded(3) == 0 ? s : node());
    const bool added = graph.Insert(t);
    EXPECT_EQ(store.view().Contains(t), !added);
    if (added) store.ApplyBatch({t}, {});
  }
  ASSERT_GT(store.delta_size(), 0u);
  ASSERT_EQ(store.view().size(), graph.size());
  ExpectJoinsMatchSolver(&rng, &pool, graph, store.PinView(), nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, JoinDifferentialTest, ::testing::Range<uint64_t>(1, 9));

/// Answers of `(c q ?y) AND (a p ?y)`: the (c q ?y) range holds one
/// triple and (a p ?y) two, so the join materialises ?y = b from the
/// former and probes (a p b) into the latter.
std::vector<Mapping> ProbeJoin(const IndexedStore& store, TermPool* pool) {
  const TermId y = pool->InternVariable("y");
  const std::vector<Triple> patterns = {
      Triple(pool->InternIri("c"), pool->InternIri("q"), y),
      Triple(pool->InternIri("a"), pool->InternIri("p"), y)};
  const std::vector<Mapping> out = JoinMappings(store.PinView(), patterns);
  EXPECT_EQ(CompiledExtends(store.view(), patterns, {}), !out.empty());
  return out;
}

TEST(JoinProbeTest, ProbeWhoseOnlyBaseMatchIsTombstonedFails) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  graph.Insert("a", "p", "d");
  graph.Insert("c", "q", "b");
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  store.set_merge_threshold(0);
  const Triple dead(pool.InternIri("a"), pool.InternIri("p"), pool.InternIri("b"));
  ASSERT_TRUE(store.view().Contains(dead));
  store.ApplyBatch({}, {dead});

  EncPattern probe;
  ASSERT_TRUE(store.view().EncodeScanPattern(dead, &probe));
  EXPECT_GT(store.view().Scan(probe).bound_size(), 0u);  // The range still holds it.
  EXPECT_EQ(LiveCount(store.view().Scan(probe)), 0u);
  EXPECT_FALSE(store.view().Probe(probe).Exists(probe));
  EXPECT_TRUE(ProbeJoin(store, &pool).empty());
}

TEST(JoinProbeTest, ProbeWhoseOnlyMatchIsInTheDeltaSucceeds) {
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "d");
  graph.Insert("c", "q", "b");
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  store.set_merge_threshold(0);
  const Triple fresh(pool.InternIri("a"), pool.InternIri("p"), pool.InternIri("b"));
  ASSERT_FALSE(store.view().Contains(fresh));
  store.ApplyBatch({fresh}, {});

  EncPattern probe;
  ASSERT_TRUE(store.view().EncodeScanPattern(fresh, &probe));
  EXPECT_TRUE(store.view().Probe(probe).Exists(probe));
  const std::vector<Mapping> answers = ProbeJoin(store, &pool);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].Get(pool.InternVariable("y")), pool.InternIri("b"));
}

// ---------------------------------------------------------------------
// SeekProbe: forward-seeking existence probes against a filtered scan.
// ---------------------------------------------------------------------

void SetPosition(EncPattern* pattern, int pos, DataId value) {
  (pos == 0 ? pattern->s : (pos == 1 ? pattern->p : pattern->o)) = value;
}

bool MatchesPattern(const EncTriple& t, const EncPattern& pattern) {
  for (int pos = 0; pos < 3; ++pos) {
    if (pattern[pos] != kNoDataId && t[pos] != pattern[pos]) return false;
  }
  return true;
}

EncTriple EncodeTriple(const ReadView& view, const Triple& t) {
  EncPattern enc;
  EXPECT_TRUE(view.EncodeScanPattern(t, &enc));
  return EncTriple{enc.s, enc.p, enc.o};
}

class SeekProbeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeekProbeTest, AscendingProbesMatchAFilteredScan) {
  Rng rng(GetParam() ^ 0x5eec);
  TermPool pool;
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 6, 40, 3, &graph);
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  store.set_merge_threshold(0);  // Keep every mutation pending.
  const std::vector<TermId> terms = graph.triples().Iris();
  auto term = [&] { return terms[rng.NextBounded(static_cast<uint32_t>(terms.size()))]; };

  // Tombstone some base triples, then add fresh ones, which stay in the
  // delta. Neither set overlaps the other or the remaining base.
  std::vector<Triple> erased = graph.triples().triples();
  rng.Shuffle(erased);
  erased.resize(8);
  store.ApplyBatch({}, erased);
  for (const Triple& t : erased) graph.Remove(t);
  std::vector<Triple> added;
  while (added.size() < 12) {
    const Triple t(term(), term(), term());
    if (graph.triples().Contains(t) ||
        std::find(erased.begin(), erased.end(), t) != erased.end()) {
      continue;
    }
    graph.Insert(t);
    added.push_back(t);
  }
  store.ApplyBatch(added, {});

  const ReadView& view = store.view();
  std::vector<EncTriple> live;
  for (const EncTriple& t : view.Scan(EncPattern{})) live.push_back(t);
  ASSERT_EQ(live.size(), graph.size());
  std::vector<EncTriple> dead;
  std::vector<EncTriple> fresh;
  for (const Triple& t : erased) dead.push_back(EncodeTriple(view, t));
  for (const Triple& t : added) fresh.push_back(EncodeTriple(view, t));
  auto any_match = [](const std::vector<EncTriple>& triples, const EncPattern& p) {
    return std::any_of(triples.begin(), triples.end(),
                       [&](const EncTriple& t) { return MatchesPattern(t, p); });
  };

  // One id past the dictionary: a value no triple can carry.
  const DataId num_ids = static_cast<DataId>(view.dict().size());
  int misses = 0, dead_only = 0, delta_only = 0;
  for (int perm = 0; perm < 3; ++perm) {
    const int* order = enc_order::kPermOrder[perm];
    for (int prefix = 1; prefix <= 3; ++prefix) {
      EncPattern shape;
      for (int i = 0; i < prefix; ++i) SetPosition(&shape, order[i], 0);
      SeekProbe full = view.Probe(shape);  // Rewound and reused per trial.
      for (int trial = 0; trial < 12; ++trial) {
        // The outer values come from a live, tombstoned or delta triple.
        const std::vector<EncTriple>& source =
            trial % 3 == 0 ? live : (trial % 3 == 1 ? dead : fresh);
        const EncTriple& from = source[rng.NextBounded(static_cast<uint32_t>(source.size()))];
        EncPattern outer;
        for (int i = 0; i + 1 < prefix; ++i) SetPosition(&outer, order[i], from[order[i]]);
        const MergedScan range = view.Scan(outer);
        SeekProbe nested = view.Probe(shape, &range);
        full.Rewind();
        for (DataId value = 0; value <= num_ids; ++value) {
          if (rng.NextBounded(4) == 0) continue;  // Ascending, with gaps.
          EncPattern probe = outer;
          SetPosition(&probe, order[prefix - 1], value);
          const bool expected = any_match(live, probe);
          const std::string where = "perm=" + std::to_string(perm) +
                                    " prefix=" + std::to_string(prefix) +
                                    " trial=" + std::to_string(trial) +
                                    " value=" + std::to_string(value);
          EXPECT_EQ(full.Exists(probe), expected) << where;
          EXPECT_EQ(nested.Exists(probe), expected) << where;
          // Opened where each seek stopped, the key's range is the one
          // `Scan` locates from the root: same bounds, same triples. Both
          // probes go on seeking from there.
          const MergedScan scanned = view.Scan(probe);
          for (SeekProbe* seek : {&full, &nested}) {
            const MergedScan opened = seek->Open(probe);
            EXPECT_EQ(opened.bound_size(), scanned.bound_size()) << where;
            EXPECT_EQ(LiveTriples(opened), LiveTriples(scanned)) << where;
          }
          if (!expected) {
            ++misses;
            if (any_match(dead, probe)) ++dead_only;
          } else if (std::all_of(live.begin(), live.end(), [&](const EncTriple& t) {
                       return !MatchesPattern(t, probe) ||
                              std::find(fresh.begin(), fresh.end(), t) != fresh.end();
                     })) {
            ++delta_only;
          }
        }
      }
    }
  }
  // The sequences covered every kind of value.
  EXPECT_GT(misses, 0);
  EXPECT_GT(dead_only, 0);
  EXPECT_GT(delta_only, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeekProbeTest, ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Join: probes nested in sized ranges, and the per-level range memo.
// ---------------------------------------------------------------------

TEST(JoinProbeTest, NestedFullRunAndRepeatedVariableProbesMatchTheSolver) {
  // (?x city c) AND (?x knows ?y) AND (?y city c) AND (?x likes ?x). The
  // city range is the smallest at the ?x level, so ?x is probed into
  // (?x knows _), whose bound positions S,P are no prefix of the POS
  // range it was sized in (full SPO runs), and into (?x likes ?x), fully
  // bound and so nested in its range. At the ?y level, filled once per
  // ?x, (?y city c) is located once and probed inside its range.
  Rng rng(20);
  TermPool pool;
  RdfGraph graph(&pool);
  auto node = [](int i) { return "n" + std::to_string(i); };
  for (int i = 0; i < 30; ++i) {
    graph.Insert(node(i), "city", "c" + std::to_string(i % 3));
    if (i % 2 == 0) graph.Insert(node(i), "likes", node(i));
  }
  for (int i = 0; i < 70; ++i) {
    graph.Insert(node(static_cast<int>(rng.NextBounded(30))), "knows",
                 node(static_cast<int>(rng.NextBounded(30))));
  }
  for (int i = 0; i < 10; ++i) {
    graph.Insert(node(static_cast<int>(rng.NextBounded(30))), "likes",
                 node(static_cast<int>(rng.NextBounded(30))));
  }
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  store.set_merge_threshold(0);
  // Tombstone some base triples and add delta ones of every predicate.
  const std::vector<Triple> all = graph.triples().triples();
  std::vector<Triple> erased;
  for (std::size_t i = 0; i < all.size(); i += 9) erased.push_back(all[i]);
  store.ApplyBatch({}, erased);
  for (const Triple& t : erased) graph.Remove(t);
  std::vector<Triple> added;
  for (int i = 0; i < 12; ++i) {
    const Triple t(pool.InternIri(node(static_cast<int>(rng.NextBounded(30)))),
                   pool.InternIri(i % 3 == 0 ? "city" : (i % 3 == 1 ? "knows" : "likes")),
                   pool.InternIri(i % 3 == 0 ? "c0" : node(static_cast<int>(rng.NextBounded(30)))));
    if (graph.Insert(t)) added.push_back(t);
  }
  store.ApplyBatch(added, {});

  const TermId x = pool.InternVariable("x");
  const TermId y = pool.InternVariable("y");
  std::size_t answers = 0;
  for (const char* c : {"c0", "c1", "c2"}) {
    const TermId city = pool.InternIri(c);
    const std::vector<Triple> patterns = {
        Triple(x, pool.InternIri("city"), city), Triple(x, pool.InternIri("knows"), y),
        Triple(y, pool.InternIri("city"), city), Triple(x, pool.InternIri("likes"), x)};
    ExpectJoinMatchesSolver(graph, store.PinView(), patterns, {});
    answers += JoinMappings(store.PinView(), patterns).size();
  }
  EXPECT_GT(answers, 0u);
}

TEST(JoinProbeTest, ChainWhoseMiddleRangeDependsOnTheRootMatchesTheSolver) {
  // (?a p ?b) AND (?b q ?c) AND (?c r d), bound ?a, ?b, ?c in turn. The
  // (?a p ?b) range at the ?b level changes with every ?a; (?b q ?c) and
  // (?c r d) do not change with the levels above, so their ranges are
  // reused across fills.
  Rng rng(21);
  TermPool pool;
  RdfGraph graph(&pool);
  auto name = [](const char* prefix, uint32_t i) { return prefix + std::to_string(i); };
  for (int i = 0; i < 40; ++i) {
    graph.Insert(name("a", rng.NextBounded(8)), "p", name("b", rng.NextBounded(12)));
    graph.Insert(name("b", rng.NextBounded(12)), "q", name("c", rng.NextBounded(12)));
  }
  for (uint32_t i = 0; i < 12; i += 2) graph.Insert(name("c", i), "r", "d");
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  const TermId a = pool.InternVariable("a");
  const TermId b = pool.InternVariable("b");
  const TermId c = pool.InternVariable("c");
  const std::vector<Triple> patterns = {
      Triple(a, pool.InternIri("p"), b), Triple(b, pool.InternIri("q"), c),
      Triple(c, pool.InternIri("r"), pool.InternIri("d"))};
  const std::vector<TermId> order = {a, b, c};
  ExpectJoinMatchesSolver(graph, store.PinView(), patterns, {}, &order);
  const std::vector<TermId> reverse = {c, b, a};
  ExpectJoinMatchesSolver(graph, store.PinView(), patterns, {}, &reverse);
}

// ---------------------------------------------------------------------
// Join: child ranges opened where the parent level's probe stopped.
// ---------------------------------------------------------------------

/// A store over `base` (its terms interned first, in `names` order, so
/// their ids ascend in that order) with `erased` tombstoned and `added`
/// left in the delta; `graph` receives the live triples.
IndexedStore ChurnedStore(TermPool* pool, const std::vector<const char*>& names,
                          const std::vector<std::array<const char*, 3>>& base,
                          const std::vector<std::array<const char*, 3>>& erased,
                          const std::vector<std::array<const char*, 3>>& added,
                          RdfGraph* graph) {
  for (const char* name : names) pool->InternIri(name);
  auto triple = [pool](const std::array<const char*, 3>& t) {
    return Triple(pool->InternIri(t[0]), pool->InternIri(t[1]), pool->InternIri(t[2]));
  };
  std::vector<Triple> triples;
  for (const auto& t : base) triples.push_back(triple(t));
  IndexedStore store = testlib::BuildStore(triples);
  store.set_merge_threshold(0);
  std::vector<Triple> dead;
  std::vector<Triple> fresh;
  for (const auto& t : erased) dead.push_back(triple(t));
  for (const auto& t : added) fresh.push_back(triple(t));
  store.ApplyBatch({}, dead);
  store.ApplyBatch(fresh, {});
  for (const Triple& t : triples) graph->Insert(t);
  for (const Triple& t : dead) graph->Remove(t);
  for (const Triple& t : fresh) graph->Insert(t);
  EXPECT_EQ(store.view().size(), graph->size());
  return store;
}

/// `(?x city c) AND (?x knows ?y) AND (?y city c)`, bound ?y then ?x.
/// Where the city range is the smaller at the ?y level, each ?y is
/// probed into (?x knows ?y), and the ?x level opens the (knows, y)
/// range where that probe stopped.
struct CityJoin {
  explicit CityJoin(TermPool* pool)
      : x(pool->InternVariable("x")), y(pool->InternVariable("y")) {
    const TermId city = pool->InternIri("city");
    const TermId c = pool->InternIri("c");
    patterns = {Triple(x, city, c), Triple(x, pool->InternIri("knows"), y),
                Triple(y, city, c)};
    order = {y, x};
  }
  TermId x;
  TermId y;
  std::vector<Triple> patterns;
  std::vector<TermId> order;
};

TEST(JoinHandoffTest, ParentProbeWhoseOnlyMatchIsInTheDelta) {
  // ?y takes p0 < p1 < p3 < p4 < p5 in turn. (knows, p3) matches only
  // the delta's (p0 knows p3), which decides the probe before its base
  // cursor moves: it stays at (knows, p1), below the base's
  // (p3 knows p2). A range opened from that cursor would be the ?x
  // level's smallest and yield ?x = p3 for ?y = p3.
  TermPool pool;
  RdfGraph graph(&pool);
  IndexedStore store = ChurnedStore(
      &pool, {"city", "knows", "c", "p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"},
      {{"p0", "city", "c"}, {"p1", "city", "c"}, {"p3", "city", "c"},
       {"p4", "city", "c"}, {"p5", "city", "c"}, {"p0", "knows", "p1"},
       {"p1", "knows", "p0"}, {"p3", "knows", "p2"}, {"p6", "knows", "p7"},
       {"p7", "knows", "p6"}},
      {}, {{"p0", "knows", "p3"}}, &graph);
  const CityJoin join(&pool);
  ExpectJoinMatchesSolver(graph, store.PinView(), join.patterns, {}, &join.order);
  EXPECT_EQ(JoinMappings(store.PinView(), join.patterns, nullptr, &join.order).size(), 3u);
}

TEST(JoinHandoffTest, OpenedRunWhoseFirstBaseTripleIsTombstoned) {
  // (knows, p1)'s base run starts with the tombstoned (p0 knows p1). The
  // probe passes over it to (p2 knows p1) but keeps its seek position at
  // the run's start, and the opened range starts there too: its bound of
  // 2 ties the (?x city c) range, which stays the ?x level's smallest.
  // A range opened past the tombstone would be the smallest instead and
  // change every count below.
  TermPool pool;
  RdfGraph graph(&pool);
  IndexedStore store = ChurnedStore(
      &pool, {"city", "knows", "c", "p0", "p1", "p2", "p3", "p4"},
      {{"p1", "city", "c"}, {"p2", "city", "c"}, {"p0", "knows", "p1"},
       {"p2", "knows", "p1"}, {"p3", "knows", "p4"}, {"p4", "knows", "p3"}},
      {{"p0", "knows", "p1"}}, {}, &graph);
  const CityJoin join(&pool);
  ExpectJoinMatchesSolver(graph, store.PinView(), join.patterns, {}, &join.order);
  ExecStats stats;
  EXPECT_EQ(JoinMappings(store.PinView(), join.patterns, &stats, &join.order).size(), 1u);
  // ?y in {p1, p2}: one probe each; under p1, ?x in {p1, p2}: one each.
  EXPECT_EQ(stats.values_probed, 4u);
  EXPECT_EQ(stats.ranges_scanned, 2u);
  EXPECT_EQ(stats.base_triples_scanned, 4u);
}

TEST(JoinHandoffTest, OpenedRunThatEndsThePermutation) {
  // knows sorts after city and p3 after every other object, so
  // (knows, p3) is the last run of POS, in the base and in the delta:
  // the opened range's upper bounds gallop to the end of both runs.
  TermPool pool;
  RdfGraph graph(&pool);
  IndexedStore store = ChurnedStore(
      &pool, {"city", "knows", "c", "p0", "p1", "p2", "p3"},
      {{"p0", "city", "c"}, {"p1", "city", "c"}, {"p2", "city", "c"},
       {"p3", "city", "c"}, {"p0", "knows", "p3"}, {"p1", "knows", "p3"},
       {"p2", "knows", "p0"}, {"p3", "knows", "p1"}},
      {}, {{"p2", "knows", "p3"}}, &graph);
  const DictView& dict = store.view().dict();
  ASSERT_LT(dict.Encode(pool.InternIri("city")), dict.Encode(pool.InternIri("knows")));
  for (const char* other : {"c", "p0", "p1", "p2"}) {
    ASSERT_LT(dict.Encode(pool.InternIri(other)), dict.Encode(pool.InternIri("p3")));
  }
  const CityJoin join(&pool);
  ExpectJoinMatchesSolver(graph, store.PinView(), join.patterns, {}, &join.order);
  EXPECT_EQ(JoinMappings(store.PinView(), join.patterns, nullptr, &join.order).size(), 5u);
}

TEST(JoinHandoffTest, OpenedConjunctRepeatsTheChildVariable) {
  // (?y type rel) AND (?x ?y ?x), bound ?y then ?x: each relation ?y is
  // probed into (?x ?y ?x), and the ?x level opens the (_, y, _) run at
  // that probe, keeping the triples whose subject equals their object.
  TermPool pool;
  RdfGraph graph(&pool);
  IndexedStore store = ChurnedStore(
      &pool, {"type", "rel", "r1", "r2", "r3", "a", "b", "c", "d", "e"},
      {{"r1", "type", "rel"}, {"r2", "type", "rel"}, {"a", "r1", "a"}, {"a", "r1", "b"},
       {"b", "r1", "b"}, {"c", "r2", "d"}, {"d", "r2", "d"}, {"e", "r3", "e"}},
      {{"b", "r1", "b"}}, {{"c", "r2", "c"}}, &graph);
  const TermId x = pool.InternVariable("x");
  const TermId y = pool.InternVariable("y");
  const std::vector<Triple> patterns = {
      Triple(y, pool.InternIri("type"), pool.InternIri("rel")), Triple(x, y, x)};
  const std::vector<TermId> order = {y, x};
  ExpectJoinMatchesSolver(graph, store.PinView(), patterns, {}, &order);
  EXPECT_EQ(JoinMappings(store.PinView(), patterns, nullptr, &order).size(), 3u);
}

TEST(JoinHandoffTest, FullDrainCountsStayAndAnEarlyStopProbesFewerValues) {
  // The city join over 40 persons in two cities, each knowing two
  // others. A full drain's counts are those of a join that locates every
  // range from the root and probes each level's values before
  // descending. Stopped at its first row, the join has probed only the
  // values the walk reached: the first ?y and, under it, the first ?x,
  // where probing each level up front would probe all 20 ?y values of c
  // first.
  TermPool pool;
  RdfGraph graph(&pool);
  for (int i = 0; i < 40; ++i) {
    const std::string person = "p" + std::to_string(i);
    graph.Insert(person, "city", i % 2 == 0 ? "c" : "d");
    graph.Insert(person, "knows", "p" + std::to_string((i * 7 + 3) % 40));
    graph.Insert(person, "knows", "p" + std::to_string((i * 11 + 6) % 40));
  }
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  const CityJoin join(&pool);
  ExpectJoinMatchesSolver(graph, store.PinView(), join.patterns, {}, &join.order);
  ExecStats drain;
  EXPECT_EQ(JoinMappings(store.PinView(), join.patterns, &drain, &join.order).size(), 20u);
  EXPECT_EQ(drain.values_probed, 60u);
  EXPECT_EQ(drain.ranges_scanned, 21u);
  EXPECT_EQ(drain.base_triples_scanned, 60u);
  ExecStats first;
  EXPECT_TRUE(CompiledJoin(store.view(), join.patterns, {}, &first, &join.order)
                  .Extends(nullptr));
  EXPECT_LT(first.values_probed, drain.values_probed);
  EXPECT_EQ(first.values_probed, 2u);
}

// ---------------------------------------------------------------------
// IndexedStore: the copy-budget merge schedule.
// ---------------------------------------------------------------------

/// `n` distinct triples `(<prefix>i p <prefix>i+1)`.
std::vector<Triple> FreshTriples(TermPool* pool, const std::string& prefix, int n) {
  std::vector<Triple> out;
  const TermId p = pool->InternIri("p");
  for (int i = 0; i < n; ++i) {
    out.emplace_back(pool->InternIri(prefix + std::to_string(i)), p,
                     pool->InternIri(prefix + std::to_string(i + 1)));
  }
  return out;
}

TEST(MergeScheduleTest, MergesExactlyWhereTheCopyBudgetRunsOut) {
  // Base N = 200, threshold T = 8, commits of b = 10 fresh triples. The
  // commits build deltas of 10, 20, 30, ...; their running sum reaches
  // N + T = 208 at the 6th commit (10 + ... + 60 = 210), which merges.
  // The new base of 260 needs 268, reached at the 7th commit after it.
  TermPool pool;
  IndexedStore store = testlib::BuildStore(FreshTriples(&pool, "base", 200));
  store.set_merge_threshold(8);
  auto metrics = std::make_shared<MetricsRegistry>();
  store.set_metrics(metrics);
  const Counter& compactions = metrics->counter("store.compactions");
  const std::vector<int> expected_merges = {6, 13, 21, 30, 40};

  std::size_t expected_size = 200;
  uint64_t merges = 0;
  for (int commit = 1; commit <= 40; ++commit) {
    const uint64_t generation_before = store.generation();
    const std::size_t base_before = store.base_size();
    store.ApplyBatch(FreshTriples(&pool, "c" + std::to_string(commit) + "_", 10), {});
    expected_size += 10;
    const bool merged = std::find(expected_merges.begin(), expected_merges.end(),
                                  commit) != expected_merges.end();
    if (merged) ++merges;
    EXPECT_EQ(compactions.value(), merges) << "commit " << commit;
    EXPECT_EQ(store.delta_size() == 0, merged) << "commit " << commit;
    EXPECT_EQ(store.base_size(), merged ? expected_size : base_before)
        << "commit " << commit;
    EXPECT_LT(store.delta_size(), store.base_size() + 8) << "commit " << commit;
    EXPECT_EQ(store.generation(), generation_before + 1) << "commit " << commit;
    EXPECT_EQ(store.view().size(), expected_size) << "commit " << commit;
  }
}

TEST(MergeScheduleTest, CommitLargerThanTheBudgetMergesInsideOneApplyBatch) {
  TermPool pool;
  IndexedStore store = testlib::BuildStore(FreshTriples(&pool, "base", 20));
  store.set_merge_threshold(8);
  auto metrics = std::make_shared<MetricsRegistry>();
  store.set_metrics(metrics);
  const uint64_t generation_before = store.generation();
  // One delta of 40 >= 20 + 8: the budget is spent by this commit alone.
  store.ApplyBatch(FreshTriples(&pool, "big", 40), {});
  EXPECT_EQ(metrics->counter("store.compactions").value(), 1u);
  EXPECT_EQ(metrics->counter("write.publishes").value(), 1u);
  EXPECT_EQ(store.generation(), generation_before + 1);
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.base_size(), 60u);
  EXPECT_EQ(store.view().size(), 60u);
}

TEST(MergeScheduleTest, RemovesSpendTheBudgetToo) {
  // Tombstones are delta entries: removing base triples fills the delta
  // like adds do.
  TermPool pool;
  const std::vector<Triple> base = FreshTriples(&pool, "base", 20);
  IndexedStore store = testlib::BuildStore(base);
  store.set_merge_threshold(4);
  auto metrics = std::make_shared<MetricsRegistry>();
  store.set_metrics(metrics);
  const Counter& compactions = metrics->counter("store.compactions");
  // Deltas of 5, 10: sum 15 < 24. Then 15: sum 30 >= 24, merge.
  store.ApplyBatch({}, {base.begin(), base.begin() + 5});
  store.ApplyBatch({}, {base.begin() + 5, base.begin() + 10});
  EXPECT_EQ(compactions.value(), 0u);
  EXPECT_EQ(store.delta_size(), 10u);
  store.ApplyBatch({}, {base.begin() + 10, base.begin() + 15});
  EXPECT_EQ(compactions.value(), 1u);
  EXPECT_EQ(store.base_size(), 5u);
  EXPECT_EQ(store.view().size(), 5u);
}

TEST(MergeScheduleTest, CommitThatEmptiesTheDeltaPublishesWithoutMerging) {
  // A spent budget over an empty delta has nothing to fold: the commit
  // must still publish its own view. (Reachable when the threshold is
  // lowered after the copies were counted.)
  TermPool pool;
  IndexedStore store = testlib::BuildStore(FreshTriples(&pool, "base", 5));
  store.set_merge_threshold(1000);
  auto metrics = std::make_shared<MetricsRegistry>();
  store.set_metrics(metrics);
  const std::vector<Triple> fresh = FreshTriples(&pool, "fresh", 6);
  store.ApplyBatch({fresh.begin(), fresh.begin() + 3}, {});
  store.ApplyBatch({fresh.begin() + 3, fresh.end()}, {});  // Sum 3 + 6 = 9.
  store.set_merge_threshold(1);                            // Budget 5 + 1 = 6.
  const uint64_t generation_before = store.generation();
  store.ApplyBatch({}, fresh);
  EXPECT_EQ(store.generation(), generation_before + 1);
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.view().size(), 5u);
  EXPECT_EQ(metrics->counter("store.compactions").value(), 0u);
}

TEST(MergeScheduleTest, ZeroThresholdNeverMerges) {
  TermPool pool;
  IndexedStore store = testlib::BuildStore(FreshTriples(&pool, "base", 20));
  store.set_merge_threshold(0);
  auto metrics = std::make_shared<MetricsRegistry>();
  store.set_metrics(metrics);
  for (int commit = 0; commit < 50; ++commit) {
    store.ApplyBatch(FreshTriples(&pool, "c" + std::to_string(commit) + "_", 10), {});
  }
  EXPECT_EQ(metrics->counter("store.compactions").value(), 0u);
  EXPECT_EQ(store.base_size(), 20u);
  EXPECT_EQ(store.delta_size(), 500u);
  store.MergeDelta();  // Explicit compaction still folds everything.
  EXPECT_EQ(store.delta_size(), 0u);
  EXPECT_EQ(store.base_size(), 520u);
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
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  const std::vector<Triple> patterns = {
      Triple(pool.InternIri("y0"), pool.InternIri("email"), pool.InternVariable("e")),
      Triple(pool.InternVariable("e"), pool.InternIri("domain"),
             pool.InternVariable("d"))};
  ExecStats stats;
  EXPECT_EQ(JoinMappings(store.PinView(), patterns, &stats).size(), 1u);
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
// Count gates for wide and deep trees: the top-down walk runs one
// search per node and parent row, never one join per subtree.
// ---------------------------------------------------------------------

/// One execution of `text` over `graph` on `backend`, checked against
/// the set semantics; returns its record.
ExecStats ExecuteAgainstSemantics(const RdfGraph& graph, const std::string& text,
                                  Backend backend, TermPool* pool) {
  Database db(pool);
  testlib::LoadGraph(graph, &db);
  auto pattern = ParsePattern(text, pool);
  EXPECT_TRUE(pattern.ok());
  SessionOptions options;
  options.backend = backend;
  Statement stmt = db.OpenSession(options).PrepareParsed(pattern.value());
  EXPECT_TRUE(stmt.ok()) << stmt.diagnostics().ToString();
  ExecOptions exec;
  exec.collect_stats = true;
  Cursor cursor = stmt.Execute(exec);
  std::vector<Mapping> rows;
  while (cursor.Next()) rows.push_back(cursor.Row());
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  std::sort(rows.begin(), rows.end());
  EXPECT_EQ(rows, Evaluate(*pattern.value(), graph));
  return *cursor.stats();
}

TEST(TreeWalkCountTest, OptStarSearchesEachChildOncePerSubject) {
  // A root (?s type T) with k independent OPT children (?s p_i ?o_i)
  // over 4 subjects; subject j has p_i iff i + j is even. The walk
  // scans the root's range once and each present child's range once per
  // subject; a join per subtree would open all 2^k subtrees.
  for (int k = 2; k <= 12; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    TermPool pool;
    RdfGraph graph(&pool);
    std::string text = "(?s type T)";
    for (int i = 1; i <= k; ++i) {
      const std::string p = "p" + std::to_string(i);
      text = "(" + text + " OPT (?s " + p + " ?o" + std::to_string(i) + "))";
      for (int j = 0; j < 4; ++j) {
        if ((i + j) % 2 == 0) graph.Insert("s" + std::to_string(j), p, "o" + std::to_string(i));
      }
    }
    for (int j = 0; j < 4; ++j) graph.Insert("s" + std::to_string(j), "type", "T");
    for (Backend backend : {Backend::kIndexed, Backend::kNaiveHash}) {
      SCOPED_TRACE(BackendToString(backend));
      const ExecStats stats = ExecuteAgainstSemantics(graph, text, backend, &pool);
      EXPECT_EQ(stats.rows_emitted, 4u);
      EXPECT_EQ(stats.maximality_tests, 4u * k);  // One search per child and subject.
      EXPECT_EQ(stats.candidates, 4u + 2u * k);   // 4 root rows, 2 subjects per child.
      if (backend == Backend::kIndexed) {
        EXPECT_LE(stats.ranges_scanned, 5u * (k + 1));
      }
    }
  }
}

TEST(TreeWalkCountTest, OptChainSearchesEachNodeOncePerParentRow) {
  // A root (?s type T) under a nested chain of k OPTs, each child
  // hanging off the previous child's fresh variable; subject j's chain
  // is j * k / 3 edges long, so the walk stops at a different depth for
  // each subject.
  for (int k = 2; k <= 12; ++k) {
    SCOPED_TRACE("k=" + std::to_string(k));
    TermPool pool;
    RdfGraph graph(&pool);
    std::string text = "(?o" + std::to_string(k - 1) + " p" + std::to_string(k) + " ?o" +
                       std::to_string(k) + ")";
    for (int i = k - 1; i >= 1; --i) {
      text = "((?o" + std::to_string(i - 1) + " p" + std::to_string(i) + " ?o" +
             std::to_string(i) + ") OPT " + text + ")";
    }
    text = "(?o0 type T) OPT " + text;
    for (int j = 0; j < 4; ++j) {
      const std::string s = "s" + std::to_string(j);
      graph.Insert(s, "type", "T");
      std::string at = s;
      for (int i = 1; i <= j * k / 3; ++i) {
        const std::string next = s + "_" + std::to_string(i);
        graph.Insert(at, "p" + std::to_string(i), next);
        at = next;
      }
    }
    for (Backend backend : {Backend::kIndexed, Backend::kNaiveHash}) {
      SCOPED_TRACE(BackendToString(backend));
      const ExecStats stats = ExecuteAgainstSemantics(graph, text, backend, &pool);
      EXPECT_EQ(stats.rows_emitted, 4u);
      EXPECT_LE(stats.maximality_tests, 4u * k);
      if (backend == Backend::kIndexed) {
        EXPECT_LE(stats.ranges_scanned, 5u * (k + 1));
      }
    }
  }
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

// ---------------------------------------------------------------------
// Compiled searches: the indexed backend compiles each node search and
// witness test into a join with input slots read from the tree walk's
// row, the naive oracle runs the CSP solver on the same walk.
// ---------------------------------------------------------------------

/// One execution: its rows, sorted with duplicates kept (a missed dedup
/// shows as a repeated row), and its record.
struct Execution {
  std::vector<Mapping> rows;
  ExecStats stats;
};

Execution ExecuteAll(const Statement& stmt, bool optimize) {
  ExecOptions exec;
  exec.collect_stats = true;
  exec.optimize = optimize;
  Cursor cursor = stmt.Execute(exec);
  Execution run;
  while (cursor.Next()) run.rows.push_back(cursor.Row());
  EXPECT_EQ(cursor.state(), Cursor::State::kExhausted);
  run.stats = *cursor.stats();
  std::sort(run.rows.begin(), run.rows.end());
  return run;
}

/// Runs `pattern` on the naive oracle and on the indexed backend. Both
/// runs must deliver the set semantics over `model`, each answer once,
/// and the indexed run must reach the oracle's verdicts. Returns the
/// oracle's record.
ExecStats ExpectBackendsAgree(const Database& db, const PatternPtr& pattern,
                              const RdfGraph& model, bool optimize = true) {
  SessionOptions naive_options;
  naive_options.backend = Backend::kNaiveHash;
  Statement oracle = db.OpenSession(naive_options).PrepareParsed(pattern);
  Statement indexed = db.OpenSession().PrepareParsed(pattern);
  EXPECT_TRUE(oracle.ok());
  EXPECT_TRUE(indexed.ok());
  if (!oracle.ok() || !indexed.ok()) return {};
  const std::vector<Mapping> expected = Evaluate(*pattern, model);
  const Execution reference = ExecuteAll(oracle, optimize);
  EXPECT_EQ(reference.rows, expected);
  const Execution run = ExecuteAll(indexed, optimize);
  EXPECT_EQ(run.rows, expected);
  EXPECT_EQ(run.stats.candidates, reference.stats.candidates);
  EXPECT_EQ(run.stats.dedup_rejected, reference.stats.dedup_rejected);
  EXPECT_EQ(run.stats.non_maximal, reference.stats.non_maximal);
  EXPECT_EQ(run.stats.maximality_tests, reference.stats.maximality_tests);
  return reference.stats;
}

/// Loads `triples` into `db` and a model graph, in one batch.
void LoadBoth(const std::vector<std::array<const char*, 3>>& triples, Database* db,
              RdfGraph* model) {
  for (const auto& [s, p, o] : triples) model->Insert(s, p, o);
  testlib::LoadGraph(*model, db);
}

TEST(CompiledJoinDifferentialTest, SharedRootUnionsOnDeltaInsertsAndTombstones) {
  // 2- and 3-arm UNIONs whose arms share their root variables: every
  // later arm tests its candidates against the earlier arms' witnesses,
  // with residuals of 1-3 triples and the witnesses' OPT children.
  ExecStats total;
  for (uint64_t seed = 0; seed < 60; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 21);
    TermPool pool;
    PatternPtr pattern = testlib::RandomSharedRootUnion(
        &rng, &pool, 2 + static_cast<int>(rng.NextBounded(2)));
    RdfGraph base(&pool);
    testlib::SmallWorkloadGraph(&rng, 4, 16, 3, &base);
    RdfGraph inserts(&pool);
    testlib::SmallWorkloadGraph(&rng, 4, 6, 3, &inserts);
    Database db(&pool);
    testlib::LoadGraph(base, &db);
    // Tombstone about a fifth of the base, then insert into the delta;
    // the merge threshold keeps both un-merged.
    RdfGraph model(&pool);
    for (const Triple& t : base.triples()) {
      if (rng.NextBernoulli(0.2)) {
        ASSERT_TRUE(db.RemoveTriple(t));
      } else {
        model.Insert(t);
      }
    }
    for (const Triple& t : inserts.triples()) {
      db.AddTriple(t);
      model.Insert(t);
    }
    ASSERT_GT(db.pending_delta(), 0u);
    const ExecStats stats = ExpectBackendsAgree(db, pattern, model);
    total.dedup_rejected += stats.dedup_rejected;
    total.non_maximal += stats.non_maximal;
    total.rows_emitted += stats.rows_emitted;
  }
  // The sweep reaches every verdict.
  EXPECT_GT(total.dedup_rejected, 0u);
  EXPECT_GT(total.non_maximal, 0u);
  EXPECT_GT(total.rows_emitted, 0u);
}

TEST(CompiledJoinTest, ResidualOutsideEveryCyclicOrderRewindsItsProbe) {
  // The second arm binds x, z, y (x sits in three conjuncts, z in two),
  // so its rows ascend by (x, z, y). The first arm's residual (?x ?y ?z)
  // reads its slots in no cyclic order: the probe takes SPO, whose keys
  // (x, y, z) descend each time z advances. The residual's triples
  // (a p1 c2) and (a p2 c1) sit on both sides of that descent, whatever
  // order the ids take, so a probe that kept seeking forward would miss
  // one and emit a duplicate.
  TermPool pool;
  Database db(&pool);
  RdfGraph model(&pool);
  LoadBoth({{"a", "p", "c1"}, {"c1", "q", "a"}, {"a", "p", "c2"}, {"c2", "q", "a"},
            {"a", "r", "p1"}, {"a", "r", "p2"}, {"a", "p1", "c2"}, {"a", "p2", "c1"}},
           &db, &model);
  auto pattern = ParsePattern(
      "((?x ?y ?z) AND (?x r ?y)) UNION ((?x p ?z) AND (?z q ?x) AND (?x r ?y))", &pool);
  ASSERT_TRUE(pattern.ok());
  ExpectBackendsAgree(db, pattern.value(), model, /*optimize=*/false);
  Statement stmt = db.OpenSession().PrepareParsed(pattern.value());
  const Execution run = ExecuteAll(stmt, /*optimize=*/false);
  EXPECT_EQ(run.rows.size(), 4u);
  EXPECT_EQ(run.stats.dedup_rejected, 2u);
}

TEST(CompiledJoinTest, ChildConstantAbsentFromTheStoreNeverExtends) {
  // `absent` is in no triple, so neither child can extend a candidate:
  // neither the open subtree's nor the earlier witness's. Read as a
  // wildcard, (?y absent ?z) would match b's outgoing triples.
  TermPool pool;
  Database db(&pool);
  RdfGraph model(&pool);
  LoadBoth({{"a", "p", "b"}, {"b", "q", "a"}, {"b", "p", "c"}, {"c", "r", "d"}},
           &db, &model);
  auto pattern = ParsePattern(
      "((?x p ?y) OPT (?y absent ?z)) UNION (((?x p ?y) AND (?y q ?x)) OPT (?x absent ?w))",
      &pool);
  ASSERT_TRUE(pattern.ok());
  ExpectBackendsAgree(db, pattern.value(), model);
  Statement stmt = db.OpenSession().PrepareParsed(pattern.value());
  const Execution run = ExecuteAll(stmt, true);
  EXPECT_EQ(run.rows.size(), 2u);  // (a, b) and (b, c), each once.
  EXPECT_EQ(run.stats.non_maximal, 0u);
  EXPECT_EQ(run.stats.dedup_rejected, 1u);
}

TEST(CompiledJoinTest, ChildTripleTheCandidateGroundsIsStillTested) {
  // The child's (?x r ?y) is ground under a candidate, but unlike
  // pat(T') the candidate has not matched it: (a, b) has (b q c) and no
  // (a r b), so it is maximal; (c, d) extends to e.
  TermPool pool;
  Database db(&pool);
  RdfGraph model(&pool);
  LoadBoth({{"a", "p", "b"}, {"b", "q", "c"}, {"b", "s", "a"},
            {"c", "p", "d"}, {"d", "q", "e"}, {"c", "r", "d"}, {"d", "s", "c"}},
           &db, &model);
  for (const char* text :
       {"(?x p ?y) OPT ((?y q ?z) AND (?x r ?y))",
        "((?x p ?y) OPT ((?y q ?z) AND (?x r ?y))) UNION ((?x p ?y) AND (?y s ?x))"}) {
    SCOPED_TRACE(text);
    auto pattern = ParsePattern(text, &pool);
    ASSERT_TRUE(pattern.ok());
    ExpectBackendsAgree(db, pattern.value(), model);
  }
}

TEST(CompiledJoinTest, GroundRowsAreMembershipTests) {
  // Every pattern is ground under the row: each is one whole-triple
  // probe, and compiling encodes only the patterns' own constants.
  TermPool pool;
  RdfGraph graph(&pool);
  graph.Insert("a", "p", "b");
  graph.Insert("b", "q", "a");
  graph.Insert("b", "q", "c");
  IndexedStore store = testlib::BuildStore(graph.triples().triples());
  store.set_merge_threshold(0);
  store.ApplyBatch({}, {Triple(pool.InternIri("b"), pool.InternIri("q"),
                               pool.InternIri("c"))});
  const TermId x = pool.InternVariable("x");
  const TermId y = pool.InternVariable("y");
  const std::vector<Triple> patterns = {Triple(x, pool.InternIri("p"), y),
                                        Triple(y, pool.InternIri("q"), x)};
  ExecStats stats;
  EXPECT_TRUE(CompiledExtends(store.view(), patterns,
                              testlib::MakeMapping(&pool, {{"x", "a"}, {"y", "b"}}),
                              &stats));
  EXPECT_EQ(stats.dict_encodes, 2u);  // p and q.
  EXPECT_EQ(stats.ranges_scanned, 0u);
  // (b q c) is tombstoned.
  EXPECT_FALSE(CompiledExtends(store.view(), {Triple(y, pool.InternIri("q"), x)},
                               testlib::MakeMapping(&pool, {{"x", "c"}, {"y", "b"}})));
  // A constant the store never saw fails every row.
  EXPECT_FALSE(CompiledExtends(store.view(),
                               {Triple(x, pool.InternIri("p"), y),
                                Triple(y, pool.InternIri("zz"), x)},
                               testlib::MakeMapping(&pool, {{"x", "a"}, {"y", "b"}})));
}

/// `dict_encodes` of one execution of the two-arm query below over a
/// city of `persons` persons: each knows the next, follows the next when
/// even, and has an email when even.
ExecStats EncodesOverCity(int persons) {
  TermPool pool;
  Database db(&pool);
  WriteBatch batch;
  for (int i = 0; i < persons; ++i) {
    const std::string person = "p" + std::to_string(i);
    const std::string next = "p" + std::to_string((i + 1) % persons);
    batch.Add(person, "city", "c");
    batch.Add(person, "knows", next);
    if (i % 2 == 0) {
      batch.Add(person, "follows", next);
      batch.Add(person, "email", "e" + std::to_string(i));
    }
  }
  EXPECT_TRUE(db.Apply(std::move(batch)).ok());
  db.Compact();
  Statement stmt = db.OpenSession().Prepare(
      "(((?x city c) AND (?x knows ?y) AND (?y city c)) OPT (?y email ?e)) UNION "
      "((?x city c) AND (?x follows ?y) AND (?y city c))");
  EXPECT_TRUE(stmt.ok());
  return ExecuteAll(stmt, true).stats;
}

TEST(CompiledJoinTest, DictEncodesCountEachCompiledConstantOnce) {
  // Constant occurrences, each encoded once per compiled search:
  //  - the first arm's root: join 5, its child (?y email ?e) 1;
  //  - the second arm: join 5, and the first arm's root as its witness,
  //    with residual (?x knows ?y) 1 and certificate (?y email ?e) 1.
  const ExecStats small = EncodesOverCity(8);
  const ExecStats large = EncodesOverCity(32);
  EXPECT_EQ(large.candidates, 4 * small.candidates);
  EXPECT_EQ(small.dict_encodes, 13u);
  EXPECT_EQ(large.dict_encodes, 13u);
}

}  // namespace
}  // namespace wdsparql
