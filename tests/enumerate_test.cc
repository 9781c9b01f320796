#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ptree/forest.h"
#include "ptree/semantics.h"
#include "rdf/scan.h"
#include "sparql/parser.h"
#include "sparql/semantics.h"
#include "support/testlib.h"
#include "wd/enumerate.h"
#include "wd/paper_examples.h"

namespace wdsparql {
namespace {

class EnumerateTest : public ::testing::Test {
 protected:
  PatternForest Forest(const char* text) {
    auto pattern = ParsePattern(text, &pool_);
    EXPECT_TRUE(pattern.ok()) << pattern.status().ToString();
    auto forest = BuildPatternForest(pattern.value(), pool_);
    EXPECT_TRUE(forest.ok()) << forest.status().ToString();
    return std::move(forest).value();
  }

  TermPool pool_;
};

TEST_F(EnumerateTest, StreamsEveryAnswerOnce) {
  PatternForest forest = Forest("(?x p ?y) OPT (?y q ?z)");
  RdfGraph g(&pool_);
  g.Insert("a", "p", "b");
  g.Insert("c", "p", "d");
  g.Insert("b", "q", "e");

  std::vector<Mapping> streamed;
  ExecStats stats;
  EnumerateSolutionsNaive(
      forest, g,
      [&](const Mapping& mu) {
        streamed.push_back(mu);
        return true;
      },
      &stats);
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, EnumerateForestSolutions(forest, g));
  EXPECT_EQ(stats.rows_emitted, streamed.size());
  EXPECT_GE(stats.candidates, stats.rows_emitted);
}

TEST_F(EnumerateTest, EarlyStopRespectsCallback) {
  PatternForest forest = Forest("(?x p ?y)");
  RdfGraph g(&pool_);
  for (int i = 0; i < 8; ++i) g.Insert("s" + std::to_string(i), "p", "o");
  int seen = 0;
  EnumerateSolutionsNaive(forest, g, [&](const Mapping&) { return ++seen < 3; });
  EXPECT_EQ(seen, 3);
}

TEST_F(EnumerateTest, PebbleEnumerationIsSoundAtAnyK) {
  // Even with k far below dw, everything emitted must be a real answer.
  TermPool& pool = pool_;
  PatternForest forest;
  forest.trees.push_back(MakeCliqueBranchTree(&pool, 4));  // dw = 3.
  RdfGraph g(&pool);
  g.Insert("s", "p", "s");
  g.Insert("s", "q", "t");
  g.Insert("t", "r", "u");

  std::vector<Mapping> truth = EnumerateForestSolutions(forest, g);
  for (int k = 1; k <= 3; ++k) {
    for (const Mapping& mu : AllSolutionsPebble(forest, g, k)) {
      EXPECT_TRUE(std::find(truth.begin(), truth.end(), mu) != truth.end())
          << "k=" << k << " emitted non-answer " << mu.ToString(pool);
    }
  }
  // At k = dw the enumeration is exact.
  EXPECT_EQ(AllSolutionsPebble(forest, g, 3), truth);
}

TEST_F(EnumerateTest, FkFamilyEnumerationAtPromiseOne) {
  for (int k = 2; k <= 3; ++k) {
    PatternForest forest = MakeFkForest(&pool_, k);
    RdfGraph g(&pool_);
    g.Insert("a", "p", "b");
    g.Insert("c", "q", "a");
    g.Insert("d", "q", "c");
    g.Insert("b", "r", "e");
    g.Insert("e", "r", "e");
    EXPECT_EQ(AllSolutionsPebble(forest, g, 1), EnumerateForestSolutions(forest, g))
        << "k=" << k;
  }
}

TEST_F(EnumerateTest, CountSolutionsOnSocialShapes) {
  PatternForest forest = Forest("(?p a Person) OPT (?p email ?e)");
  RdfGraph g(&pool_);
  g.Insert("alice", "a", "Person");
  g.Insert("bob", "a", "Person");
  g.Insert("alice", "email", "a@x");
  EXPECT_EQ(CountSolutions(forest, g), 2u);
  g.Insert("alice", "email", "a2@x");
  EXPECT_EQ(CountSolutions(forest, g), 3u);  // Two alice answers + bob.
}

TEST_F(EnumerateTest, EmptyGraphStreamsNothing) {
  PatternForest forest = Forest("(?x p ?y) OPT (?y q ?z)");
  RdfGraph g(&pool_);
  EXPECT_EQ(CountSolutions(forest, g), 0u);
  EXPECT_TRUE(AllSolutionsPebble(forest, g, 1).empty());
}

TEST_F(EnumerateTest, UnionArmsDeduplicate) {
  // A later tree's candidate is a duplicate iff the earlier tree's
  // witness subtree (same variables) accepts it: its residual triples
  // hold and none of its children extends it.
  struct Case {
    const char* pattern;
    std::vector<std::array<const char*, 3>> triples;
    uint64_t rows;
    uint64_t dedup_rejected;
  };
  const Case cases[] = {
      // Identical arms: the witness has no residual and no child.
      {"(?x p ?y) UNION (?x p ?y)", {{"a", "p", "b"}}, 1, 1},
      // Arms that differ in one triple (non-empty residual): (a, b)
      // satisfies both arms, (c, d) only the second, (e, f) only the
      // first.
      {"((?x p ?y) AND (?y q ?x)) UNION ((?x p ?y) AND (?y r ?x))",
       {{"a", "p", "b"}, {"b", "q", "a"}, {"b", "r", "a"},
        {"c", "p", "d"}, {"d", "r", "c"},
        {"e", "p", "f"}, {"f", "q", "e"}},
       3, 1},
      // The earlier witness's OPT child extends (a, b): the first tree
      // emits (a, b, c) instead, so (a, b) must still come out of the
      // second tree.
      {"((?x p ?y) OPT (?y q ?z)) UNION (?x p ?y)",
       {{"a", "p", "b"}, {"b", "q", "c"}}, 2, 0},
      // The earlier witness's child does not extend (d, e): the first
      // tree emitted it already.
      {"((?x p ?y) OPT (?y q ?z)) UNION (?x p ?y)", {{"d", "p", "e"}}, 1, 1},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.pattern);
    auto pattern = ParsePattern(c.pattern, &pool_);
    ASSERT_TRUE(pattern.ok());
    PatternForest forest = Forest(c.pattern);
    RdfGraph g(&pool_);
    for (const auto& [s, p, o] : c.triples) g.Insert(s, p, o);

    std::vector<Mapping> streamed;
    ExecStats stats;
    EnumerateSolutionsNaive(
        forest, g,
        [&](const Mapping& mu) {
          streamed.push_back(mu);
          return true;
        },
        &stats);
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(streamed, Evaluate(*pattern.value(), g));
    EXPECT_EQ(streamed.size(), c.rows);
    EXPECT_EQ(stats.dedup_rejected, c.dedup_rejected);
    EXPECT_EQ(stats.candidates,
              stats.dedup_rejected + stats.non_maximal + stats.rows_emitted);
  }
}

using EnumerateDeathTest = EnumerateTest;

TEST_F(EnumerateDeathTest, RejectsAForestOutsideNrNormalForm) {
  // Without NR normal form a mapping's subtree is not unique, so an
  // enumeration without an answer set could repeat answers: the
  // enumerator refuses such a forest outright.
  auto pattern = ParsePattern("(?x p0 ?y) OPT ((?x p1 ?y) OPT (?y p0 ?z))", &pool_);
  ASSERT_TRUE(pattern.ok());
  WdpfOptions raw_options;
  raw_options.nr_normal_form = false;
  auto raw = BuildPatternTree(pattern.value(), pool_, raw_options);
  ASSERT_TRUE(raw.ok());
  ASSERT_FALSE(raw.value().IsNrNormalForm());  // The (?x p1 ?y) gate is redundant.
  PatternForest forest;
  forest.trees.push_back(std::move(raw).value());
  RdfGraph g(&pool_);
  g.Insert("a", "p0", "b");
  EXPECT_DEATH(EnumerateSolutionsNaive(forest, g, [](const Mapping&) { return true; }),
               "IsNrNormalForm");
}

/// The CSP solver's candidates, with every extension test run on its
/// reduced form instead of the literal one.
class ReducedTestGenerator final : public CandidateGenerator {
 public:
  ReducedTestGenerator(const TripleSet& pattern, const std::vector<ExtensionTest>& tests,
                       const TripleSource& source, const std::function<bool()>& stop)
      : candidates_(MaterializeHomomorphisms(pattern, {}, source, 0, stop)), source_(source) {
    for (const ExtensionTest& test : tests) reduced_.push_back(test.reduced);
  }

  bool Next(Mapping* out) override { return candidates_->Next(out); }

  bool Extends(std::size_t test, const Mapping& mu) override {
    return LiteralExtends(reduced_[test], mu, source_, 0);
  }

 private:
  std::unique_ptr<CandidateGenerator> candidates_;
  const TripleSource& source_;
  std::vector<TripleSet> reduced_;
};

TripleSet Triples(TermPool* pool, const std::vector<std::array<const char*, 3>>& spelled) {
  TripleSet out;
  for (const auto& [s, p, o] : spelled) {
    auto term = [pool](const char* t) {
      return t[0] == '?' ? pool->InternVariable(t + 1) : pool->InternIri(t);
    };
    out.Insert(Triple(term(s), term(p), term(o)));
  }
  return out;
}

TEST_F(EnumerateTest, SubtreesOpenWithLiteralAndReducedTests) {
  // The second arm's root has the first arm's root as its witness: the
  // residual (?y q ?x) first, then the witness's child, whose literal
  // certificate carries pat(W) and whose reduced form is pat(c) alone.
  PatternForest forest = Forest(
      "(((?x p ?y) AND (?y q ?x)) OPT (?y s ?z)) UNION ((?x p ?y) AND (?y r ?x))");
  RdfGraph g(&pool_);
  HashTripleSource scan(g.triples());
  std::vector<std::pair<TripleSet, std::vector<ExtensionTest>>> opened;
  EnumerationHooks hooks;
  hooks.open_subtree = [&](const TripleSet& pattern, const std::vector<ExtensionTest>& tests,
                           const std::function<bool()>& stop) {
    opened.emplace_back(pattern, tests);
    return MaterializeHomomorphisms(pattern, tests, scan, 0, stop);
  };
  SolutionEnumerator enumerator(forest, std::move(hooks));
  Mapping mu;
  EXPECT_FALSE(enumerator.Next(&mu));
  ASSERT_EQ(opened.size(), 3u);  // {root}, {root, child}; the second arm's root.

  const TripleSet root0 = Triples(&pool_, {{"?x", "p", "?y"}, {"?y", "q", "?x"}});
  const TripleSet child = Triples(&pool_, {{"?y", "s", "?z"}});
  TripleSet certificate = root0;
  certificate.InsertAll(child);
  for (const auto& [pattern, tests] : opened) {
    if (pattern == root0) {
      ASSERT_EQ(tests.size(), 1u);
      EXPECT_EQ(tests[0].literal, certificate);
      EXPECT_EQ(tests[0].reduced, child);
    } else if (pattern.size() == 3) {
      EXPECT_TRUE(tests.empty());  // The whole first tree: no child left.
    } else {
      EXPECT_EQ(pattern, Triples(&pool_, {{"?x", "p", "?y"}, {"?y", "r", "?x"}}));
      ASSERT_EQ(tests.size(), 2u);
      const TripleSet residual = Triples(&pool_, {{"?y", "q", "?x"}});
      EXPECT_EQ(tests[0].literal, residual);
      EXPECT_EQ(tests[0].reduced, residual);
      EXPECT_EQ(tests[1].literal, certificate);
      EXPECT_EQ(tests[1].reduced, child);
    }
  }
}

TEST_F(EnumerateTest, ReducedTestsDecideLikeTheLiteralOnes) {
  // Over UNIONs whose arms share their roots (witnesses with residuals
  // and children), running every test on its reduced form streams the
  // same answers with the same verdicts as the paper's literal tests.
  Rng rng(2024);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    PatternPtr p = testlib::RandomSharedRootUnion(
        &rng, &pool_, 2 + static_cast<int>(rng.NextBounded(2)));
    auto forest = BuildPatternForest(p, pool_);
    ASSERT_TRUE(forest.ok());
    RdfGraph g(&pool_);
    testlib::SmallWorkloadGraph(&rng, 4, 14, 3, &g);
    HashTripleSource scan(g.triples());

    std::vector<Mapping> literal;
    ExecStats literal_stats;
    EnumerateSolutionsNaive(
        forest.value(), g,
        [&](const Mapping& mu) {
          literal.push_back(mu);
          return true;
        },
        &literal_stats);
    EnumerationHooks hooks;
    hooks.open_subtree = [&scan](const TripleSet& pattern,
                                 const std::vector<ExtensionTest>& tests,
                                 const std::function<bool()>& stop) {
      return std::make_unique<ReducedTestGenerator>(pattern, tests, scan, stop);
    };
    SolutionEnumerator enumerator(forest.value(), std::move(hooks));
    std::vector<Mapping> reduced;
    Mapping mu;
    while (enumerator.Next(&mu)) reduced.push_back(mu);

    EXPECT_EQ(reduced, literal);  // Same candidate order, same verdicts.
    EXPECT_EQ(enumerator.stats().dedup_rejected, literal_stats.dedup_rejected);
    EXPECT_EQ(enumerator.stats().non_maximal, literal_stats.non_maximal);
    EXPECT_EQ(enumerator.stats().maximality_tests, literal_stats.maximality_tests);
    std::sort(literal.begin(), literal.end());
    EXPECT_EQ(literal, Evaluate(*p, g));
  }
}

TEST_F(EnumerateTest, RandomAgreementSweep) {
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    PatternPtr p = testlib::RandomWellDesignedUnion(&rng, &pool_, 2);
    auto forest = BuildPatternForest(p, pool_);
    ASSERT_TRUE(forest.ok());
    RdfGraph g(&pool_);
    testlib::SmallWorkloadGraph(&rng, 4, 12, 3, &g);
    std::vector<Mapping> expected = Evaluate(*p, g);
    EXPECT_EQ(CountSolutions(forest.value(), g), expected.size());
    std::vector<Mapping> streamed;
    EnumerateSolutionsNaive(forest.value(), g, [&](const Mapping& mu) {
      streamed.push_back(mu);
      return true;
    });
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(streamed, expected);
  }
}

}  // namespace
}  // namespace wdsparql
