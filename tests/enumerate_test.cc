#include <gtest/gtest.h>

#include <algorithm>

#include "ptree/forest.h"
#include "ptree/semantics.h"
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
  PatternForest forest = Forest("(?x p ?y) UNION (?x p ?y)");
  RdfGraph g(&pool_);
  g.Insert("a", "p", "b");
  EXPECT_EQ(CountSolutions(forest, g), 1u);
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
