#include <gtest/gtest.h>

#include "ptree/forest.h"
#include "ptree/semantics.h"
#include "sparql/parser.h"
#include "sparql/semantics.h"
#include "support/testlib.h"
#include "wd/paper_examples.h"

namespace wdsparql {
namespace {

class ForestTest : public ::testing::Test {
 protected:
  PatternPtr Parse(const char* text) {
    auto result = ParsePattern(text, &pool_);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.value();
  }

  TermPool pool_;
};

TEST_F(ForestTest, TripleBecomesSingleNodeTree) {
  auto tree = BuildPatternTree(Parse("(?x p ?y)"), pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().NumNodes(), 1);
  EXPECT_EQ(tree.value().pattern(0).size(), 1u);
}

TEST_F(ForestTest, AndMergesIntoRoot) {
  auto tree = BuildPatternTree(Parse("(?x p ?y) AND (?y q ?z) AND (?z r ?x)"), pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().NumNodes(), 1);
  EXPECT_EQ(tree.value().pattern(0).size(), 3u);
}

TEST_F(ForestTest, OptBecomesChild) {
  auto tree = BuildPatternTree(Parse("(?x p ?y) OPT (?y q ?z)"), pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().NumNodes(), 2);
  EXPECT_EQ(tree.value().children(0).size(), 1u);
}

TEST_F(ForestTest, NestedOptStructure) {
  // ((t1 OPT t2) OPT t3): both optional blocks hang off the root.
  auto tree =
      BuildPatternTree(Parse("((?x p ?y) OPT (?y q ?z)) OPT (?x r ?w)"), pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().NumNodes(), 3);
  EXPECT_EQ(tree.value().children(0).size(), 2u);
}

TEST_F(ForestTest, RightNestedOptMakesChain) {
  // t1 OPT (t2 OPT t3): chain root -> n -> m.
  auto tree =
      BuildPatternTree(Parse("(?x p ?y) OPT ((?y q ?z) OPT (?z r ?w))"), pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().NumNodes(), 3);
  ASSERT_EQ(tree.value().children(0).size(), 1u);
  NodeId mid = tree.value().children(0)[0];
  EXPECT_EQ(tree.value().children(mid).size(), 1u);
}

TEST_F(ForestTest, AndDistributesOverOptChildren) {
  // (t1 OPT t2) AND (t3 OPT t4): one root {t1, t3} with two children.
  auto tree = BuildPatternTree(
      Parse("((?x p ?y) OPT (?y q ?z)) AND ((?x r ?v) OPT (?v q ?u))"), pool_);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree.value().NumNodes(), 3);
  EXPECT_EQ(tree.value().pattern(0).size(), 2u);
  EXPECT_EQ(tree.value().children(0).size(), 2u);
}

TEST_F(ForestTest, PaperExample2Forest) {
  // wdpf(P) = {T1, T2} for P = P1 UNION ((?x,p,?y) OPT ((?z,q,?x) AND (?w,q,?z))).
  PatternPtr p1 = MakeExample1P1(&pool_);
  PatternPtr arm2 = Parse("(?x p ?y) OPT ((?z q ?x) AND (?w q ?z))");
  PatternPtr p = GraphPattern::MakeUnion(p1, arm2);
  auto forest = BuildPatternForest(p, pool_);
  ASSERT_TRUE(forest.ok());
  ASSERT_EQ(forest.value().trees.size(), 2u);
  // T1: root {(?x,p,?y)} with children {(?z,q,?x)} and the K2 block.
  const PatternTree& t1 = forest.value().trees[0];
  EXPECT_EQ(t1.NumNodes(), 3);
  EXPECT_EQ(t1.children(0).size(), 2u);
  // T2: root plus one child of two triples.
  const PatternTree& t2 = forest.value().trees[1];
  EXPECT_EQ(t2.NumNodes(), 2);
  EXPECT_EQ(t2.pattern(1).size(), 2u);
}

TEST_F(ForestTest, RejectsNonWellDesigned) {
  PatternPtr p2 = MakeExample1P2(&pool_);
  auto forest = BuildPatternForest(p2, pool_);
  ASSERT_FALSE(forest.ok());
  EXPECT_EQ(forest.status().code(), StatusCode::kNotWellDesigned);
  // The forest checks the whole pattern once, so an operand that breaks
  // the condition fails it too; a single tree is checked on its own.
  auto with_bad_operand = BuildPatternForest(
      Parse("(?x p ?y) UNION (((?x p ?x) OPT (?x q ?y)) AND (?y p ?y))"), pool_);
  ASSERT_FALSE(with_bad_operand.ok());
  EXPECT_EQ(with_bad_operand.status().code(), StatusCode::kNotWellDesigned);
  auto tree = BuildPatternTree(Parse("((?x p ?x) OPT (?x q ?y)) AND (?y p ?y)"), pool_);
  ASSERT_FALSE(tree.ok());
  EXPECT_EQ(tree.status().code(), StatusCode::kNotWellDesigned);
}

TEST_F(ForestTest, RejectsUnionForSingleTree) {
  auto tree = BuildPatternTree(Parse("(?x p ?y) UNION (?x q ?y)"), pool_);
  EXPECT_FALSE(tree.ok());
}

TEST_F(ForestTest, TreesAreNrNormalForm) {
  Rng rng(17);
  for (int i = 0; i < 30; ++i) {
    PatternPtr p = testlib::RandomWellDesignedUnion(&rng, &pool_, 2);
    auto forest = BuildPatternForest(p, pool_);
    ASSERT_TRUE(forest.ok());
    for (const PatternTree& tree : forest.value().trees) {
      EXPECT_TRUE(tree.IsNrNormalForm());
      EXPECT_TRUE(tree.Validate().ok());
    }
  }
}

TEST_F(ForestTest, NrRewriteDoesNotChangeSemantics) {
  // Compare JTKG between the NR tree and the raw (non-NR) tree on random
  // data, for a pattern with a redundant gate node.
  PatternPtr p = Parse("(?x p0 ?y) OPT ((?x p1 ?y) OPT (?y p0 ?z))");
  WdpfOptions raw_options;
  raw_options.nr_normal_form = false;
  auto raw = BuildPatternTree(p, pool_, raw_options);
  auto nr = BuildPatternTree(p, pool_);
  ASSERT_TRUE(raw.ok());
  ASSERT_TRUE(nr.ok());
  EXPECT_FALSE(raw.value().IsNrNormalForm());
  EXPECT_TRUE(nr.value().IsNrNormalForm());

  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    RdfGraph g(&pool_);
    testlib::SmallWorkloadGraph(&rng, 4, 16, 2, &g);
    EXPECT_EQ(EnumerateTreeSolutions(raw.value(), g),
              EnumerateTreeSolutions(nr.value(), g))
        << "trial " << trial;
  }
}

TEST_F(ForestTest, WdpfPreservesSemanticsOnRandomPatterns) {
  // JPKG (AST semantics) == JFKG (Lemma 1 semantics over wdpf(P)).
  Rng rng(41);
  for (int trial = 0; trial < 25; ++trial) {
    PatternPtr p = testlib::RandomWellDesignedUnion(&rng, &pool_, 2);
    auto forest = BuildPatternForest(p, pool_);
    ASSERT_TRUE(forest.ok());
    RdfGraph g(&pool_);
    testlib::SmallWorkloadGraph(&rng, 4, 14, 3, &g);
    EXPECT_EQ(Evaluate(*p, g), EnumerateForestSolutions(forest.value(), g))
        << "trial " << trial << ": " << p->ToString(pool_);
  }
}

TEST_F(ForestTest, FkPatternMatchesFkForestShape) {
  for (int k = 2; k <= 3; ++k) {
    auto built = BuildPatternForest(MakeFkPattern(&pool_, k), pool_);
    ASSERT_TRUE(built.ok());
    PatternForest direct = MakeFkForest(&pool_, k);
    ASSERT_EQ(built.value().trees.size(), direct.trees.size());
    for (std::size_t i = 0; i < direct.trees.size(); ++i) {
      EXPECT_EQ(built.value().trees[i].NumNodes(), direct.trees[i].NumNodes());
      EXPECT_TRUE(built.value().trees[i].TreePattern() ==
                  direct.trees[i].TreePattern());
    }
  }
}

}  // namespace
}  // namespace wdsparql
