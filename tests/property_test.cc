#include <gtest/gtest.h>

#include <algorithm>

#include "hom/homomorphism.h"
#include "hom/pebble.h"
#include "hom/treewidth.h"
#include "ptree/forest.h"
#include "ptree/semantics.h"
#include "rdf/generator.h"
#include "sparql/semantics.h"
#include "support/testlib.h"
#include "wd/branch_width.h"
#include "wd/domination.h"
#include "wd/enumerate.h"
#include "wd/eval.h"
#include "wd/local_tractability.h"
#include "wd/paper_examples.h"
#include "wdsparql/database.h"

namespace wdsparql {
namespace {

// ---------------------------------------------------------------------
// Random-workload sweep: one seed per instantiation, every core
// agreement property checked on the same pattern/graph draw.
// ---------------------------------------------------------------------

constexpr uint64_t kBranchingSeeds = 1000;

class RandomWorkloadProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    // Seeds from kBranchingSeeds on draw branching forests: trees of
    // depth >= 3 with nodes of >= 2 OPT children, and UNIONs of them
    // whose witnesses span many sets of active nodes.
    pattern_ = GetParam() >= kBranchingSeeds
                   ? testlib::RandomBranchingUnion(
                         &rng, &pool_, 1 + static_cast<int>(rng.NextBounded(3)))
                   : testlib::RandomWellDesignedUnion(&rng, &pool_, 2);
    auto forest = BuildPatternForest(pattern_, pool_);
    ASSERT_TRUE(forest.ok());
    forest_ = std::move(forest).value();
    graph_.emplace(&pool_);
    testlib::SmallWorkloadGraph(&rng, 5, 16, 3, &graph_.value());
    answers_ = Evaluate(*pattern_, graph_.value());
    Rng probe_rng(GetParam() ^ 0xfeed);
    probes_ = testlib::MembershipProbes(pattern_, graph_.value(), &probe_rng, 6);
  }

  bool IsAnswer(const Mapping& mu) const {
    return std::find(answers_.begin(), answers_.end(), mu) != answers_.end();
  }

  TermPool pool_;
  PatternPtr pattern_;
  PatternForest forest_;
  std::optional<RdfGraph> graph_;
  std::vector<Mapping> answers_;
  std::vector<Mapping> probes_;
};

TEST_P(RandomWorkloadProperty, ForestIsNrNormalFormAndValid) {
  for (const PatternTree& tree : forest_.trees) {
    EXPECT_TRUE(tree.IsNrNormalForm());
    EXPECT_TRUE(tree.Validate().ok());
  }
}

TEST_P(RandomWorkloadProperty, AstAndLemma1SemanticsAgree) {
  EXPECT_EQ(answers_, EnumerateForestSolutions(forest_, graph_.value()));
}

TEST_P(RandomWorkloadProperty, NaiveMembershipMatchesGroundTruth) {
  for (const Mapping& probe : probes_) {
    EXPECT_EQ(NaiveWdEval(forest_, graph_.value(), probe), IsAnswer(probe))
        << probe.ToString(pool_);
  }
}

TEST_P(RandomWorkloadProperty, PebbleAcceptanceIsSound) {
  for (const Mapping& probe : probes_) {
    for (int k = 1; k <= 3; ++k) {
      if (PebbleWdEval(forest_, graph_.value(), probe, k)) {
        EXPECT_TRUE(IsAnswer(probe)) << "k=" << k << " " << probe.ToString(pool_);
      }
    }
  }
}

TEST_P(RandomWorkloadProperty, PebbleCompleteUnderPromise) {
  Result<int> dw = DominationWidth(forest_, &pool_);
  if (!dw.ok() || dw.value() > 3) GTEST_SKIP() << "outside budgeted promise";
  for (const Mapping& probe : probes_) {
    EXPECT_EQ(PebbleWdEval(forest_, graph_.value(), probe, dw.value()),
              IsAnswer(probe));
  }
}

TEST_P(RandomWorkloadProperty, NaiveEnumerationMatchesAnswers) {
  std::vector<Mapping> streamed;
  EnumerateSolutionsNaive(forest_, graph_.value(), [&](const Mapping& mu) {
    streamed.push_back(mu);
    return true;
  });
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, answers_);
}

TEST_P(RandomWorkloadProperty, CountMatchesAnswerSetSize) {
  EXPECT_EQ(CountSolutions(forest_, graph_.value()), answers_.size());
}

TEST_P(RandomWorkloadProperty, EngineBackendsAgreeOnVerdictsAndSolutions) {
  Database db(&pool_);
  testlib::LoadGraph(graph_.value(), &db);
  SessionOptions naive_options;
  naive_options.backend = Backend::kNaiveHash;
  SessionOptions indexed_options;
  indexed_options.backend = Backend::kIndexed;
  Statement naive_q = db.OpenSession(naive_options).PrepareParsed(pattern_);
  Statement indexed_q = db.OpenSession(indexed_options).PrepareParsed(pattern_);
  ASSERT_TRUE(naive_q.ok());
  ASSERT_TRUE(indexed_q.ok());

  // Identical enumerated solution sets, both equal to the ground truth,
  // and the same under a pebble promise, which enumeration ignores.
  EXPECT_EQ(naive_q.Solutions(), answers_);
  EXPECT_EQ(indexed_q.Solutions(), answers_);
  SessionOptions promise_options = naive_options;
  promise_options.pebble_promise = 1;
  EXPECT_EQ(db.OpenSession(promise_options).PrepareParsed(pattern_).Solutions(), answers_);

  // Identical wdEVAL verdicts on answers and mutated non-answers.
  for (const Mapping& probe : probes_) {
    EXPECT_EQ(naive_q.Contains(probe), IsAnswer(probe)) << probe.ToString(pool_);
    EXPECT_EQ(indexed_q.Contains(probe), IsAnswer(probe)) << probe.ToString(pool_);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadProperty,
                         ::testing::Range<uint64_t>(1, 13));
INSTANTIATE_TEST_SUITE_P(BranchingSeeds, RandomWorkloadProperty,
                         ::testing::Range<uint64_t>(kBranchingSeeds, kBranchingSeeds + 12));

// ---------------------------------------------------------------------
// Proposition 3 sweep: sources of known ctw against random hosts; the
// (ctw+1)-pebble game must agree with exact homomorphism.
// ---------------------------------------------------------------------

struct PebbleExactnessCase {
  const char* name;
  int source_kind;  // 0 = path, 1 = cycle, 2 = clique, 3 = grid.
  int size;
  int ctw;  // Known core treewidth bound of the source.
};

class PebbleExactnessProperty
    : public ::testing::TestWithParam<std::tuple<PebbleExactnessCase, uint64_t>> {};

TEST_P(PebbleExactnessProperty, GameAtCtwPlusOneIsExact) {
  const auto& [c, seed] = GetParam();
  TermPool pool;
  TripleSet source;
  TermId e = pool.InternIri("p0");
  switch (c.source_kind) {
    case 0:  // Directed path.
      for (int i = 0; i < c.size; ++i) {
        source.Insert(Triple(pool.InternVariable("a" + std::to_string(i)), e,
                             pool.InternVariable("a" + std::to_string(i + 1))));
      }
      break;
    case 1:  // Directed cycle.
      for (int i = 0; i < c.size; ++i) {
        source.Insert(Triple(pool.InternVariable("a" + std::to_string(i)), e,
                             pool.InternVariable("a" + std::to_string((i + 1) % c.size))));
      }
      break;
    case 2:  // Clique (one direction per pair).
      source = MakeClique(&pool, c.size, "a", "p0");
      break;
    default:  // Rigid grid, with its anchors stripped of rigidity: use
              // the grid edges only (tw = size, core may be smaller; the
              // ctw bound below is still an upper bound).
      for (int i = 0; i < c.size; ++i) {
        for (int j = 0; j < c.size; ++j) {
          auto v = [&](int a, int b) {
            return pool.InternVariable("g" + std::to_string(a) + "_" + std::to_string(b));
          };
          if (j + 1 < c.size) source.Insert(Triple(v(i, j), e, v(i, j + 1)));
          if (i + 1 < c.size) source.Insert(Triple(v(i, j), pool.InternIri("p1"),
                                                   v(i + 1, j)));
        }
      }
      break;
  }
  Rng rng(seed);
  RdfGraph graph(&pool);
  testlib::SmallWorkloadGraph(&rng, 5, 25, 2, &graph);

  bool exact = HasHomomorphism(source, {}, graph.triples());
  bool game = PebbleGameWins(source, {}, graph.triples(), c.ctw + 1);
  EXPECT_EQ(exact, game) << c.name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PebbleExactnessProperty,  // NOLINT
    ::testing::Combine(
        ::testing::Values(PebbleExactnessCase{"path4", 0, 4, 1},
                          PebbleExactnessCase{"cycle3", 1, 3, 2},
                          PebbleExactnessCase{"cycle5", 1, 5, 2},
                          PebbleExactnessCase{"clique3", 2, 3, 2},
                          PebbleExactnessCase{"clique4", 2, 4, 3},
                          PebbleExactnessCase{"grid2", 3, 2, 2}),
        ::testing::Range<uint64_t>(1, 6)),
    [](const ::testing::TestParamInfo<std::tuple<PebbleExactnessCase, uint64_t>>&
           info) {
      return std::string(std::get<0>(info.param).name) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------
// Treewidth family sweep: closed-form widths for standard families.
// ---------------------------------------------------------------------

struct TreewidthCase {
  const char* name;
  UndirectedGraph graph;
  int expected;
};

std::vector<TreewidthCase> TreewidthCases() {
  std::vector<TreewidthCase> cases;
  for (int n = 2; n <= 7; ++n) {
    cases.push_back({"path", UndirectedGraph::Path(n), 1});
    cases.push_back({"clique", UndirectedGraph::Complete(n), n - 1});
  }
  for (int n = 3; n <= 8; ++n) {
    cases.push_back({"cycle", UndirectedGraph::Cycle(n), 2});
  }
  for (int d = 2; d <= 4; ++d) {
    cases.push_back({"grid", UndirectedGraph::Grid(d, d), d});
    cases.push_back({"grid_rect", UndirectedGraph::Grid(2, d + 1), 2});
  }
  // Complete bipartite K_{m,n}: treewidth min(m, n).
  for (int m = 2; m <= 3; ++m) {
    UndirectedGraph g(m + 4);
    for (int a = 0; a < m; ++a) {
      for (int b = 0; b < 4; ++b) g.AddEdge(a, m + b);
    }
    cases.push_back({"bipartite", g, m});
  }
  // Wheel W_n (cycle + hub): treewidth 3.
  for (int n = 4; n <= 6; ++n) {
    UndirectedGraph g(n + 1);
    for (int i = 0; i < n; ++i) {
      g.AddEdge(i, (i + 1) % n);
      g.AddEdge(i, n);
    }
    cases.push_back({"wheel", g, 3});
  }
  return cases;
}

class TreewidthFamilyProperty : public ::testing::TestWithParam<TreewidthCase> {};

TEST_P(TreewidthFamilyProperty, ExactValueAndValidDecomposition) {
  const TreewidthCase& c = GetParam();
  TreewidthResult result = ComputeTreewidth(c.graph);
  ASSERT_TRUE(result.exact()) << c.name;
  EXPECT_EQ(result.value(), c.expected) << c.name;
  TreeDecomposition decomposition =
      DecompositionFromOrder(c.graph, result.elimination_order);
  EXPECT_TRUE(IsValidTreeDecomposition(c.graph, decomposition)) << c.name;
  EXPECT_EQ(decomposition.Width(), c.expected) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Families, TreewidthFamilyProperty,
                         ::testing::ValuesIn(TreewidthCases()),
                         [](const ::testing::TestParamInfo<TreewidthCase>& info) {
                           return std::string(info.param.name) + "_" +
                                  std::to_string(info.index);
                         });

// ---------------------------------------------------------------------
// Paper-family width sweep (the Example 5 / Section 3.2 table, per k).
// ---------------------------------------------------------------------

class PaperFamilyProperty : public ::testing::TestWithParam<int> {};

TEST_P(PaperFamilyProperty, FkWidths) {
  int k = GetParam();
  TermPool pool;
  PatternForest forest = MakeFkForest(&pool, k);
  EXPECT_EQ(DominationWidth(forest, &pool).value(), 1);
  EXPECT_EQ(LocalWidth(forest), std::max(k - 1, 1));
}

TEST_P(PaperFamilyProperty, BranchFamilyWidths) {
  int k = GetParam();
  TermPool pool;
  PatternForest forest;
  forest.trees.push_back(MakeBranchFamilyTree(&pool, k));
  EXPECT_EQ(BranchTreewidth(forest.trees[0]), 1);
  EXPECT_EQ(LocalWidth(forest), std::max(k - 1, 1));
  EXPECT_EQ(DominationWidth(forest, &pool).value(), 1);
}

TEST_P(PaperFamilyProperty, CliqueBranchWidths) {
  int k = GetParam();
  TermPool pool;
  PatternForest forest;
  forest.trees.push_back(MakeCliqueBranchTree(&pool, k));
  EXPECT_EQ(BranchTreewidth(forest.trees[0]), std::max(k - 1, 1));
  EXPECT_EQ(DominationWidth(forest, &pool).value(), std::max(k - 1, 1));
}

TEST_P(PaperFamilyProperty, Example3Widths) {
  int k = GetParam();
  TermPool pool;
  EXPECT_EQ(CoreTreewidthOf(MakeExample3S(&pool, k)).value(), std::max(k - 1, 1));
  EXPECT_EQ(CoreTreewidthOf(MakeExample3SPrime(&pool, k)).value(), 1);
  EXPECT_EQ(TreewidthOf(MakeExample3SPrime(&pool, k)).value(), std::max(k - 1, 1));
}

INSTANTIATE_TEST_SUITE_P(K, PaperFamilyProperty, ::testing::Range(2, 7));

}  // namespace
}  // namespace wdsparql
