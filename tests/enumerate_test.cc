#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "hom/homomorphism.h"
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

TEST_F(EnumerateTest, WideChildrenEnumerateExactly) {
  // Children far wider than their parents (dw = 3 here, the clique
  // child of F_k below) are searched exactly: the stream is JFKG.
  auto stream = [](const PatternForest& forest, const RdfGraph& g) {
    std::vector<Mapping> out;
    EnumerateSolutionsNaive(forest, g, [&out](const Mapping& mu) {
      out.push_back(mu);
      return true;
    });
    std::sort(out.begin(), out.end());
    return out;
  };
  PatternForest clique;
  clique.trees.push_back(MakeCliqueBranchTree(&pool_, 4));
  RdfGraph g(&pool_);
  g.Insert("s", "p", "s");
  g.Insert("s", "q", "t");
  g.Insert("t", "r", "u");
  EXPECT_EQ(stream(clique, g), EnumerateForestSolutions(clique, g));

  for (int k = 2; k <= 3; ++k) {
    PatternForest forest = MakeFkForest(&pool_, k);
    RdfGraph fk(&pool_);
    fk.Insert("a", "p", "b");
    fk.Insert("c", "q", "a");
    fk.Insert("d", "q", "c");
    fk.Insert("b", "r", "e");
    fk.Insert("e", "r", "e");
    EXPECT_EQ(stream(forest, fk), EnumerateForestSolutions(forest, fk)) << "k=" << k;
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
    // Every child search finds a row or none; the other tests are the
    // witness tests.
    EXPECT_GE(stats.maximality_tests, stats.non_maximal + stats.empty_subpatterns);
  }
}

TEST_F(EnumerateTest, CountersFollowTheTreeWalk) {
  // Two root rows; the child is searched once per root row and extends
  // one of them. Every row pulled is a candidate, every child search a
  // maximality test, and each assembled mapping is an answer.
  PatternForest forest = Forest("(?x p ?y) OPT (?y q ?z)");
  RdfGraph g(&pool_);
  g.Insert("a", "p", "b");
  g.Insert("c", "p", "d");
  g.Insert("b", "q", "e");
  g.Insert("b", "q", "f");
  ExecStats stats;
  EnumerateSolutionsNaive(forest, g, [](const Mapping&) { return true; }, &stats);
  EXPECT_EQ(stats.rows_emitted, 3u);       // (a, b, e), (a, b, f), (c, d).
  EXPECT_EQ(stats.candidates, 4u);         // 2 root rows, 2 child rows.
  EXPECT_EQ(stats.maximality_tests, 2u);   // One child search per root row.
  EXPECT_EQ(stats.non_maximal, 1u);        // b's search found rows.
  EXPECT_EQ(stats.empty_subpatterns, 1u);  // d's found none.
  EXPECT_EQ(stats.dedup_rejected, 0u);

  // Single-node trees: each root row is one assembled mapping, so every
  // candidate is an answer or a duplicate.
  PatternForest flat = Forest("((?x p ?y) AND (?y q ?z)) UNION (?x p ?y) UNION (?x p ?y)");
  EnumerateSolutionsNaive(flat, g, [](const Mapping&) { return true; }, &stats);
  EXPECT_EQ(stats.candidates, stats.dedup_rejected + stats.rows_emitted);
  EXPECT_EQ(stats.dedup_rejected, 2u);
  EXPECT_EQ(stats.non_maximal, 0u);
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

TEST_F(EnumerateTest, SearchesOpenOncePerNodeAndPerWitnessTest) {
  // The first arm's root, then its child with the root's variables as
  // inputs; the second arm's root; then, for the second arm's answers
  // over {root}, the first arm's root as witness: its residual
  // (?y q ?x) and its child, both reading the answer's row.
  PatternForest forest = Forest(
      "(((?x p ?y) AND (?y q ?x)) OPT (?y s ?z)) UNION ((?x p ?y) AND (?y r ?x))");
  RdfGraph g(&pool_);
  for (const auto& [s, p, o] : std::vector<std::array<const char*, 3>>{
           {"a", "p", "b"}, {"b", "q", "a"}, {"b", "r", "a"}, {"b", "s", "c"},
           {"c", "p", "d"}, {"d", "r", "c"}}) {
    g.Insert(s, p, o);
  }
  HashTripleSource scan(g.triples());
  struct Opened {
    TripleSet pattern;
    std::vector<TermId> inputs;
    const PatternTree* tree;
    NodeId node;
    bool first_row_only;
  };
  std::vector<Opened> opened;
  EnumerationHooks hooks;
  hooks.open_search = [&](const SearchSpec& spec, const std::function<bool()>& stop) {
    Opened record{*spec.pattern, {}, spec.tree, spec.node, spec.first_row_only};
    for (TermId var : *spec.row_vars) {
      if (IsVariable(var)) record.inputs.push_back(var);
    }
    std::sort(record.inputs.begin(), record.inputs.end());
    opened.push_back(std::move(record));
    return SolverSearch(spec, scan, stop);
  };
  SolutionEnumerator enumerator(forest, std::move(hooks));
  std::vector<Mapping> streamed;
  Mapping mu;
  while (enumerator.Next(&mu)) streamed.push_back(mu);
  std::sort(streamed.begin(), streamed.end());
  EXPECT_EQ(streamed, EnumerateForestSolutions(forest, g));
  EXPECT_EQ(streamed.size(), 3u);  // (a, b, c); (a, b) extends, so the
                                   // second arm emits it; and (c, d).

  const TermId x = pool_.InternVariable("x");
  const TermId y = pool_.InternVariable("y");
  const std::vector<TermId> xy = {std::min(x, y), std::max(x, y)};
  ASSERT_EQ(opened.size(), 5u);  // Each compiled once, however many rows.
  EXPECT_EQ(opened[0].pattern, Triples(&pool_, {{"?x", "p", "?y"}, {"?y", "q", "?x"}}));
  EXPECT_TRUE(opened[0].inputs.empty());
  EXPECT_EQ(opened[0].tree, &forest.trees[0]);
  EXPECT_EQ(opened[0].node, 0);
  EXPECT_EQ(opened[1].pattern, Triples(&pool_, {{"?y", "s", "?z"}}));
  EXPECT_EQ(opened[1].inputs, xy);
  EXPECT_EQ(opened[1].tree, &forest.trees[0]);
  EXPECT_EQ(opened[2].pattern, Triples(&pool_, {{"?x", "p", "?y"}, {"?y", "r", "?x"}}));
  EXPECT_TRUE(opened[2].inputs.empty());
  EXPECT_EQ(opened[2].tree, &forest.trees[1]);
  EXPECT_EQ(opened[3].pattern, Triples(&pool_, {{"?y", "q", "?x"}}));  // Residual.
  EXPECT_EQ(opened[3].inputs, xy);
  EXPECT_EQ(opened[3].tree, nullptr);
  EXPECT_EQ(opened[4].pattern, Triples(&pool_, {{"?y", "s", "?z"}}));  // W's child.
  EXPECT_EQ(opened[4].inputs, xy);
  EXPECT_EQ(opened[4].tree, &forest.trees[0]);
  EXPECT_EQ(opened[4].node, 1);
  // Only the witness tests need no more than a first row.
  for (std::size_t i = 0; i < opened.size(); ++i) {
    EXPECT_EQ(opened[i].first_row_only, i >= 3) << "search " << i;
  }
}

/// A `TripleSource` that counts the scans made through it.
class CountingSource final : public TripleSource {
 public:
  explicit CountingSource(const TripleSource& inner) : inner_(inner) {}
  std::size_t size() const override { return inner_.size(); }
  bool Contains(const Triple& t) const override { return inner_.Contains(t); }
  bool ScanPattern(const Triple& pattern, const TripleScanCallback& fn) const override {
    ++scans_;
    return inner_.ScanPattern(pattern, fn);
  }
  std::vector<TermId> AllTerms() const override { return inner_.AllTerms(); }
  uint64_t scans() const { return scans_; }

 private:
  const TripleSource& inner_;
  mutable uint64_t scans_ = 0;
};

TEST_F(EnumerateTest, WitnessTestsStopAtTheirFirstRow) {
  // The second arm's mapping (a, b) has the first arm's root as its
  // witness, with no residual, and the witness's child extends it fifty
  // ways; so (a, b) is no answer of the first arm and is emitted. The
  // witness test only asks whether a row exists, so it costs the
  // solver's first-solution search (`HasHomomorphism`), not the search
  // for all fifty rows.
  PatternForest forest =
      Forest("((?x p ?y) OPT ((?y q ?z) AND (?z s ?w))) UNION (?x p ?y)");
  RdfGraph g(&pool_);
  g.Insert("a", "p", "b");
  for (int i = 0; i < 50; ++i) {
    g.Insert("b", "q", "c" + std::to_string(i));
    g.Insert("c" + std::to_string(i), "s", "d" + std::to_string(i));
  }
  HashTripleSource scan(g.triples());
  CountingSource witness_scan(scan);
  int witness_searches = 0;
  EnumerationHooks hooks;
  hooks.open_search = [&](const SearchSpec& spec, const std::function<bool()>& stop) {
    if (!spec.first_row_only) return SolverSearch(spec, scan, stop);
    ++witness_searches;
    return SolverSearch(spec, witness_scan, stop);
  };
  SolutionEnumerator enumerator(forest, std::move(hooks));
  Mapping mu;
  uint64_t rows = 0;
  while (enumerator.Next(&mu)) ++rows;
  EXPECT_EQ(rows, 51u);
  EXPECT_EQ(enumerator.stats().dedup_rejected, 0u);
  EXPECT_EQ(witness_searches, 1);

  const TripleSet child = Triples(&pool_, {{"?y", "q", "?z"}, {"?z", "s", "?w"}});
  const VarAssignment fixed = {{pool_.InternVariable("y"), pool_.InternIri("b")}};
  CountingSource first_scan(scan);
  ASSERT_TRUE(HasHomomorphism(child, fixed, first_scan));
  EXPECT_EQ(witness_scan.scans(), first_scan.scans());
  CountingSource all_scan(scan);
  int all = 0;
  EnumerateHomomorphisms(child, fixed, all_scan, [&all](const VarAssignment&) {
    ++all;
    return true;
  });
  EXPECT_EQ(all, 50);
  EXPECT_GT(all_scan.scans(), first_scan.scans());  // What the full search costs.
}

TEST_F(EnumerateTest, WitnessCacheStaysBoundedOnAWideStarInAUnion) {
  // Two stars over the same k OPT children, differing only in their
  // roots. Subject s_i has child j iff bit j of i is set, so the second
  // star meets 2^k sets of active nodes, each with its own witness in
  // the first star: the root's residual and one search per absent child.
  // The walk keeps at most `kCachedActiveSets` sets' witness tests.
  constexpr int k = 7;
  std::string star[2];
  for (int arm = 0; arm < 2; ++arm) {
    star[arm] = "(?x r" + std::to_string(arm) + " c)";
    for (int j = 0; j < k; ++j) {
      star[arm] = "(" + star[arm] + " OPT (?x p" + std::to_string(j) + " ?y" +
                  std::to_string(j) + "))";
    }
  }
  PatternForest forest = Forest(("(" + star[0] + ") UNION (" + star[1] + ")").c_str());
  ASSERT_EQ(forest.trees.size(), 2u);
  RdfGraph g(&pool_);
  for (int i = 0; i < (1 << k); ++i) {
    const std::string subject = "s" + std::to_string(i);
    g.Insert(subject, "r0", "c");
    g.Insert(subject, "r1", "c");
    for (int j = 0; j < k; ++j) {
      if ((i >> j) & 1) g.Insert(subject, "p" + std::to_string(j), "v");
    }
  }
  HashTripleSource scan(g.triples());

  /// Counts the searches alive at once.
  class LiveSearch final : public NodeSearch {
   public:
    LiveSearch(std::unique_ptr<NodeSearch> inner, int* live, int* peak)
        : inner_(std::move(inner)), live_(live) {
      *peak = std::max(*peak, ++*live_);
    }
    ~LiveSearch() override { --*live_; }
    void Open(const RowValue* row) override { inner_->Open(row); }
    bool Next() override { return inner_->Next(); }
    const std::vector<TermId>& variables() const override { return inner_->variables(); }
    const RowValue* values() const override { return inner_->values(); }

   private:
    std::unique_ptr<NodeSearch> inner_;
    int* live_;
  };
  int live = 0;
  int peak = 0;
  EnumerationHooks hooks;
  hooks.open_search = [&](const SearchSpec& spec,
                          const std::function<bool()>& stop) -> std::unique_ptr<NodeSearch> {
    return std::make_unique<LiveSearch>(SolverSearch(spec, scan, stop), &live, &peak);
  };
  {
    SolutionEnumerator enumerator(forest, std::move(hooks));
    Mapping mu;
    uint64_t rows = 0;
    while (enumerator.Next(&mu)) ++rows;
    EXPECT_EQ(rows, uint64_t{1} << k);
    EXPECT_EQ(enumerator.stats().dedup_rejected, uint64_t{1} << k);
  }
  EXPECT_EQ(live, 0);
  // The walk's k + 1 node searches, and per cached set one residual and
  // at most k witness children. Keeping every set would peak at
  // k + 1 + 2^k + k 2^(k-1) = 584.
  const int bound =
      (k + 1) + static_cast<int>(SolutionEnumerator::kCachedActiveSets) * (1 + k);
  EXPECT_LE(peak, bound);
}

TEST_F(EnumerateTest, ChildSearchesDecideLikeTheLiteralCertificate) {
  // Over UNIONs whose arms share their roots, a child's search under
  // its ancestors' values finds a row iff the paper's literal
  // certificate pat(path) ∪ pat(c) has a homomorphism extending the
  // mapping the walk assembled on the path.
  class CheckedSearch final : public NodeSearch {
   public:
    CheckedSearch(std::unique_ptr<NodeSearch> inner, TripleSet certificate,
                  std::vector<TermId> row_vars, const TripleSource& source,
                  uint64_t* verdicts)
        : inner_(std::move(inner)),
          certificate_(std::move(certificate)),
          row_vars_(std::move(row_vars)),
          source_(source),
          verdicts_(verdicts) {}
    void Open(const RowValue* row) override {
      Mapping path;
      for (std::size_t slot = 0; slot < row_vars_.size(); ++slot) {
        if (IsVariable(row_vars_[slot])) path.Bind(row_vars_[slot], row[slot]);
      }
      inner_->Open(row);
      first_ = inner_->Next();
      pending_ = true;
      EXPECT_EQ(first_, LiteralExtends(certificate_, path, source_, 0));
      ++verdicts_[first_ ? 1 : 0];
    }
    bool Next() override {
      if (!pending_) return inner_->Next();
      pending_ = false;
      return first_;
    }
    const std::vector<TermId>& variables() const override { return inner_->variables(); }
    const RowValue* values() const override { return inner_->values(); }

   private:
    std::unique_ptr<NodeSearch> inner_;
    const TripleSet certificate_;
    const std::vector<TermId> row_vars_;
    const TripleSource& source_;
    uint64_t* verdicts_;
    bool first_ = false;
    bool pending_ = false;
  };

  uint64_t verdicts[2] = {0, 0};  // Empty child searches, then found.
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
    EnumerationHooks hooks;
    hooks.open_search = [&](const SearchSpec& spec,
                            const std::function<bool()>& stop) -> std::unique_ptr<NodeSearch> {
      std::unique_ptr<NodeSearch> search = SolverSearch(spec, scan, stop);
      if (spec.first_row_only || spec.tree == nullptr || spec.node == spec.tree->root()) {
        return search;
      }
      TripleSet certificate;
      for (NodeId n = spec.node; n >= 0; n = spec.tree->parent(n)) {
        certificate.InsertAll(spec.tree->pattern(n));
      }
      return std::make_unique<CheckedSearch>(std::move(search), std::move(certificate),
                                             *spec.row_vars, scan, verdicts);
    };
    SolutionEnumerator enumerator(forest.value(), std::move(hooks));
    std::vector<Mapping> streamed;
    Mapping mu;
    while (enumerator.Next(&mu)) streamed.push_back(mu);
    std::sort(streamed.begin(), streamed.end());
    EXPECT_EQ(streamed, Evaluate(*p, g));
  }
  EXPECT_GT(verdicts[0], 0u);
  EXPECT_GT(verdicts[1], 0u);
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
