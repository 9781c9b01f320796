#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/combinatorics.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"
#include "util/undirected_graph.h"
#include "wdsparql/hash.h"
#include "wdsparql/status.h"

namespace wdsparql {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotWellDesigned), "NotWellDesigned");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kResourceExhausted), "ResourceExhausted");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_STREQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(StringsTest, StripAsciiWhitespace) {
  EXPECT_EQ(StripAsciiWhitespace("  abc \t\n"), "abc");
  EXPECT_EQ(StripAsciiWhitespace(""), "");
  EXPECT_EQ(StripAsciiWhitespace("   "), "");
  EXPECT_EQ(StripAsciiWhitespace("x"), "x");
}

TEST(StringsTest, StrSplit) {
  auto pieces = StrSplit("a,b,,c", ',');
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[2], "");
  EXPECT_EQ(pieces[3], "c");
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, StrJoin) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"solo"}, ","), "solo");
}

TEST(StringsTest, StartsWithAndIdentChar) {
  EXPECT_TRUE(StartsWith("prefix_rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(IsIdentChar('a'));
  EXPECT_TRUE(IsIdentChar(':'));
  EXPECT_TRUE(IsIdentChar('#'));
  EXPECT_FALSE(IsIdentChar(' '));
  EXPECT_FALSE(IsIdentChar('(')) << "parens delimit patterns";
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, BoundedRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
  }
  for (int i = 0; i < 100; ++i) {
    int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v = {1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(HashTest, CombineIsOrderSensitive) {
  std::size_t a = 1, b = 1;
  HashCombine(a, 2);
  HashCombine(a, 3);
  HashCombine(b, 3);
  HashCombine(b, 2);
  EXPECT_NE(a, b);
}

TEST(CombinatoricsTest, CombinationsCountAndOrder) {
  std::vector<std::vector<int>> combos;
  ForEachCombination(5, 3, [&](const std::vector<int>& c) { combos.push_back(c); });
  EXPECT_EQ(combos.size(), 10u);
  EXPECT_EQ(combos.front(), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(combos.back(), (std::vector<int>{2, 3, 4}));
}

TEST(CombinatoricsTest, EdgeCases) {
  int count = 0;
  ForEachCombination(4, 0, [&](const std::vector<int>& c) {
    EXPECT_TRUE(c.empty());
    ++count;
  });
  EXPECT_EQ(count, 1);
  count = 0;
  ForEachCombination(2, 3, [&](const std::vector<int>&) { ++count; });
  EXPECT_EQ(count, 0);
}

TEST(CombinatoricsTest, SubsetMasks) {
  int count = 0;
  ForEachSubsetMask(4, [&](uint32_t) { ++count; });
  EXPECT_EQ(count, 16);
}

TEST(CombinatoricsTest, MaskToIndices) {
  EXPECT_EQ(MaskToIndices(0b1011), (std::vector<int>{0, 1, 3}));
  EXPECT_TRUE(MaskToIndices(0).empty());
}

TEST(CombinatoricsTest, BinomialCoefficient) {
  EXPECT_DOUBLE_EQ(BinomialCoefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(10, 0), 1.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(3, 5), 0.0);
  EXPECT_DOUBLE_EQ(BinomialCoefficient(6, 3), 20.0);
}

TEST(TimerTest, ElapsedIsMonotone) {
  Timer timer;
  double first = timer.ElapsedSeconds();
  double second = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  timer.Reset();
  EXPECT_GE(timer.ElapsedMillis(), 0.0);
}

TEST(UndirectedGraphTest, BasicEdgeOps) {
  UndirectedGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(1, 2);  // Duplicate ignored.
  g.AddEdge(3, 3);  // Self loop ignored.
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.Degree(1), 2);
}

TEST(UndirectedGraphTest, AddVertexGrows) {
  UndirectedGraph g(2);
  int v = g.AddVertex();
  EXPECT_EQ(v, 2);
  g.AddEdge(0, v);
  EXPECT_TRUE(g.HasEdge(2, 0));
}

TEST(UndirectedGraphTest, ConnectedComponents) {
  UndirectedGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  auto components = g.ConnectedComponents();
  ASSERT_EQ(components.size(), 3u);
  EXPECT_EQ(components[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(components[1], (std::vector<int>{2}));
  EXPECT_EQ(components[2], (std::vector<int>{3, 4}));
}

TEST(UndirectedGraphTest, InducedSubgraph) {
  UndirectedGraph g = UndirectedGraph::Cycle(5);
  std::vector<int> index;
  UndirectedGraph sub = g.InducedSubgraph({0, 1, 2}, &index);
  EXPECT_EQ(sub.NumVertices(), 3);
  EXPECT_EQ(sub.NumEdges(), 2);  // Path 0-1-2.
  EXPECT_EQ(index, (std::vector<int>{0, 1, 2}));
}

TEST(UndirectedGraphTest, DegeneracyValues) {
  EXPECT_EQ(UndirectedGraph::Complete(5).Degeneracy(), 4);
  EXPECT_EQ(UndirectedGraph::Cycle(6).Degeneracy(), 2);
  EXPECT_EQ(UndirectedGraph::Path(6).Degeneracy(), 1);
  EXPECT_EQ(UndirectedGraph(3).Degeneracy(), 0);
  EXPECT_EQ(UndirectedGraph::Grid(3, 3).Degeneracy(), 2);
}

TEST(UndirectedGraphTest, IsClique) {
  UndirectedGraph g = UndirectedGraph::Complete(4);
  EXPECT_TRUE(g.IsClique({0, 1, 2, 3}));
  EXPECT_TRUE(g.IsClique({1, 3}));
  EXPECT_FALSE(g.IsClique({0, 0}));
  UndirectedGraph path = UndirectedGraph::Path(3);
  EXPECT_FALSE(path.IsClique({0, 1, 2}));
}

TEST(UndirectedGraphTest, GridShape) {
  UndirectedGraph g = UndirectedGraph::Grid(3, 4);
  EXPECT_EQ(g.NumVertices(), 12);
  EXPECT_EQ(g.NumEdges(), 3 * 3 + 2 * 4);  // Horizontal + vertical.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 4));
  EXPECT_FALSE(g.HasEdge(3, 4));  // Row wrap is not an edge.
}

}  // namespace
}  // namespace wdsparql
