#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "rdf/generator.h"
#include "rdf/graph.h"
#include "rdf/ntriples.h"
#include "rdf/triple_set.h"
#include "wdsparql/term.h"
#include "wdsparql/triple.h"

namespace wdsparql {
namespace {

TEST(TermPoolTest, InternIsIdempotent) {
  TermPool pool;
  TermId a = pool.InternIri("http://example.org/a");
  TermId b = pool.InternIri("http://example.org/a");
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.NumIris(), 1u);
}

TEST(TermPoolTest, VariablesAndIrisAreDisjoint) {
  TermPool pool;
  TermId iri = pool.InternIri("x");
  TermId var = pool.InternVariable("x");
  EXPECT_NE(iri, var);
  EXPECT_TRUE(IsIri(iri));
  EXPECT_TRUE(IsVariable(var));
  EXPECT_FALSE(IsVariable(iri));
  EXPECT_FALSE(IsIri(var));
}

TEST(TermPoolTest, SpellingRoundTrip) {
  TermPool pool;
  TermId var = pool.InternVariable("abc");
  EXPECT_EQ(pool.Spelling(var), "abc");
  EXPECT_EQ(pool.ToDisplayString(var), "?abc");
  TermId iri = pool.InternIri("p");
  EXPECT_EQ(pool.ToDisplayString(iri), "p");
}

TEST(TermPoolTest, FreshVariablesAreDistinct) {
  TermPool pool;
  TermId x = pool.InternVariable("z");
  TermId f1 = pool.FreshVariable("z");
  TermId f2 = pool.FreshVariable("z");
  EXPECT_NE(f1, x);
  EXPECT_NE(f1, f2);
  // A fresh variable's name is re-internable and maps to the same id.
  EXPECT_EQ(pool.InternVariable(pool.Spelling(f1)), f1);
}

TEST(TripleTest, GroundnessAndVariables) {
  TermPool pool;
  TermId x = pool.InternVariable("x");
  TermId p = pool.InternIri("p");
  TermId a = pool.InternIri("a");
  Triple ground(a, p, a);
  EXPECT_TRUE(ground.IsGround());
  EXPECT_TRUE(ground.Variables().empty());

  Triple pattern(x, p, x);
  EXPECT_FALSE(pattern.IsGround());
  EXPECT_EQ(pattern.Variables(), (std::vector<TermId>{x}));  // Deduplicated.
}

TEST(TripleTest, PositionAccess) {
  Triple t(1, 2, 3);
  EXPECT_EQ(t[0], 1u);
  EXPECT_EQ(t[1], 2u);
  EXPECT_EQ(t[2], 3u);
  t.Set(1, 9);
  EXPECT_EQ(t.predicate, 9u);
}

TEST(TripleSetTest, InsertDeduplicates) {
  TripleSet s;
  EXPECT_TRUE(s.Insert(Triple(1, 2, 3)));
  EXPECT_FALSE(s.Insert(Triple(1, 2, 3)));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(Triple(1, 2, 3)));
  EXPECT_FALSE(s.Contains(Triple(3, 2, 1)));
}

TEST(TripleSetTest, PositionIndex) {
  TripleSet s;
  s.Insert(Triple(1, 2, 3));
  s.Insert(Triple(1, 5, 6));
  s.Insert(Triple(7, 2, 3));
  EXPECT_EQ(s.TriplesWithTermAt(0, 1).size(), 2u);
  EXPECT_EQ(s.TriplesWithTermAt(1, 2).size(), 2u);
  EXPECT_EQ(s.TriplesWithTermAt(2, 6).size(), 1u);
  EXPECT_TRUE(s.TriplesWithTermAt(0, 99).empty());
}

TEST(TripleSetTest, VariablesAndIris) {
  TermPool pool;
  TermId x = pool.InternVariable("x");
  TermId y = pool.InternVariable("y");
  TermId p = pool.InternIri("p");
  TermId a = pool.InternIri("a");
  TripleSet s;
  s.Insert(Triple(x, p, y));
  s.Insert(Triple(a, p, x));
  auto vars = s.Variables();
  auto iris = s.Iris();
  EXPECT_EQ(vars.size(), 2u);
  EXPECT_EQ(iris.size(), 2u);
  EXPECT_FALSE(s.IsGround());
}

TEST(TripleSetTest, SetEquality) {
  TripleSet a, b;
  a.Insert(Triple(1, 2, 3));
  a.Insert(Triple(4, 5, 6));
  b.Insert(Triple(4, 5, 6));
  b.Insert(Triple(1, 2, 3));
  EXPECT_TRUE(a == b);  // Order-insensitive.
  b.Insert(Triple(7, 8, 9));
  EXPECT_FALSE(a == b);
}

TEST(TripleSetTest, InsertAllKeepsIndexesConsistent) {
  TripleSet a, b;
  a.Insert(Triple(1, 2, 3));
  a.Insert(Triple(1, 5, 6));
  b.Insert(Triple(1, 2, 3));  // Overlaps with a.
  b.Insert(Triple(7, 2, 3));
  a.InsertAll(b);
  EXPECT_EQ(a.size(), 3u);
  // Per-position indexes must agree with the dense vector.
  EXPECT_EQ(a.TriplesWithTermAt(0, 1).size(), 2u);
  EXPECT_EQ(a.TriplesWithTermAt(1, 2).size(), 2u);
  for (int pos = 0; pos < 3; ++pos) {
    for (const Triple& t : a.triples()) {
      const std::vector<uint32_t>& bucket = a.TriplesWithTermAt(pos, t[pos]);
      bool found = false;
      for (uint32_t idx : bucket) {
        ASSERT_LT(idx, a.size());
        if (a.triples()[idx] == t) found = true;
      }
      EXPECT_TRUE(found);
    }
  }
}

TEST(TripleSetTest, SelfInsertAllIsANoOp) {
  TripleSet a;
  a.Insert(Triple(1, 2, 3));
  a.Insert(Triple(4, 5, 6));
  a.InsertAll(a);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_EQ(a.TriplesWithTermAt(0, 1).size(), 1u);
  EXPECT_EQ(a.TriplesWithTermAt(0, 4).size(), 1u);
}

TEST(TripleSetTest, ReserveDoesNotDisturbContents) {
  TripleSet a;
  a.Insert(Triple(1, 2, 3));
  a.Reserve(1000);
  a.Insert(Triple(4, 5, 6));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(a.Contains(Triple(1, 2, 3)));
  EXPECT_TRUE(a.Contains(Triple(4, 5, 6)));
  EXPECT_EQ(a.TriplesWithTermAt(0, 4).size(), 1u);
}

TEST(RdfGraphTest, StringInsertionInterns) {
  TermPool pool;
  RdfGraph g(&pool);
  EXPECT_TRUE(g.Insert("alice", "knows", "bob"));
  EXPECT_FALSE(g.Insert("alice", "knows", "bob"));
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(g.Domain().size(), 3u);
}

TEST(NTriplesTest, ParsesBasicLines) {
  TermPool pool;
  RdfGraph g(&pool);
  Status s = ParseNTriples("# comment\nalice knows bob .\n<http://x> p <http://y>\n\n",
                           &g);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.Contains(Triple(pool.InternIri("alice"), pool.InternIri("knows"),
                                pool.InternIri("bob"))));
  EXPECT_TRUE(g.Contains(Triple(pool.InternIri("http://x"), pool.InternIri("p"),
                                pool.InternIri("http://y"))));
}

TEST(NTriplesTest, RejectsVariables) {
  TermPool pool;
  RdfGraph g(&pool);
  Status s = ParseNTriples("?x p y .", &g);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(NTriplesTest, RejectsShortLines) {
  TermPool pool;
  RdfGraph g(&pool);
  EXPECT_FALSE(ParseNTriples("a b", &g).ok());
  EXPECT_FALSE(ParseNTriples("a b c d", &g).ok());
  EXPECT_FALSE(ParseNTriples("a b <unterminated", &g).ok());
}

TEST(NTriplesTest, RoundTrip) {
  TermPool pool;
  RdfGraph g(&pool);
  g.Insert("s1", "p", "o1");
  g.Insert("s2", "p", "o2");
  std::string text = WriteNTriples(g);

  TermPool pool2;
  RdfGraph g2(&pool2);
  ASSERT_TRUE(ParseNTriples(text, &g2).ok());
  EXPECT_EQ(g2.size(), g.size());
  EXPECT_TRUE(g2.Contains(
      Triple(pool2.InternIri("s1"), pool2.InternIri("p"), pool2.InternIri("o1"))));
}

TEST(NTriplesTest, IriWithSpecialCharactersRoundTrips) {
  TermPool pool;
  RdfGraph g(&pool);
  g.Insert("http://ex.org/a space", "p", "plain");
  std::string text = WriteNTriples(g);
  EXPECT_NE(text.find("<http://ex.org/a space>"), std::string::npos);

  TermPool pool2;
  RdfGraph g2(&pool2);
  ASSERT_TRUE(ParseNTriples(text, &g2).ok()) << text;
  EXPECT_TRUE(g2.Contains(Triple(pool2.InternIri("http://ex.org/a space"),
                                 pool2.InternIri("p"), pool2.InternIri("plain"))));
}

TEST(NTriplesTest, ReadFileRoundTrip) {
  TermPool pool;
  RdfGraph g(&pool);
  g.Insert("s", "p", "o");
  g.Insert("s2", "p", "o2");
  std::string path = ::testing::TempDir() + "/wdsparql_ntriples_test.nt";
  {
    std::ofstream out(path);
    out << WriteNTriples(g);
  }
  TermPool pool2;
  RdfGraph loaded(&pool2);
  ASSERT_TRUE(ReadNTriplesFile(path, &loaded).ok());
  EXPECT_EQ(loaded.size(), 2u);
  std::remove(path.c_str());
}

TEST(NTriplesTest, ReadMissingFileIsNotFound) {
  TermPool pool;
  RdfGraph g(&pool);
  Status s = ReadNTriplesFile("/nonexistent/path/x.nt", &g);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST(GeneratorTest, RandomGraphDeterministic) {
  TermPool pool1, pool2;
  RdfGraph g1(&pool1), g2(&pool2);
  RandomGraphOptions options;
  options.seed = 42;
  GenerateRandomGraph(options, &g1);
  GenerateRandomGraph(options, &g2);
  EXPECT_EQ(g1.size(), g2.size());
  EXPECT_EQ(WriteNTriples(g1), WriteNTriples(g2));
}

TEST(GeneratorTest, PathAndCycle) {
  TermPool pool;
  RdfGraph path(&pool), cycle(&pool);
  GeneratePathGraph(5, "next", &path);
  EXPECT_EQ(path.size(), 5u);
  GenerateCycleGraph(4, "next", &cycle);
  EXPECT_EQ(cycle.size(), 4u);
  EXPECT_TRUE(cycle.Contains(
      Triple(pool.InternIri("v3"), pool.InternIri("next"), pool.InternIri("v0"))));
}

TEST(GeneratorTest, EncodeUndirectedGraphIsSymmetric) {
  TermPool pool;
  RdfGraph g(&pool);
  UndirectedGraph h = UndirectedGraph::Path(3);
  EncodeUndirectedGraph(h, "e", "u", &g);
  TermId e = pool.InternIri("e");
  EXPECT_TRUE(g.Contains(Triple(pool.InternIri("u0"), e, pool.InternIri("u1"))));
  EXPECT_TRUE(g.Contains(Triple(pool.InternIri("u1"), e, pool.InternIri("u0"))));
  // 3 node markers + 2 edges x 2 directions.
  EXPECT_EQ(g.size(), 7u);
}

TEST(GeneratorTest, SocialGraphHasOptionalAttributes) {
  TermPool pool;
  RdfGraph g(&pool);
  SocialGraphOptions options;
  options.num_people = 40;
  options.email_probability = 0.5;
  GenerateSocialGraph(options, &g);
  TermId email = pool.InternIri("email");
  int with_email = 0;
  for (const Triple& t : g.triples()) {
    if (t.predicate == email) ++with_email;
  }
  // Some but not all people have the optional attribute: that is the point
  // of the OPT workloads.
  EXPECT_GT(with_email, 0);
  EXPECT_LT(with_email, 40);
}

TEST(GeneratorTest, ErdosRenyiAndPlantedClique) {
  UndirectedGraph g = GenerateErdosRenyi(30, 0.2, 5);
  EXPECT_EQ(g.NumVertices(), 30);
  EXPECT_GT(g.NumEdges(), 0);

  UndirectedGraph planted = GeneratePlantedClique(30, 5, 0.1, 5);
  // The planted clique must exist somewhere; verify by checking total edge
  // count is at least C(5,2).
  EXPECT_GE(planted.NumEdges(), 10);
}

}  // namespace
}  // namespace wdsparql
