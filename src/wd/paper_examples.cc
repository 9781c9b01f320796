#include "wd/paper_examples.h"

#include <string>

#include "wdsparql/check.h"

namespace wdsparql {
namespace {

TermId Var(TermPool* pool, const std::string& name) {
  return pool->InternVariable(name);
}
TermId Iri(TermPool* pool, const std::string& name) { return pool->InternIri(name); }

PatternPtr TriplePat(TermId s, TermId p, TermId o) {
  return GraphPattern::MakeTriple(Triple(s, p, o));
}

/// Conjunction (left-deep AND) over the triples of `set`.
PatternPtr AndOfTriples(const TripleSet& set) {
  std::vector<PatternPtr> leaves;
  for (const Triple& t : set.triples()) leaves.push_back(GraphPattern::MakeTriple(t));
  return GraphPattern::MakeAndAll(leaves);
}

}  // namespace

TripleSet MakeClique(TermPool* pool, int k, const char* var_prefix,
                     const char* predicate) {
  WDSPARQL_CHECK(k >= 2);
  TermId r = Iri(pool, predicate);
  TripleSet out;
  for (int i = 1; i <= k; ++i) {
    for (int j = i + 1; j <= k; ++j) {
      out.Insert(Triple(Var(pool, var_prefix + std::to_string(i)), r,
                        Var(pool, var_prefix + std::to_string(j))));
    }
  }
  return out;
}

PatternPtr MakeExample1P1(TermPool* pool) {
  TermId x = Var(pool, "x"), y = Var(pool, "y"), z = Var(pool, "z");
  TermId o1 = Var(pool, "o1"), o2 = Var(pool, "o2");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q"), r = Iri(pool, "r");
  return GraphPattern::MakeOpt(
      GraphPattern::MakeOpt(TriplePat(x, p, y), TriplePat(z, q, x)),
      GraphPattern::MakeAnd(TriplePat(y, r, o1), TriplePat(o1, r, o2)));
}

PatternPtr MakeExample1P2(TermPool* pool) {
  TermId x = Var(pool, "x"), y = Var(pool, "y"), z = Var(pool, "z");
  TermId o2 = Var(pool, "o2");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q"), r = Iri(pool, "r");
  return GraphPattern::MakeOpt(
      GraphPattern::MakeOpt(TriplePat(x, p, y), TriplePat(z, q, x)),
      GraphPattern::MakeAnd(TriplePat(y, r, z), TriplePat(z, r, o2)));
}

GeneralizedTGraph MakeExample3S(TermPool* pool, int k) {
  TermId x = Var(pool, "x"), y = Var(pool, "y"), z = Var(pool, "z");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q"), r = Iri(pool, "r");
  TripleSet s = MakeClique(pool, k);
  s.Insert(Triple(x, p, y));
  s.Insert(Triple(z, q, x));
  s.Insert(Triple(y, r, Var(pool, "o1")));
  return GeneralizedTGraph(std::move(s), {x, y, z});
}

GeneralizedTGraph MakeExample3SPrime(TermPool* pool, int k) {
  GeneralizedTGraph s = MakeExample3S(pool, k);
  TermId y = Var(pool, "y"), o = Var(pool, "o"), r = Iri(pool, "r");
  TripleSet extended = s.S;
  extended.Insert(Triple(y, r, o));
  extended.Insert(Triple(o, r, o));
  return GeneralizedTGraph(std::move(extended), s.X);
}

PatternForest MakeFkForest(TermPool* pool, int k) {
  WDSPARQL_CHECK(k >= 2);
  TermId x = Var(pool, "x"), y = Var(pool, "y"), z = Var(pool, "z"),
         w = Var(pool, "w"), o = Var(pool, "o"), o1 = Var(pool, "o1");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q"), r = Iri(pool, "r");

  PatternForest forest;

  // T1: root r1 = {(?x,p,?y)}; children n11 = {(?z,q,?x)} and
  // n12 = {(?y,r,?o1)} u K_k.
  {
    TripleSet root;
    root.Insert(Triple(x, p, y));
    PatternTree t1(std::move(root));
    TripleSet n11;
    n11.Insert(Triple(z, q, x));
    t1.AddNode(t1.root(), std::move(n11));
    TripleSet n12 = MakeClique(pool, k);
    n12.Insert(Triple(y, r, o1));
    t1.AddNode(t1.root(), std::move(n12));
    forest.trees.push_back(std::move(t1));
  }

  // T2: root r2 = {(?x,p,?y)}; child n2 = {(?z,q,?x), (?w,q,?z)}.
  {
    TripleSet root;
    root.Insert(Triple(x, p, y));
    PatternTree t2(std::move(root));
    TripleSet n2;
    n2.Insert(Triple(z, q, x));
    n2.Insert(Triple(w, q, z));
    t2.AddNode(t2.root(), std::move(n2));
    forest.trees.push_back(std::move(t2));
  }

  // T3: root r3 = {(?x,p,?y), (?z,q,?x)}; child n3 = {(?y,r,?o), (?o,r,?o)}.
  {
    TripleSet root;
    root.Insert(Triple(x, p, y));
    root.Insert(Triple(z, q, x));
    PatternTree t3(std::move(root));
    TripleSet n3;
    n3.Insert(Triple(y, r, o));
    n3.Insert(Triple(o, r, o));
    t3.AddNode(t3.root(), std::move(n3));
    forest.trees.push_back(std::move(t3));
  }
  return forest;
}

PatternPtr MakeFkPattern(TermPool* pool, int k) {
  WDSPARQL_CHECK(k >= 2);
  TermId x = Var(pool, "x"), y = Var(pool, "y"), z = Var(pool, "z"),
         w = Var(pool, "w"), o = Var(pool, "o"), o1 = Var(pool, "o1");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q"), r = Iri(pool, "r");

  // P1 = ((?x p ?y) OPT (?z q ?x)) OPT ((?y r ?o1) AND K_k-conjunction).
  TripleSet clique = MakeClique(pool, k);
  PatternPtr clique_and = GraphPattern::MakeAnd(TriplePat(y, r, o1), AndOfTriples(clique));
  PatternPtr p1 = GraphPattern::MakeOpt(
      GraphPattern::MakeOpt(TriplePat(x, p, y), TriplePat(z, q, x)), clique_and);

  // P2 = (?x p ?y) OPT ((?z q ?x) AND (?w q ?z)).
  PatternPtr p2 = GraphPattern::MakeOpt(
      TriplePat(x, p, y), GraphPattern::MakeAnd(TriplePat(z, q, x), TriplePat(w, q, z)));

  // P3 = ((?x p ?y) AND (?z q ?x)) OPT ((?y r ?o) AND (?o r ?o)).
  PatternPtr p3 = GraphPattern::MakeOpt(
      GraphPattern::MakeAnd(TriplePat(x, p, y), TriplePat(z, q, x)),
      GraphPattern::MakeAnd(TriplePat(y, r, o), TriplePat(o, r, o)));

  return GraphPattern::MakeUnionAll({p1, p2, p3});
}

PatternTree MakeBranchFamilyTree(TermPool* pool, int k) {
  WDSPARQL_CHECK(k >= 2);
  TermId y = Var(pool, "y"), o1 = Var(pool, "o1");
  TermId r = Iri(pool, "r");
  TripleSet root;
  root.Insert(Triple(y, r, y));
  PatternTree tree(std::move(root));
  TripleSet child = MakeClique(pool, k);
  child.Insert(Triple(y, r, o1));
  tree.AddNode(tree.root(), std::move(child));
  return tree;
}

PatternPtr MakeBranchFamilyPattern(TermPool* pool, int k) {
  WDSPARQL_CHECK(k >= 2);
  TermId y = Var(pool, "y"), o1 = Var(pool, "o1");
  TermId r = Iri(pool, "r");
  TripleSet clique = MakeClique(pool, k);
  return GraphPattern::MakeOpt(
      TriplePat(y, r, y),
      GraphPattern::MakeAnd(TriplePat(y, r, o1), AndOfTriples(clique)));
}

PatternTree MakeCliqueBranchTree(TermPool* pool, int k) {
  WDSPARQL_CHECK(k >= 2);
  TermId x = Var(pool, "x"), o1 = Var(pool, "o1");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q");
  TripleSet root;
  root.Insert(Triple(x, p, x));
  PatternTree tree(std::move(root));
  TripleSet child = MakeClique(pool, k);
  child.Insert(Triple(x, q, o1));
  tree.AddNode(tree.root(), std::move(child));
  return tree;
}

PatternPtr MakeCliqueBranchPattern(TermPool* pool, int k) {
  WDSPARQL_CHECK(k >= 2);
  TermId x = Var(pool, "x"), o1 = Var(pool, "o1");
  TermId p = Iri(pool, "p"), q = Iri(pool, "q");
  TripleSet clique = MakeClique(pool, k);
  return GraphPattern::MakeOpt(
      TriplePat(x, p, x),
      GraphPattern::MakeAnd(TriplePat(x, q, o1), AndOfTriples(clique)));
}

GeneralizedTGraph MakeRigidGrid(TermPool* pool, int rows, int cols) {
  WDSPARQL_CHECK(rows >= 1 && cols >= 1);
  TermId right = Iri(pool, "right"), down = Iri(pool, "down"), at = Iri(pool, "at");
  TripleSet s;
  auto var_at = [&](int i, int j) {
    return Var(pool, "g" + std::to_string(i) + "_" + std::to_string(j));
  };
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      s.Insert(Triple(var_at(i, j), at,
                      Iri(pool, "cell" + std::to_string(i) + "_" + std::to_string(j))));
      if (j + 1 < cols) s.Insert(Triple(var_at(i, j), right, var_at(i, j + 1)));
      if (i + 1 < rows) s.Insert(Triple(var_at(i, j), down, var_at(i + 1, j)));
    }
  }
  return GeneralizedTGraph(std::move(s), {});
}

}  // namespace wdsparql
