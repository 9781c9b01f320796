/// \file
/// Quickstart for the public API: build a `Database`, open a `Session`,
/// prepare a well-designed pattern into a `Statement`, pull answers
/// through a `Cursor`, project a variable subset into a columnar
/// `BindingTable` — and cross-check the engine against the textbook set
/// semantics and both wdEVAL membership algorithms.
///
/// Build & run:  ./build/quickstart

#include <cstdio>

#include "ptree/forest.h"
#include "rdf/graph.h"
#include "sparql/parser.h"
#include "sparql/semantics.h"
#include "wd/eval.h"
#include "wdsparql/wdsparql.h"

using namespace wdsparql;

int main() {
  // 1. An owning database; AddTriple maintains the permutation indexes
  //    incrementally (no rebuilds).
  const char* facts[][3] = {{"alice", "knows", "bob"},
                            {"alice", "knows", "carol"},
                            {"bob", "email", "mailto:bob@example.org"},
                            {"carol", "worksAt", "acme"}};
  Database db;
  for (const auto& fact : facts) db.AddTriple(fact[0], fact[1], fact[2]);
  std::printf("Database: %zu triples\n\n", db.size());

  // 2. A cheap read session; Prepare carries structured diagnostics.
  Session session = db.OpenSession();
  Statement stmt = session.Prepare("(alice knows ?who) OPT (?who email ?mail)");
  std::printf("Query: %s\n", stmt.diagnostics().pattern_text.c_str());
  std::printf("Prepared: %s (well designed: %s, %zu tree(s))\n\n",
              stmt.diagnostics().ToString().c_str(),
              stmt.diagnostics().well_designed ? "yes" : "no",
              stmt.diagnostics().num_trees);
  if (!stmt.ok()) return 1;

  // 3. Pull-based enumeration: answers arrive one Next() at a time.
  std::printf("Answers (JPKG):\n");
  Cursor cursor = stmt.Execute();
  while (cursor.Next()) {
    std::printf("  %s\n", cursor.Row().ToString(db.pool()).c_str());
  }

  // 4. SELECT-style projection into a columnar table: just the people,
  //    duplicates eliminated.
  BindingTable table = stmt.ExecuteTable({"?who"});
  std::printf("\nProjected on ?who (%zu row(s)):\n%s", table.NumRows(),
              table.ToString().c_str());

  // 5. Cross-checks: the engine agrees with the textbook set semantics,
  //    and both wdEVAL membership algorithms accept every answer. The
  //    paper's oracles take a plain graph: build one from the same facts.
  RdfGraph graph(&db.pool());
  for (const auto& fact : facts) graph.Insert(fact[0], fact[1], fact[2]);
  auto parsed = ParsePattern("(alice knows ?who) OPT (?who email ?mail)", &db.pool());
  std::vector<Mapping> reference = Evaluate(*parsed.value(), graph);
  std::vector<Mapping> engine_answers = stmt.Solutions();
  bool same = engine_answers == reference;
  std::printf("\nengine matches set semantics: %s\n", same ? "yes" : "NO");

  auto forest = BuildPatternForest(parsed.value(), db.pool());
  bool all_agree = true;
  for (const Mapping& mu : engine_answers) {
    bool member = stmt.Contains(mu);  // Engine membership (indexed backend).
    bool naive = NaiveWdEval(forest.value(), graph, mu);
    bool pebble = PebbleWdEval(forest.value(), graph, mu, /*k=*/1);
    if (!member || !naive || !pebble) all_agree = false;
  }
  std::printf("engine/naive/pebble membership agree on all %zu answers: %s\n",
              engine_answers.size(), all_agree ? "yes" : "NO");

  // A non-maximal mapping is correctly rejected: bob without his email.
  Mapping truncated;
  truncated.Bind(db.pool().InternVariable("who"), db.pool().InternIri("bob"));
  std::printf("non-maximal {?who -> bob} rejected: %s\n",
              stmt.Contains(truncated) ? "NO" : "yes");
  return (same && all_agree) ? 0 : 1;
}
