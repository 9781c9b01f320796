/// \file
/// The workload motivating OPTIONAL in the SPARQL literature: contact
/// lookup over an incomplete social graph. People may or may not have an
/// email or a phone; OPT returns maximal partial answers instead of
/// dropping people with missing attributes (as AND would).
///
/// The example contrasts the AND-query (inner-join behaviour) with the
/// nested-OPT query through the public Session/Cursor API, shows the
/// per-answer domain shapes, and verifies membership with the Theorem 1
/// pebble algorithm (the query is UNION-free with branch treewidth 1, so
/// promise k = 1 is correct).
///
/// Build & run:  ./build/social_optional

#include <cstdio>
#include <map>

#include "engine/api_internal.h"
#include "rdf/generator.h"
#include "rdf/graph.h"
#include "wd/branch_width.h"
#include "wdsparql/wdsparql.h"

using namespace wdsparql;

int main() {
  // Generate the synthetic social graph, then load it (the staged graph
  // stays around as a plain copy for the shape check at the end).
  TermPool pool;
  RdfGraph staged(&pool);
  SocialGraphOptions options;
  options.num_people = 60;
  options.email_probability = 0.6;
  options.phone_probability = 0.35;
  options.seed = 2024;
  GenerateSocialGraph(options, &staged);

  Database db(&pool);
  for (const Triple& t : staged.triples()) db.AddTriple(t);
  std::printf("Social graph: %zu triples over %d people\n\n", db.size(),
              options.num_people);

  Session session = db.OpenSession();
  Statement strict =
      session.Prepare("(?p type Person) AND (?p email ?e) AND (?p phone ?f)");
  Statement relaxed =
      session.Prepare("(?p type Person) OPT ((?p email ?e) OPT (?p phone ?f))");
  if (!strict.ok() || !relaxed.ok()) {
    std::fprintf(stderr, "prepare failure: %s / %s\n",
                 strict.diagnostics().ToString().c_str(),
                 relaxed.diagnostics().ToString().c_str());
    return 1;
  }

  std::printf("AND query (email AND phone required): %llu answers\n",
              static_cast<unsigned long long>(strict.Count()));

  // Shape histogram: which attribute combinations actually occur. The
  // cursor pulls answers one at a time — nothing is materialised.
  std::map<std::size_t, int> by_domain_size;
  Cursor cursor = relaxed.Execute();
  while (cursor.Next()) ++by_domain_size[cursor.Row().size()];
  std::printf("OPT query (attributes optional):      %llu answers\n\n",
              static_cast<unsigned long long>(cursor.rows()));
  std::printf("answer shapes (bound variables -> count):\n");
  std::printf("  1 (person only)          : %d\n", by_domain_size[1]);
  std::printf("  2 (person+email)         : %d\n", by_domain_size[2]);
  std::printf("  3 (person+email+phone)   : %d\n", by_domain_size[3]);

  // The nested OPT is well designed; its branch treewidth certifies the
  // promise parameter for the polynomial evaluator.
  auto bw = BranchTreewidthOfPattern(relaxed.impl()->pattern, pool);
  if (!bw.ok()) {
    std::fprintf(stderr, "bw failed: %s\n", bw.status().ToString().c_str());
    return 1;
  }
  std::printf("\nbranch treewidth bw(P) = %d  ->  run the naive backend with "
              "pebble promise k = %d\n",
              bw.value(), bw.value());

  // Re-check every answer through a pebble-promise session — same
  // database, different execution options.
  SessionOptions pebble_options;
  pebble_options.backend = Backend::kNaiveHash;
  pebble_options.pebble_promise = bw.value();
  Statement verifier =
      db.OpenSession(pebble_options)
          .Prepare("(?p type Person) OPT ((?p email ?e) OPT (?p phone ?f))");
  bool ok = true;
  for (const Mapping& mu : relaxed.Solutions()) {
    if (!verifier.Contains(mu)) ok = false;
  }
  std::printf("pebble algorithm confirms all answers: %s\n", ok ? "yes" : "NO");

  // SPARQL subtlety on display: a person with a phone but no email binds
  // only {p} — the phone is unreachable through the nested OPT.
  int phone_no_email = 0;
  TermId phone = pool.InternIri("phone");
  TermId email = pool.InternIri("email");
  const TripleSet& triples = staged.triples();
  for (int i = 0; i < options.num_people; ++i) {
    TermId person = pool.InternIri("person" + std::to_string(i));
    bool has_p = false, has_e = false;
    for (uint32_t idx : triples.TriplesWithTermAt(0, person)) {
      const Triple& t = triples.triples()[idx];
      has_p |= t.predicate == phone;
      has_e |= t.predicate == email;
    }
    if (has_p && !has_e) ++phone_no_email;
  }
  std::printf(
      "\npeople with phone but no email: %d (their phones do not appear in any "
      "answer — the nested OPT gates on email)\n",
      phone_no_email);
  return ok ? 0 : 1;
}
