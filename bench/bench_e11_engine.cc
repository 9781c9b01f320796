/// \file
/// Experiment E11: engine backend comparison. Measures the
/// dictionary-encoded permutation store (Backend::kIndexed) against the
/// paper-faithful hash-indexed TripleSet (Backend::kNaiveHash) on three
/// levels, across graph sizes:
///
///  * raw triple-pattern scans (the candidate-generation primitive),
///  * conjunctive candidate generation (CSP solver over each scan
///    backend, plus the leapfrog join native to the indexed store),
///  * end-to-end well-designed enumeration through the public
///    Database/Session/Cursor API.
///
/// Expected shape: at small scale the backends are comparable; as the
/// graph grows, the indexed backend's contiguous two-position prefix
/// ranges and merge joins pull ahead of hash-bucket probing — the
/// RDF-3X/Trident design rationale this engine reproduces.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "engine/indexed_store.h"
#include "engine/join.h"
#include "hom/homomorphism.h"
#include "rdf/generator.h"
#include "support/testlib.h"
#include "util/check.h"
#include "wdsparql/wdsparql.h"

namespace wdsparql {
namespace {

constexpr int kBackendHash = 0;
constexpr int kBackendIndexed = 1;

/// One benchmark workload: a random graph staged as a hash-indexed
/// TripleSet and loaded into a Database (the permutation store), and a
/// conjunctive path pattern with a pendant OPT.
struct E11Instance {
  TermPool pool;
  RdfGraph staged{&pool};
  HashTripleSource hash_source{staged.triples()};
  Database db{&pool};
  TripleSet path_pattern;  // (?x p0 ?y) (?y p1 ?z)

  explicit E11Instance(int num_triples) {
    RandomGraphOptions options;
    options.num_nodes = std::max(8, num_triples / 8);
    options.num_predicates = 8;
    options.num_triples = num_triples;
    options.seed = 11;
    GenerateRandomGraph(options, &staged);
    testlib::LoadGraph(staged, &db);

    TermId x = pool.InternVariable("x");
    TermId y = pool.InternVariable("y");
    TermId z = pool.InternVariable("z");
    path_pattern.Insert(Triple(x, pool.InternIri("p0"), y));
    path_pattern.Insert(Triple(y, pool.InternIri("p1"), z));
  }

  const IndexedStore& store() const { return db.store(); }
  const HashTripleSource& hash() const { return hash_source; }

  const TripleSource& source(int backend) const {
    if (backend == kBackendIndexed) return store();
    return hash();
  }
};

/// Raw scan throughput: one-bound (?s p ?o) probes over every
/// predicate, then two-bound (s p ?o) probes seeded from stored triples.
void BM_E11_PatternScan(benchmark::State& state) {
  E11Instance instance(static_cast<int>(state.range(0)));
  const TripleSource& source = instance.source(static_cast<int>(state.range(1)));
  std::vector<TermId> predicates = instance.staged.triples().TermsAt(1);
  std::vector<Triple> seeds = instance.staged.triples().triples();
  if (seeds.size() > 256) seeds.resize(256);

  uint64_t matched = 0;
  for (auto _ : state) {
    for (TermId p : predicates) {
      source.ScanPattern(Triple(kAnyTerm, p, kAnyTerm), [&](const Triple&) {
        ++matched;
        return true;
      });
    }
    for (const Triple& t : seeds) {
      source.ScanPattern(Triple(t.subject, t.predicate, kAnyTerm), [&](const Triple&) {
        ++matched;
        return true;
      });
    }
    benchmark::DoNotOptimize(matched);
  }
  state.counters["triples"] = static_cast<double>(instance.db.size());
  state.SetItemsProcessed(static_cast<int64_t>(matched));
}

/// Conjunctive candidate generation, each backend running its native
/// strategy (what the engine actually executes): the hash backend
/// enumerates homomorphisms with the CSP solver over hash scans, the
/// indexed backend runs the leapfrog join over its permutation ranges.
void BM_E11_CandidateGeneration(benchmark::State& state) {
  E11Instance instance(static_cast<int>(state.range(0)));
  bool indexed = state.range(1) == kBackendIndexed;

  uint64_t candidates = 0;
  for (auto _ : state) {
    if (indexed) {
      JoinEnumerate(instance.store().view(), instance.path_pattern.triples(), VarAssignment{},
                    [&](const VarAssignment&) {
                      ++candidates;
                      return true;
                    });
    } else {
      EnumerateHomomorphisms(instance.path_pattern, VarAssignment{}, instance.hash(),
                             [&](const VarAssignment&) {
                               ++candidates;
                               return true;
                             });
    }
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["triples"] = static_cast<double>(instance.db.size());
  state.SetItemsProcessed(static_cast<int64_t>(candidates));
}

/// Ablation: the CSP solver routed through each scan backend. Isolates
/// the scan interface from the join algorithm — the permutation store's
/// win comes from the merge join, not from swapping the solver's probe
/// primitive.
void BM_E11_SolverScanAblation(benchmark::State& state) {
  E11Instance instance(static_cast<int>(state.range(0)));
  const TripleSource& source = instance.source(static_cast<int>(state.range(1)));

  uint64_t candidates = 0;
  for (auto _ : state) {
    EnumerateHomomorphisms(instance.path_pattern, VarAssignment{}, source,
                           [&](const VarAssignment&) {
                             ++candidates;
                             return true;
                           });
    benchmark::DoNotOptimize(candidates);
  }
  state.counters["triples"] = static_cast<double>(instance.db.size());
  state.SetItemsProcessed(static_cast<int64_t>(candidates));
}

/// End-to-end: prepare once through a Session, then pull every answer
/// through a fresh Cursor per iteration — the public API's hot path.
void BM_E11_EndToEndEnumeration(benchmark::State& state) {
  E11Instance instance(static_cast<int>(state.range(0)));
  SessionOptions options;
  options.backend =
      state.range(1) == kBackendIndexed ? Backend::kIndexed : Backend::kNaiveHash;
  Session session = instance.db.OpenSession(options);
  Statement query = session.Prepare("((?x p0 ?y) AND (?y p1 ?z)) OPT (?z p2 ?w)");
  WDSPARQL_CHECK(query.ok());

  uint64_t answers = 0;
  for (auto _ : state) {
    Cursor cursor = query.Execute();
    while (cursor.Next()) ++answers;
    benchmark::DoNotOptimize(answers);
  }
  state.counters["triples"] = static_cast<double>(instance.db.size());
  state.SetItemsProcessed(static_cast<int64_t>(answers));
}

void BackendSweep(benchmark::internal::Benchmark* bench) {
  for (int backend : {kBackendHash, kBackendIndexed}) {
    for (int triples : {1 << 10, 1 << 13, 1 << 16}) {
      bench->Args({triples, backend});
    }
  }
}

BENCHMARK(BM_E11_PatternScan)->Apply(BackendSweep)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E11_CandidateGeneration)
    ->Apply(BackendSweep)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E11_SolverScanAblation)
    ->Apply(BackendSweep)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_E11_EndToEndEnumeration)
    ->Apply(BackendSweep)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wdsparql
