#ifndef WDSPARQL_HOM_PEBBLE_H_
#define WDSPARQL_HOM_PEBBLE_H_

#include <cstdint>

#include "hom/homomorphism.h"
#include "rdf/scan.h"
#include "rdf/triple_set.h"

/// \file
/// The existential k-pebble game (Kolaitis-Vardi; Section 2 of the paper).
///
/// For a generalised t-graph (S, X), a target graph G and a mapping mu
/// with dom(mu) = X, the relation (S, X) ->mu_k G holds iff the
/// Duplicator wins the existential k-pebble game. Equivalently
/// (Kolaitis-Vardi), iff there is a non-empty family of partial
/// homomorphisms of size <= k that is closed under restrictions and has
/// the forth (extension) property. We compute the greatest such family by
/// the standard strong-k-consistency deletion fixpoint and report whether
/// the empty map survives.
///
/// Properties implemented here and exercised by the tests:
///  * ->mu implies ->mu_k (the game is a relaxation, eq. (2));
///  * with no free variables, ->mu_k equals ->mu (eq. (1));
///  * if ctw(S, X) <= k-1 then ->mu_k equals ->mu (Dalmau et al.,
///    Proposition 3);
///  * deciding ->mu_k takes polynomial time for fixed k (Proposition 2).

namespace wdsparql {

/// Statistics of a pebble-game fixpoint computation (for the benches).
struct PebbleGameStats {
  uint64_t maps_created = 0;  ///< Partial homomorphisms generated.
  uint64_t maps_deleted = 0;  ///< Maps removed by the fixpoint.
};

/// Decides (S, X) ->mu_k `target`, where `fixed` encodes mu (or the
/// identity on X for t-graph targets). Variables of `source` outside
/// `fixed` are the Spoiler's pebbles; `k` >= 1 is the number of pebbles.
///
/// Setting k >= |free vars| makes the game equivalent to exact
/// homomorphism (every configuration is total).
///
/// The game reads its target through `Contains` and `AllTerms` only (the
/// Duplicator's domain is `target.AllTerms()`), so it runs on any
/// `TripleSource` — a pinned engine `ReadView` included.
bool PebbleGameWins(const TripleSet& source, const VarAssignment& fixed,
                    const TripleSource& target, int k,
                    PebbleGameStats* stats = nullptr);

/// Same, over a hash-indexed triple set.
bool PebbleGameWins(const TripleSet& source, const VarAssignment& fixed,
                    const TripleSet& target, int k,
                    PebbleGameStats* stats = nullptr);

}  // namespace wdsparql

#endif  // WDSPARQL_HOM_PEBBLE_H_
