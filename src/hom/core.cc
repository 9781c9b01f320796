#include "hom/core.h"

#include <unordered_set>

#include "wdsparql/check.h"

namespace wdsparql {
namespace {

/// Searches for an endomorphism of (S, X) that avoids at least one
/// non-distinguished variable in its image; returns the folded image
/// t-graph, or nullopt if (S, X) is a core.
std::optional<TripleSet> TryFold(const TripleSet& S, const VarAssignment& identity_x) {
  for (TermId var : S.Variables()) {
    if (identity_x.find(var) != identity_x.end()) continue;  // Distinguished.
    HomOptions options;
    options.banned_image.insert(var);
    std::optional<VarAssignment> h = FindHomomorphism(S, identity_x, S, options);
    if (h.has_value()) {
      TripleSet image = ApplyAssignment(*h, S);
      WDSPARQL_DCHECK(image.size() <= S.size());
      return image;
    }
  }
  return std::nullopt;
}

}  // namespace

TripleSet ComputeCore(const TripleSet& S, const std::vector<TermId>& X) {
  VarAssignment identity_x = IdentityOn(X);
  TripleSet current = S;
  for (;;) {
    std::optional<TripleSet> folded = TryFold(current, identity_x);
    if (!folded.has_value()) return current;
    current = std::move(*folded);
  }
}

bool IsCore(const TripleSet& S, const std::vector<TermId>& X) {
  VarAssignment identity_x = IdentityOn(X);
  return !TryFold(S, identity_x).has_value();
}

bool HomEquivalent(const TripleSet& S, const TripleSet& S2,
                   const std::vector<TermId>& X) {
  VarAssignment identity_x = IdentityOn(X);
  return HasHomomorphism(S, identity_x, S2) && HasHomomorphism(S2, identity_x, S);
}

}  // namespace wdsparql
