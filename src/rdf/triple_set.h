#ifndef WDSPARQL_RDF_TRIPLE_SET_H_
#define WDSPARQL_RDF_TRIPLE_SET_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "wdsparql/triple.h"

/// \file
/// An indexed set of triples.
///
/// `TripleSet` is the common storage behind both RDF graphs (all triples
/// ground) and t-graphs (triples may contain variables). It maintains
/// per-position hash indexes so the homomorphism engine can enumerate the
/// triples matching a partially bound pattern in time proportional to the
/// result, mirroring the SPO/POS/OSP permutation indexes of real triple
/// stores.

namespace wdsparql {

/// A duplicate-free set of triples with subject/predicate/object indexes.
class TripleSet {
 public:
  TripleSet() = default;

  /// Inserts `t`; returns true iff it was not already present.
  bool Insert(const Triple& t);

  /// Removes `t`; returns true iff it was present. The dense slot of the
  /// removed triple is filled by the last triple (swap-pop), so indices
  /// previously obtained from `TriplesWithTermAt` are invalidated.
  bool Erase(const Triple& t);

  /// Inserts every triple of `other`. Safe when `other` aliases `*this`
  /// (a no-op in that case: a set already contains its own triples).
  void InsertAll(const TripleSet& other);

  /// Pre-sizes the dense vector and the dedup set for `n` triples,
  /// cutting rehashing on bulk load.
  void Reserve(std::size_t n);

  /// True iff `t` is present.
  bool Contains(const Triple& t) const { return set_.count(t) > 0; }

  /// Number of triples.
  std::size_t size() const { return triples_.size(); }
  /// True iff the set is empty.
  bool empty() const { return triples_.empty(); }

  /// The triples in insertion order.
  const std::vector<Triple>& triples() const { return triples_; }

  /// Iteration support (insertion order).
  std::vector<Triple>::const_iterator begin() const { return triples_.begin(); }
  std::vector<Triple>::const_iterator end() const { return triples_.end(); }

  /// Indices (into `triples()`) of triples with the given term at
  /// position `pos` (0=subject, 1=predicate, 2=object). Missing terms
  /// yield an empty list.
  const std::vector<uint32_t>& TriplesWithTermAt(int pos, TermId t) const;

  /// The distinct terms occurring at position `pos`, in first-seen order.
  std::vector<TermId> TermsAt(int pos) const;

  /// All distinct terms (IRIs and variables) occurring in the set.
  std::vector<TermId> AllTerms() const;

  /// The distinct variables occurring in the set (vars(S) in the paper).
  std::vector<TermId> Variables() const;

  /// The distinct IRIs occurring in the set; for an RDF graph G this is
  /// dom(G) in the paper.
  std::vector<TermId> Iris() const;

  /// True iff every triple is ground (an RDF graph).
  bool IsGround() const;

  /// Set equality (order-insensitive).
  friend bool operator==(const TripleSet& a, const TripleSet& b) {
    if (a.size() != b.size()) return false;
    for (const Triple& t : a.triples_) {
      if (!b.Contains(t)) return false;
    }
    return true;
  }

 private:
  std::vector<Triple> triples_;
  std::unordered_set<Triple, TripleHash> set_;
  // position -> term -> indices of triples having that term at position.
  std::unordered_map<TermId, std::vector<uint32_t>> index_[3];
  static const std::vector<uint32_t> kEmptyIndex;
};

}  // namespace wdsparql

#endif  // WDSPARQL_RDF_TRIPLE_SET_H_
