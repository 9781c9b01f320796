#ifndef WDSPARQL_RDF_GRAPH_H_
#define WDSPARQL_RDF_GRAPH_H_

#include <string>
#include <string_view>

#include "rdf/triple_set.h"
#include "wdsparql/status.h"

/// \file
/// Ground RDF graphs.

namespace wdsparql {

/// A finite set of ground RDF triples (no blank nodes, per the paper).
///
/// `RdfGraph` wraps a `TripleSet` and enforces groundness on insertion.
/// It keeps a pointer to the `TermPool` used to intern its IRIs so that
/// convenience string-based insertion and rendering are available.
class RdfGraph {
 public:
  /// Creates an empty graph interning terms in `pool` (must outlive the
  /// graph).
  explicit RdfGraph(TermPool* pool) : pool_(pool) { WDSPARQL_CHECK(pool != nullptr); }

  /// Inserts a ground triple; fatal if any position is a variable.
  /// Returns true iff newly inserted.
  bool Insert(const Triple& t) {
    WDSPARQL_CHECK(t.IsGround());
    return triples_.Insert(t);
  }

  /// Interns the three IRI spellings and inserts the triple.
  bool Insert(std::string_view s, std::string_view p, std::string_view o) {
    return Insert(Triple(pool_->InternIri(s), pool_->InternIri(p), pool_->InternIri(o)));
  }

  /// Removes a triple; returns true iff it was present.
  bool Remove(const Triple& t) { return triples_.Erase(t); }

  /// Looks the three IRI spellings up (without interning — a miss means
  /// the triple cannot be present) and removes the triple.
  bool Remove(std::string_view s, std::string_view p, std::string_view o) {
    std::optional<TermId> sid = pool_->FindIri(s);
    std::optional<TermId> pid = pool_->FindIri(p);
    std::optional<TermId> oid = pool_->FindIri(o);
    if (!sid.has_value() || !pid.has_value() || !oid.has_value()) return false;
    return Remove(Triple(*sid, *pid, *oid));
  }

  /// True iff the ground triple `t` is present.
  bool Contains(const Triple& t) const { return triples_.Contains(t); }

  /// Pre-sizes the underlying storage for `n` triples (bulk load).
  void Reserve(std::size_t n) { triples_.Reserve(n); }

  /// Number of triples.
  std::size_t size() const { return triples_.size(); }
  /// True iff the graph has no triples.
  bool empty() const { return triples_.empty(); }

  /// The underlying indexed triple container.
  const TripleSet& triples() const { return triples_; }

  /// dom(G): the distinct IRIs appearing in the graph.
  std::vector<TermId> Domain() const { return triples_.Iris(); }

  /// The shared intern pool.
  TermPool* pool() const { return pool_; }

  /// Renders the graph in the N-Triples-like format of ntriples.h.
  std::string ToString() const;

 private:
  TermPool* pool_;
  TripleSet triples_;
};

}  // namespace wdsparql

#endif  // WDSPARQL_RDF_GRAPH_H_
