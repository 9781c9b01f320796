#ifndef WDSPARQL_RDF_NTRIPLES_H_
#define WDSPARQL_RDF_NTRIPLES_H_

#include <optional>
#include <string>
#include <string_view>

#include "rdf/graph.h"
#include "wdsparql/status.h"

/// \file
/// A line-oriented reader/writer for ground RDF graphs.
///
/// The format is a pragmatic N-Triples subset: one triple per line,
/// whitespace-separated terms, optional trailing '.', '#' line comments.
/// Terms are bare identifiers or '<'-quoted IRIs:
///
///     # people
///     <http://ex.org/alice> knows bob .
///     alice likes coffee
///
/// Variables are not allowed (RDF graphs are ground in this paper).

namespace wdsparql {

/// Parses `text` into `graph`. On error, reports the offending line.
Status ParseNTriples(std::string_view text, RdfGraph* graph);

/// Parses a single line, interning spellings into `pool`. Blank and
/// comment lines succeed with `*out == nullopt`. `line_number` is used
/// only for error messages. This is the streaming entry point: the bulk
/// loader feeds lines straight off a file without materialising the
/// text (or a graph) in memory.
Status ParseNTriplesLine(std::string_view line, int line_number, TermPool* pool,
                         std::optional<Triple>* out);

/// Reads the file at `path` into `graph`.
Status ReadNTriplesFile(const std::string& path, RdfGraph* graph);

/// Serialises `graph` one triple per line with a trailing " .".
std::string WriteNTriples(const RdfGraph& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_RDF_NTRIPLES_H_
