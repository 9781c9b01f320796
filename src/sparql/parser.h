#ifndef WDSPARQL_SPARQL_PARSER_H_
#define WDSPARQL_SPARQL_PARSER_H_

#include <string_view>

#include "sparql/ast.h"
#include "wdsparql/status.h"

/// \file
/// Parser for the algebraic SPARQL fragment of the paper.
///
/// The concrete syntax mirrors the paper's notation:
///
///     ((?x p ?y) OPT ((?z q ?x) AND (?w q ?z))) UNION (?x p ?x)
///
/// * triple patterns are written `(term term term)`;
/// * terms are variables `?x`, bare identifiers, or `<`-quoted IRIs;
/// * operators `AND`, `OPT` (or `OPTIONAL`) and `UNION` are
///   left-associative, with precedence AND > OPT > UNION, and parentheses
///   override grouping.
///
/// Disambiguation: after `(` the parser sees either another `(`
/// (a parenthesised subexpression) or a term (a triple pattern), so the
/// grammar is LL(1).

namespace wdsparql {

/// Parses `text` into a graph pattern, interning terms in `pool`.
Result<PatternPtr> ParsePattern(std::string_view text, TermPool* pool);

}  // namespace wdsparql

#endif  // WDSPARQL_SPARQL_PARSER_H_
