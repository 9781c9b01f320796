#ifndef WDSPARQL_ENGINE_JOIN_H_
#define WDSPARQL_ENGINE_JOIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/read_view.h"
#include "wdsparql/triple.h"
#include "wdsparql/stats.h"

/// \file
/// Generic Join: a worst-case-optimal multiway join for conjunctive
/// patterns (Ngo, Re & Rudra, "Skew strikes back", SIGMOD Record 2013).
///
/// A conjunctive (AND-only) subpattern is a set of triple patterns; its
/// solutions over a ground store are exactly the homomorphisms of the
/// pattern set. Where the generic CSP solver of hom/homomorphism.h
/// backtracks over per-variable domains with AC-3 propagation, this join
/// binds variables one at a time in a fixed global order. At each level
/// it sizes the permutation range of every conjunct containing the
/// level's variable from the range bounds alone (O(log n), no
/// iteration) and materialises the values of the smallest range only.
/// A value is kept iff an existence probe with the value bound succeeds
/// on every other such conjunct, and the probes run when the walk
/// reaches the value, not when the level fills, so a search stopped at
/// its first row probes only the values it passed. A probe binds the
/// variable at every position it occupies, so conjuncts that repeat a
/// variable need no special path. Any one or two bound positions form a
/// sort prefix of one of the three cyclic permutations SPO/POS/OSP, so
/// every range and every probe is a search in sorted runs.
///
/// Level values are sorted and distinct, so the enumeration order
/// depends on the variable order alone, never on which range happened
/// to be the smallest — and each conjunct's probes within one fill come
/// with ascending keys. The ranges and probes are therefore the trie
/// iterators of Leapfrog Triejoin (Veldhuizen, ICDT 2014):
///  - Every probe is a `SeekProbe` that gallops forward from its
///    previous position (exponential steps, then a binary search inside
///    the last one), inside the range the level just sized when the
///    probe's bound positions extend that range's sort prefix (a fully
///    bound probe such as `(?y city c)` always does), in the full runs
///    of its own permutation otherwise.
///  - A value that passes leaves each probe at its key. A conjunct whose
///    pattern at a deeper level is the one its probe just matched (the
///    probe sits at the level of the conjunct's deepest variable above,
///    fixed when the join is planned) opens that level's range at the
///    probe's position (`SeekProbe::Open`): the range's bounds gallop
///    from there instead of being searched for from the root of the
///    runs. Only a range no probe above located is searched from the
///    root (`ReadView::Scan`).
///  - Each level keeps its sized ranges while a conjunct's pattern under
///    the bindings above is unchanged, so a conjunct that shares no
///    variable with the levels above is located once per join.
///
/// The join has one shape, `CompiledJoin`: a pattern compiled once
/// against a view, with input slots read from a row of `DataId`s and run
/// on many rows. Pulled for rows it is a node search of the enumerator's
/// tree walk (a tree's root with no inputs, each child with the values
/// its ancestors bound); stopped at its first row it is an extension
/// test (a witness's residual or child certificate, or the membership
/// test's, run on mu's values).
///
/// Every entry point takes an optional `ExecStats*`: when non-null the
/// join counts its storage work into it (`ranges_scanned`,
/// `values_probed`, `base/delta_triples_scanned`, `dict_encodes`) as
/// plain increments from the pulling thread. Null (stats collection
/// off) selects the uninstrumented scan walk. The join never decodes:
/// its rows stay `DataId`s.

namespace wdsparql {

/// A pattern compiled once against a view: the homomorphisms of
/// `patterns` that extend a row of `DataId`s. The row binds `row_vars`
/// (slot i holds the value of `row_vars[i]`; a slot whose entry is not a
/// variable is never read); the patterns' other variables are the
/// join's own.
///
/// Compiling encodes every constant once (`dict_encodes`), so running
/// the join never touches the dictionary. A constant absent from the
/// view decides the join at once: it is empty for every row. Each
/// pattern the row grounds becomes a whole-triple `SeekProbe` in the
/// cyclic permutation that best follows `row_vars`' order: rows that
/// ascend in it seek forward, and a key below the previous one rewinds
/// the probe. The other patterns form one Generic Join state with the
/// row's values as constants, reset by every `Open`, binding the own
/// variables in `var_order` when that is a permutation of them (the
/// planner's choice) and in the heuristic order otherwise. `Next`
/// resumes the descent where the previous row left it, so a caller that
/// stops early pays only for the rows it pulled. A pull allocates
/// nothing once warm.
///
/// The view must outlive the join; `stats` (optional) receives the
/// join's counters. One thread at a time.
class CompiledJoin {
 public:
  CompiledJoin(const ReadView& view, const std::vector<Triple>& patterns,
               const std::vector<TermId>& row_vars, ExecStats* stats = nullptr,
               const std::vector<TermId>* var_order = nullptr);
  ~CompiledJoin();
  CompiledJoin(CompiledJoin&&) noexcept;
  CompiledJoin& operator=(CompiledJoin&&) noexcept;

  /// Restarts the join on `row`, whose slots must cover the patterns'
  /// row variables; `Next` then pulls its rows.
  void Open(const DataId* row);

  /// Advances to the next homomorphism extending the open row: its own
  /// variables' values are in `values()`. False once exhausted (and
  /// until the next `Open`).
  bool Next();

  /// True iff some homomorphism of the patterns extends `row`: `Open`,
  /// then the first `Next`.
  bool Extends(const DataId* row) {
    Open(row);
    return Next();
  }

  /// The join's own variables in binding order, first-bound first. Rows
  /// of one `Open` arrive in ascending order of their values read in
  /// this order.
  const std::vector<TermId>& variables() const;

  /// The last row's values, parallel to `variables()`. Valid after
  /// `Next` returned true, until the next `Next` or `Open`.
  const DataId* values() const { return values_; }

 private:
  struct GroundProbe;
  struct State;

  bool absent_ = false;  // A constant is absent from the view.
  bool open_ = false;    // The open row passed every ground probe.
  std::vector<GroundProbe> ground_;
  std::unique_ptr<State> join_;  // Every pattern's own-variable join.
  const DataId* values_ = nullptr;  // The join's bindings, in binding order.
};

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_JOIN_H_
