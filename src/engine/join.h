#ifndef WDSPARQL_ENGINE_JOIN_H_
#define WDSPARQL_ENGINE_JOIN_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/read_view.h"
#include "wdsparql/mapping.h"
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
/// iteration), materialises the values of the smallest range only, and
/// keeps a value iff an existence probe with the value bound succeeds on
/// every other such conjunct. A probe binds the variable at every
/// position it occupies, so conjuncts that repeat a variable need no
/// special path. Any one or two bound positions form a sort prefix of
/// one of the three cyclic permutations SPO/POS/OSP, so every range and
/// every probe is a binary search.
///
/// Level values are sorted and distinct, so the enumeration order
/// depends on the variable order alone, never on which range happened
/// to be the smallest — and each conjunct's probes within one fill come
/// with ascending keys. Every probe is therefore a `SeekProbe` that
/// searches forward from its previous position (Leapfrog Triejoin's
/// seek, Veldhuizen, ICDT 2014), inside the range the level just sized
/// when the probe's bound positions extend that range's sort prefix (a
/// fully bound probe such as `(?y city c)` always does), in the full
/// runs of its own permutation otherwise. Each level keeps its sized
/// ranges while a conjunct's pattern under the bindings above is
/// unchanged, so a conjunct that shares no variable with the levels
/// above is located once per cursor.
///
/// The join is exposed two ways: `JoinCursor`, a pull-based resumable
/// iterator (the engine's suspendable enumeration builds on it); and
/// `CompiledTest`, an extension test compiled once and run on many rows
/// of `DataId`s — the paper's maximality certificates and witness tests,
/// run on each candidate the cursor emits, where the cursor left its
/// values, and the membership test's, run on mu's values.
///
/// Every entry point takes an optional `ExecStats*`: when non-null the
/// join counts its storage work into it (`ranges_scanned`,
/// `values_probed`, `base/delta_triples_scanned`, `dict_encodes`,
/// `dict_decodes`) as plain increments from the pulling thread. Null
/// (stats collection off) selects the uninstrumented scan walk.

namespace wdsparql {

/// Pull-based resumable join: each `Next` call produces one solution
/// mapping and suspends with the whole descent state (one {values,
/// position} frame per bound variable) intact, so a caller that stops
/// after the first row pays for one row — not for the subtree's whole
/// match set.
///
/// The cursor shares ownership of the view, so it can outlive the
/// `Execute` call that created it; `stats` (optional) must outlive the
/// cursor and is written from the pulling thread only.
class JoinCursor {
 public:
  /// Joins `patterns` over `view`, sharing ownership of the view.
  ///
  /// `var_order` (optional) injects a planner-chosen
  /// variable binding order: the `TermId`s of the pattern's unbound
  /// variables, first-bound first. Any order over the same variable set
  /// yields the same solution set (a conjunctive pattern's homomorphisms
  /// do not depend on enumeration order), just different work. The
  /// pointer is only read during construction. An order that does not
  /// cover the unbound variables exactly is ignored in favour of the
  /// built-in heuristic, so a stale plan can never produce wrong
  /// answers. Passing null preserves the historic heuristic order
  /// exactly (the `ExecOptions::optimize = false` contract).
  JoinCursor(std::shared_ptr<const ReadView> view,
             const std::vector<Triple>& patterns, ExecStats* stats = nullptr,
             const std::vector<TermId>* var_order = nullptr);
  ~JoinCursor();
  JoinCursor(JoinCursor&&) noexcept;
  JoinCursor& operator=(JoinCursor&&) noexcept;

  /// Produces the next solution: a mapping of the join's variables,
  /// written over `out` (whose storage is reused). Returns
  /// false once exhausted (and from then on).
  bool Next(Mapping* out);

  /// The join's variables in binding order: the first-bound first.
  /// Solutions arrive in ascending order of their values read in this
  /// order (as `DataId`s).
  const std::vector<TermId>& row_variables() const;

  /// The last solution's values, parallel to `row_variables()`: the row
  /// a `CompiledTest` reads. Valid after `Next` returned true, until the
  /// next `Next`.
  const DataId* row() const;

 private:
  friend class CompiledTest;  // Resets one join state per call.
  struct State;
  std::unique_ptr<State> state_;
};

/// An extension test compiled once against a view: does some
/// homomorphism of `patterns` extend a row of `DataId`s? The row binds
/// `row_vars` (slot i holds the value of `row_vars[i]`); the patterns'
/// other variables are the test's own.
///
/// Compiling encodes every constant once (`dict_encodes`), so running
/// the test never touches the dictionary. A constant absent from the
/// view decides the test at once: it fails for every row. Each pattern
/// the row grounds becomes a whole-triple `SeekProbe` in the cyclic
/// permutation that best follows `row_vars`' order: rows that ascend in
/// it (a `JoinCursor`'s do, over `row_variables()`) seek forward, and a
/// key below the previous one rewinds the probe. The other patterns
/// form one Generic Join state with the row's values as constants,
/// reset on every call and run to its first solution, with the heuristic
/// variable order. A call allocates nothing once warm.
///
/// The view must outlive the test; `stats` (optional) receives the
/// join's counters. One thread at a time.
class CompiledTest {
 public:
  CompiledTest(const ReadView& view, const std::vector<Triple>& patterns,
               const std::vector<TermId>& row_vars, ExecStats* stats = nullptr);
  ~CompiledTest();
  CompiledTest(CompiledTest&&) noexcept;
  CompiledTest& operator=(CompiledTest&&) noexcept;

  /// True iff some homomorphism of the patterns extends `row`'s
  /// bindings, which must cover the patterns' row variables.
  bool Extends(const DataId* row);

 private:
  struct GroundProbe;

  bool absent_ = false;  // A constant is absent from the view.
  std::vector<GroundProbe> ground_;
  std::unique_ptr<JoinCursor::State> join_;  // Null: every pattern is ground.
  Mapping solution_;  // The join's first solution, discarded.
};

}  // namespace wdsparql

#endif  // WDSPARQL_ENGINE_JOIN_H_
