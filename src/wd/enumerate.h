#ifndef WDSPARQL_WD_ENUMERATE_H_
#define WDSPARQL_WD_ENUMERATE_H_

#include <functional>
#include <memory>
#include <vector>

#include "ptree/forest.h"
#include "ptree/subtree.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "wd/eval.h"
#include "wdsparql/mapping.h"
#include "wdsparql/stats.h"
#include "wdsparql/trace.h"

/// \file
/// Answer enumeration under the domination-width promise.
///
/// The paper's Section 5 lists enumeration as a natural variant of
/// wdEVAL (cf. Kroll-Pichler-Skritek). This module materialises JFKG by
/// enumerating, per tree, the homomorphisms of each subtree pattern and
/// certifying maximality with the same machinery the membership
/// algorithms use:
///
///  * `EnumerateSolutionsNaive`  — exact homomorphism maximality tests
///    (always correct; this is the ptree/semantics.h oracle re-exposed
///    with streaming callbacks and statistics);
///  * `EnumerateSolutionsPebble` — Theorem 1-style (k+1)-pebble
///    maximality tests: every emitted mapping is a genuine answer
///    (soundness is unconditional), and under the promise dw(F) <= k the
///    output is exactly JFKG.
///
/// Candidate generation is exponential in |P| (unavoidable: answers can
/// be exponentially many); the promise only de-NP-hardens the per-
/// candidate maximality certificates, mirroring the paper's separation
/// between candidate structure and extension tests.
///
/// Enumeration keeps no answer set. The forest must be in NR normal
/// form (checked at construction), where a mapping mu fixes its own
/// subtree: dom(mu) = vars(T'), and a tree has at most one subtree with
/// those variables (`FindWitnessSubtree`). So one tree never yields an
/// answer twice, and mu was already emitted iff it is an answer of an
/// earlier tree T_j — a stateless membership test against T_j's witness
/// subtree, the same extension tests wdEVAL runs. A cursor's memory is
/// therefore bounded by the open subtree's state, however many answers
/// it streams.
///
/// The extension tests of a subtree are fixed when it opens: its
/// children's certificates and, per earlier witness, the residual and
/// the witness's certificates (`ExtensionTest`). The backend compiles
/// them once, with the candidate source (`EnumerationHooks`), and runs
/// them on every candidate.
///
/// Observability follows the same split. Every enumerator counts into
/// one `ExecStats` record it owns: per candidate, the homomorphism of
/// pat(T') pulled (`candidates`), then exactly one verdict — an answer
/// of an earlier tree (`dedup_rejected`), extendable by a child
/// (`non_maximal`), or an answer. Every extension test, of an earlier
/// tree's witness or of the open subtree, counts one
/// `maximality_tests`. The record is the only counter struct of an
/// execution: the engine's cursor folds the enumerator's record (and
/// the join layer's storage counters, written into the same type) into
/// one `ExecStats`. With a trace sink set, the enumerator also adds one
/// `subtree` span per wdpf subtree it opens.

namespace wdsparql {

/// What a cost-based generator decided for its subtree, surfaced for
/// EXPLAIN output: the estimates feed `ExecStats::Subpattern` so a
/// report shows estimated next to actual cardinality per subtree.
struct CandidatePlanInfo {
  double est_rows = 0;       ///< Estimated subtree solutions.
  double est_cost = 0;       ///< Estimated join work of the descent.
  uint64_t plan_ns = 0;      ///< Time spent planning this subtree.
  std::string description;   ///< e.g. "order=[?y ?x]".
};

/// One extension test a candidate of the open subtree T' faces, in two
/// forms. Each is an existence question: does some homomorphism of the
/// pattern extend the candidate mu?
struct ExtensionTest {
  /// The paper's test: pat(T) ∪ pat(c) for a child c of T, where T is
  /// T' or an earlier tree's witness subtree W; or W's residual.
  TripleSet literal;
  /// What mu has not satisfied yet when the test runs: pat(c), or the
  /// residual itself. mu is a homomorphism of pat(T'), and of pat(W)
  /// once W's residual holds; both bind only dom(mu) = vars(T') = vars(W),
  /// so the two forms give the same verdict.
  TripleSet reduced;
};

/// One open subtree's suspendable candidate source and its compiled
/// extension tests: the subtree pattern's homomorphisms, delivered one
/// `Next` call at a time, and the tests run on each. Generators carry
/// their whole search state between calls, so a consumer that stops
/// early (row limits, cancellation) pays only for the candidates it
/// actually pulled — never for the subtree's whole match set.
class CandidateGenerator {
 public:
  virtual ~CandidateGenerator() = default;

  /// Writes the next candidate homomorphism over `out` (reusing its
  /// storage); false once exhausted (and from then on).
  virtual bool Next(Mapping* out) = 0;

  /// Runs extension test `test` (an index into the tests the generator
  /// was opened with) on `mu`, the candidate the last `Next` wrote:
  /// true iff some homomorphism of the test's pattern extends mu.
  virtual bool Extends(std::size_t test, const Mapping& mu) = 0;

  /// The cost-based plan behind this generator, when one was chosen
  /// (the indexed backend with statistics available); null otherwise.
  /// Valid as long as the generator lives.
  virtual const CandidatePlanInfo* plan_info() const { return nullptr; }
};

/// The hook customising the enumeration skeleton: per tree, per
/// subtree, pull candidates, reject the answers of earlier trees,
/// certify maximality against each child, emit. Plugging in the CSP
/// solver, the pebble game or the engine's Generic Join yields the
/// naive, Theorem 1 and indexed enumerators respectively.
struct EnumerationHooks {
  /// Opens one subtree: the candidate source for its pattern, with
  /// `tests` compiled once for all its candidates (the backend picks
  /// either form of each). `stop` is the enumerator's interruption
  /// check: a source that does work up front (materialising a match
  /// set) consults it per candidate and returns early once it fires; a
  /// lazy source may ignore it, because the enumerator checks between
  /// pulls. The engine's indexed backend wires a resumable `JoinCursor`
  /// through here, which is what makes the whole enumeration suspendable
  /// candidate-by-candidate, and runs the reduced tests on the cursor's
  /// rows.
  std::function<std::unique_ptr<CandidateGenerator>(
      const TripleSet& pattern, const std::vector<ExtensionTest>& tests,
      const std::function<bool()>& stop)>
      open_subtree;
};

/// The paper's literal extension test: true iff some homomorphism of
/// `test` into `source` extends `mu` — decided by the CSP solver, or for
/// `pebble_promise` k >= 1 by the (k+1)-pebble game (exact under
/// dw <= k, and never rejecting a true extension).
bool LiteralExtends(const TripleSet& test, const Mapping& mu, const TripleSource& source,
                    int pebble_promise);

/// A subtree source for the paper's CSP solver: the homomorphisms of
/// `pattern` into `source`, materialised up front and drained one pull
/// at a time, with each of `tests` run literally (`LiteralExtends` on
/// its `literal` form). Stops materialising as soon as `stop` returns
/// true (the partial batch is never delivered: the enumerator is
/// interrupted).
std::unique_ptr<CandidateGenerator> MaterializeHomomorphisms(
    const TripleSet& pattern, const std::vector<ExtensionTest>& tests,
    const TripleSource& source, int pebble_promise, const std::function<bool()>& stop);

/// The enumeration skeleton, pull-based and suspendable — the engine's
/// `Cursor` runs on this. The enumeration is an explicit state
/// machine over (tree, subtree, candidate-generator) coordinates: each
/// `Next` call resumes exactly where the previous one stopped, pulls
/// candidates one at a time from the open subtree's generator, runs the
/// earlier-tree witness tests and the per-child maximality certificates
/// for as many candidates as it takes to reach the next answer, and
/// suspends again.
/// With a lazy candidate source (the indexed backend's resumable
/// join) nothing is materialised at all: a `row_limit=1`
/// execution generates one candidate, not the subtree's whole match
/// set. The naive backend's source (`MaterializeHomomorphisms`) keeps
/// the materialise-per-subtree behaviour behind the same interface.
///
/// The forest must be in NR normal form (every tree's
/// `IsNrNormalForm()`, checked at construction) and outlive the
/// enumerator, and the hooks must stay valid (they typically close over
/// the storage backend).
class SolutionEnumerator {
 public:
  enum class State {
    kStart,    ///< No Next() call yet.
    kActive,   ///< Mid-enumeration: at least one answer delivered or sought.
    kDone,     ///< Exhausted: every further Next() returns false.
  };

  SolutionEnumerator(const PatternForest& forest, EnumerationHooks hooks);
  ~SolutionEnumerator();

  /// Advances to the next distinct maximal solution, written over `out`.
  /// Returns false when the solution set is exhausted (state() == kDone
  /// from then on) or when the interruption probe fired
  /// (`interrupted()` distinguishes); `*out` is unspecified then.
  bool Next(Mapping* out);

  /// Installs a cooperative interruption probe, consulted every
  /// `interval` enumeration steps (a step is one candidate generated or
  /// one buffered candidate examined — so the machine stops *mid-
  /// subtree*, within a bounded amount of work, not at the next answer
  /// boundary). Once the probe returns true the enumeration is over:
  /// `Next` returns false from then on and `interrupted()` stays true.
  /// The engine's `Cursor` wires `ExecOptions` deadlines and
  /// cancellation tokens through this.
  void SetInterruptProbe(std::function<bool()> probe, uint32_t interval) {
    probe_ = std::move(probe);
    probe_interval_ = interval == 0 ? 1 : interval;
  }

  /// True iff the enumeration was stopped by the interruption probe
  /// (as opposed to running out of answers).
  bool interrupted() const { return interrupted_; }

  State state() const { return state_; }

  /// The enumeration's record, always counted as plain increments:
  /// `candidates`, `dedup_rejected`, `non_maximal`, `maximality_tests`
  /// and `interrupt_checks`. Every candidate gets exactly one verdict, so
  /// `candidates == dedup_rejected + non_maximal + answers delivered`.
  /// The per-subpattern breakdown (`subpatterns`, `empty_subpatterns`)
  /// is only filled once `CollectStats` enabled it.
  const ExecStats& stats() const { return stats_; }

  /// Enables the per-subpattern breakdown, with pat(T') rendered through
  /// `pool` (which must outlive the enumerator). Without it the hot path
  /// renders and allocates nothing. Call before the first `Next`.
  void CollectStats(const TermPool* pool) { pool_ = pool; }

  /// Adds one `subtree` span per wdpf subtree opened to `trace`, under
  /// `parent`, annotated with `tree`, `subtree` and `candidates`. The
  /// open subtree's span ends at its boundary, at exhaustion,
  /// interruption or destruction. `trace` must outlive the enumerator
  /// and is written from the thread pulling it. Call before the first
  /// `Next`.
  void SetTraceSink(TraceContext* trace, uint32_t parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

 private:
  /// A subtree whose answers a candidate is tested against, as a range
  /// of the open subtree's tests: first its residual (the triples of its
  /// pattern that the open subtree's pattern lacks), when it has one,
  /// then one certificate per child.
  struct Witness {
    bool has_residual = false;
    std::size_t begin = 0;  // Into `tests_`.
    std::size_t end = 0;
  };

  /// True iff `witness` accepts `mu` (a homomorphism of the open
  /// subtree's pattern with dom(mu) = its variables): `mu` satisfies the
  /// residual and no child extends it — that is, mu is an answer of the
  /// witness's tree. Each extension test counts one `maximality_tests`.
  bool Accepts(const Witness& witness, const Mapping& mu);

  /// Appends `subtree`'s certificates to `tests_` and returns the
  /// witness over them; `residual`, when non-empty, goes first.
  Witness AddWitness(const Subtree& subtree, TripleSet residual);

  /// Opens the next subtree (pattern, children, candidate generator,
  /// subtree span). Returns false when every tree is exhausted or the
  /// interruption probe fired mid-materialisation.
  bool AdvanceSubtree();

  /// Counts one enumeration step; every `probe_interval_` steps asks
  /// the probe whether to stop. Returns (and latches) the interrupted
  /// state.
  bool CheckInterrupt();

  /// The breakdown entry of the open subtree, or null when the
  /// breakdown is off or the subtree has produced no candidate yet.
  ExecStats::Subpattern* CurSubpattern() {
    return sub_open_ ? &stats_.subpatterns.back() : nullptr;
  }

  /// Ends the open subtree's span, if any (subtree boundary,
  /// exhaustion, interruption, destruction — whichever comes first),
  /// annotated with the candidates pulled so far — a lazy generator only
  /// knows its candidate count at the boundary, not up front.
  void EndSubtreeSpan();

  const PatternForest* forest_;
  EnumerationHooks hooks_;
  ExecStats stats_;
  State state_ = State::kStart;

  const TermPool* pool_ = nullptr;  // Non-null: breakdown on (CollectStats).
  bool sub_open_ = false;  // Does subpatterns.back() describe the open subtree?

  TraceContext* trace_ = nullptr;  // See SetTraceSink.
  uint32_t trace_parent_ = 0;
  uint32_t subtree_span_ = 0;  // The open subtree's span; 0 = none.

  // Cooperative interruption (see SetInterruptProbe).
  std::function<bool()> probe_;
  uint32_t probe_interval_ = 64;
  uint32_t steps_since_probe_ = 0;
  bool interrupted_ = false;

  // Explicit iteration coordinates. kNoTree marks "no tree loaded yet";
  // the first advance wraps it to tree 0.
  static constexpr std::size_t kNoTree = static_cast<std::size_t>(-1);
  std::size_t tree_idx_ = kNoTree;
  std::vector<Subtree> subtrees_;        // Subtrees of the current tree.
  std::size_t subtree_idx_ = 0;          // Next subtree to open.
  TripleSet pattern_;                    // pat(T') of the open subtree.
  /// Every extension test of the open subtree, compiled by its generator.
  std::vector<ExtensionTest> tests_;
  /// The open subtree itself (empty residual), built once when it opens.
  Witness open_;
  /// The witness subtree of every earlier tree that has one with the
  /// open subtree's variables: a candidate one of them accepts was
  /// already emitted there.
  std::vector<Witness> earlier_;
  /// The open subtree's candidate source and compiled tests (null
  /// between subtrees): the full suspendable-join state on the indexed
  /// backend, a materialised vector on the naive one.
  std::unique_ptr<CandidateGenerator> generator_;
  uint64_t cur_candidates_ = 0;          // Candidates pulled from `generator_`.
};

/// Streams every mu in JFKG, using exact homomorphism maximality tests.
/// The callback may return false to stop. Each answer is delivered once. A non-null `stats` receives the enumerator's
/// record, with `rows_emitted` set to the answers the callback received.
void EnumerateSolutionsNaive(const PatternForest& forest, const RdfGraph& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             ExecStats* stats = nullptr);

/// Backend-generic variant: candidate generation and maximality tests
/// run against the `TripleSource` scan interface (hash backend or the
/// engine's dictionary-encoded permutation store).
void EnumerateSolutionsNaive(const PatternForest& forest, const TripleSource& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             ExecStats* stats = nullptr);

/// Streams answers using (k+1)-pebble maximality tests. Every emitted
/// mapping is in JFKG; under dw(F) <= k the stream is exactly JFKG.
void EnumerateSolutionsPebble(const PatternForest& forest, const RdfGraph& graph,
                              int k, const std::function<bool(const Mapping&)>& callback,
                              ExecStats* stats = nullptr);

/// Convenience: materialise the pebble enumeration, sorted and unique.
std::vector<Mapping> AllSolutionsPebble(const PatternForest& forest,
                                        const RdfGraph& graph, int k,
                                        ExecStats* stats = nullptr);

/// |JFKG| via the naive enumeration (counting variant; Section 5).
uint64_t CountSolutions(const PatternForest& forest, const RdfGraph& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_WD_ENUMERATE_H_
