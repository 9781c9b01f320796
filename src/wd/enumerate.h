#ifndef WDSPARQL_WD_ENUMERATE_H_
#define WDSPARQL_WD_ENUMERATE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ptree/forest.h"
#include "rdf/graph.h"
#include "rdf/scan.h"
#include "wdsparql/mapping.h"
#include "wdsparql/stats.h"
#include "wdsparql/trace.h"

/// \file
/// Answer enumeration for well-designed pattern forests.
///
/// The paper's Section 5 lists enumeration as a natural variant of
/// wdEVAL (cf. Kroll, Pichler & Skritek, ICDT 2016). In NR normal form
/// an answer of a tree T is a pair (T', mu): mu maps pat(T') into G with
/// dom(mu) = vars(T'), and no child c of T' extends mu (Sections 2.2 and
/// 3.1). Well-designedness puts every variable that c shares outside its
/// own subtree into c's parent, so "c extends mu" means "pat(c) has a
/// homomorphism under the values c's ancestors bound".
///
/// The enumerator therefore walks each tree top-down. The nodes run in
/// pre-order, each as one search: the homomorphisms of its pattern with
/// the values its ancestors bound as inputs. A child whose search finds
/// no row is left out; that empty search is its maximality certificate.
/// A child whose search finds rows must be in T', so the walk takes one
/// of them. Answers come out as an odometer over the nodes' rows: every
/// mapping the walk assembles is an answer of its tree, and each is
/// assembled exactly once.
///
/// Enumeration keeps no answer set. The forest must be in NR normal
/// form (checked at construction), where a mapping mu fixes its own
/// subtree: dom(mu) = vars(T'), and a tree has at most one subtree with
/// those variables (`FindWitnessSubtree`). So mu was already emitted iff
/// it is an answer of an earlier tree T_j — a stateless test against
/// T_j's witness subtree W: W's residual pat(W) \ pat(T') holds under
/// mu, and no child of W extends mu. The enumerator compiles these tests
/// for each distinct set of active nodes it meets, and keeps those of at
/// most `kCachedActiveSets` sets. A cursor's memory is therefore bounded
/// by the open tree's searches and that many sets' witness tests,
/// however many answers it streams.
///
/// Both backends plug in through one hook that opens a search
/// (`EnumerationHooks::open_search`). The indexed backend compiles a
/// Generic Join with input slots (`CompiledJoin`); the naive backend
/// runs the paper's CSP solver (`SolverSearch`).
///
/// Observability follows the same walk. Every enumerator counts into
/// one `ExecStats` record it owns: each row pulled from a search
/// (`candidates`); each child search (`maximality_tests`), which either
/// finds a row (`non_maximal`: the mapping assembled so far is not
/// maximal without the child) or none (`empty_subpatterns`); each
/// witness test (`maximality_tests` too); each assembled mapping that an
/// earlier tree already emitted (`dedup_rejected`). The record is the
/// only counter struct of an execution: the engine's cursor folds it
/// (and the join layer's storage counters, written into the same type)
/// into one `ExecStats`. With a trace sink set, the enumerator also adds
/// one `subtree` span per tree walk.

namespace wdsparql {

/// A value in a tree walk's row: a `DataId` on the indexed backend, a
/// `TermId` on the naive one. The hooks decode it (`EnumerationHooks`).
using RowValue = uint32_t;

/// A `row_vars` entry for a slot a search never reads (any non-variable
/// works: only variables are looked up).
inline constexpr TermId kUnreadSlot = 0;

/// What the cost-based planner chose for a root search, surfaced for
/// EXPLAIN output: the estimates feed `ExecStats::Subpattern` so a
/// report shows estimated next to actual cardinality per node.
struct SearchPlanInfo {
  double est_rows = 0;       ///< Estimated rows of the root search.
  double est_cost = 0;       ///< Estimated join work of the descent.
  uint64_t plan_ns = 0;      ///< Time spent planning the root.
  std::string description;   ///< e.g. "order=[?y ?x]"; only rendered when
                             ///< the breakdown is collected.
};

/// One search the enumerator asks a backend for: the homomorphisms of
/// `pattern` that extend the values a tree walk's row holds.
struct SearchSpec {
  /// What the search matches: pat(n) of a tree node, a witness's
  /// residual, or pat(c) of a witness's child. Valid during the
  /// `open_search` call only.
  const TripleSet* pattern = nullptr;
  /// The row's layout: slot i holds the value of `row_vars[i]`; slots
  /// whose entry is not a variable (`kUnreadSlot`) are not inputs. The
  /// pattern's other variables are the search's own.
  const std::vector<TermId>* row_vars = nullptr;
  /// When the search is node `node` of `tree` (pattern ==
  /// tree->pattern(node)), the tree; null for a residual. A root search
  /// may be planned.
  const PatternTree* tree = nullptr;
  NodeId node = 0;
  /// True for a witness test, which pulls at most one row per `Open`: a
  /// search that materialises its rows may stop after the first.
  bool first_row_only = false;
};

/// One node search, compiled once and opened on many rows. A search
/// carries its state between `Next` calls, so a consumer that stops early
/// (row limits, cancellation) pays only for the rows it pulled.
class NodeSearch {
 public:
  virtual ~NodeSearch() = default;

  /// Restarts the search under `row`'s values for its input slots.
  virtual void Open(const RowValue* row) = 0;

  /// Pulls the next row of the open search into `values()`; false once
  /// exhausted (until the next `Open`).
  virtual bool Next() = 0;

  /// The search's own variables, fixed at construction.
  virtual const std::vector<TermId>& variables() const = 0;

  /// The last row, parallel to `variables()`.
  virtual const RowValue* values() const = 0;

  /// The cost-based plan behind a root search, when one was chosen (the
  /// indexed backend with statistics available); null otherwise. Valid
  /// as long as the search lives.
  virtual const SearchPlanInfo* plan_info() const { return nullptr; }
};

/// The hooks customising the enumeration skeleton. Plugging in the CSP
/// solver or the engine's Generic Join yields the naive and indexed
/// enumerators.
struct EnumerationHooks {
  /// Compiles one search. `stop` is the enumerator's interruption
  /// check: a search that does work up front in `Open` (materialising
  /// its rows) consults it per row and returns early once it fires; a
  /// lazy search may ignore it, because the enumerator checks between
  /// pulls. `stop` outlives the search.
  std::function<std::unique_ptr<NodeSearch>(const SearchSpec& spec,
                                            const std::function<bool()>& stop)>
      open_search;
  /// Turns a row value into the term it stands for when an answer is
  /// emitted; null when row values are `TermId`s already.
  std::function<TermId(RowValue)> decode;
};

/// The paper's literal extension test: true iff some homomorphism of
/// `test` into `source` extends `mu` — decided by the CSP solver, or for
/// `pebble_promise` k >= 1 by the (k+1)-pebble game (exact under
/// dw <= k, and never rejecting a true extension).
bool LiteralExtends(const TripleSet& test, const Mapping& mu, const TripleSource& source,
                    int pebble_promise);

/// A search by the paper's CSP solver over `source`: `Open` materialises
/// the homomorphisms of `spec`'s pattern under the row's inputs (only
/// the first for `first_row_only`), and stops as soon as `stop` returns
/// true (the partial batch is never delivered: the enumerator is
/// interrupted). Row values are `TermId`s.
std::unique_ptr<NodeSearch> SolverSearch(const SearchSpec& spec, const TripleSource& source,
                                         const std::function<bool()>& stop);

/// The enumeration skeleton, pull-based and suspendable — the engine's
/// `Cursor` runs on this. Each `Next` call resumes the tree walk where
/// the previous one stopped, advances the odometer over the nodes' rows
/// until it assembles a mapping no earlier tree emitted, and suspends
/// again. With a lazy search (the indexed backend's compiled join)
/// nothing is materialised: a `row_limit=1` execution pulls one row per
/// node on the way to its first answer.
///
/// The forest must be in NR normal form (every tree's
/// `IsNrNormalForm()`, checked at construction) and outlive the
/// enumerator, and the hooks must stay valid (they typically close over
/// the storage backend).
class SolutionEnumerator {
 public:
  /// How many active sets' compiled witness tests a tree walk keeps. A
  /// root with k OPT children can meet 2^k sets; past this many the
  /// cache starts over, and a set met again is compiled again.
  static constexpr std::size_t kCachedActiveSets = 32;

  enum class State {
    kStart,    ///< No Next() call yet.
    kActive,   ///< Mid-enumeration: at least one answer delivered or sought.
    kDone,     ///< Exhausted: every further Next() returns false.
  };

  SolutionEnumerator(const PatternForest& forest, EnumerationHooks hooks);
  ~SolutionEnumerator();
  SolutionEnumerator(const SolutionEnumerator&) = delete;
  SolutionEnumerator& operator=(const SolutionEnumerator&) = delete;

  /// Advances to the next distinct maximal solution, written over `out`.
  /// Returns false when the solution set is exhausted (state() == kDone
  /// from then on) or when the interruption probe fired
  /// (`interrupted()` distinguishes); `*out` is unspecified then.
  bool Next(Mapping* out);

  /// Installs a cooperative interruption probe, consulted every
  /// `interval` enumeration steps (a step is one assembled mapping, or
  /// one row a materialising search collects — so the machine stops
  /// *mid-tree*, within a bounded amount of work, not at the next answer
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
  /// `candidates`, `dedup_rejected`, `non_maximal`, `maximality_tests`,
  /// `empty_subpatterns` and `interrupt_checks`. Every assembled mapping
  /// gets one verdict: emitted, or `dedup_rejected`. Every child search
  /// finds a row (`non_maximal`) or none (`empty_subpatterns`). The
  /// per-node breakdown (`subpatterns`) is only filled once
  /// `CollectStats` enabled it.
  const ExecStats& stats() const { return stats_; }

  /// Enables the per-node breakdown, with each node's pattern rendered
  /// through `pool` (which must outlive the enumerator). Without it the
  /// hot path renders and allocates nothing. Call before the first
  /// `Next`.
  void CollectStats(const TermPool* pool) { pool_ = pool; }

  /// Adds one `subtree` span per tree walk to `trace`, under `parent`,
  /// annotated with `tree`, `nodes` and `candidates`. The open walk's
  /// span ends when the tree is exhausted, at interruption or at
  /// destruction. `trace` must outlive the enumerator and is written
  /// from the thread pulling it. Call before the first `Next`.
  void SetTraceSink(TraceContext* trace, uint32_t parent) {
    trace_ = trace;
    trace_parent_ = parent;
  }

 private:
  /// One node of the loaded tree, at its pre-order position.
  struct Node {
    NodeId id = 0;
    int parent = -1;       // Position of the parent; -1 for the root.
    std::size_t end = 0;   // One past the last position of its subtree.
    std::unique_ptr<NodeSearch> search;  // Compiled at its first search.
    std::vector<std::size_t> slots;      // Row slots of its own variables.
    bool active = false;    // Holds a row in its slots.
    bool at_first = false;  // That row is the first since the last open.
    bool changed = false;   // Scratch of `Descend`.
    int entry = -1;         // Breakdown entry; -1 = none yet.
  };

  /// An earlier tree's witness subtree for one set of active nodes: the
  /// residual (null when pat(W) ⊆ pat(T')), then one search per child.
  struct Witness {
    std::unique_ptr<NodeSearch> residual;
    std::vector<std::unique_ptr<NodeSearch>> children;
  };

  /// What an answer over one set of active nodes needs: its (variable,
  /// slot) pairs by variable, and the earlier trees' witnesses.
  struct ActiveSet {
    std::vector<std::pair<TermId, std::size_t>> emit;
    std::vector<Witness> witnesses;
  };

  /// Loads the next tree (pre-order, span). False when none is left.
  bool LoadNextTree();

  /// Appends node `id` of the loaded tree and its subtree in pre-order,
  /// children in insertion order, under position `parent`.
  void AppendPreOrder(NodeId id, int parent);

  /// Drops the loaded tree and ends its span.
  void EndTree();

  /// Re-establishes every position after `advanced` (-1: a fresh tree),
  /// re-searching exactly the nodes whose state a restart changes.
  /// Returns false iff the root found no row or the probe fired.
  bool Descend(int advanced);

  /// Moves the odometer to the next assembled mapping; false once the
  /// tree is exhausted (or the probe fired).
  bool Advance();

  /// Marks `node` active or not, noting a change of the active set.
  void SetActive(Node& node, bool active) {
    if (node.active != active) active_changed_ = true;
    node.active = active;
  }

  /// Opens node `p`'s search on the row and pulls its first row.
  bool Search(std::size_t p);

  /// Pulls node `p`'s next row into its slots.
  bool Pull(std::size_t p);

  /// Compiles node `p`'s search and gives its own variables slots.
  void BuildSearch(std::size_t p);

  /// The row layout with only the slots owned by positions `keep`
  /// accepts as variables.
  template <typename Keep>
  std::vector<TermId> RowVars(Keep keep) const;

  /// The cached `ActiveSet` of the current active nodes.
  ActiveSet& CurrentSet();

  /// True iff `witness` accepts the assembled mapping: its residual
  /// holds and no child extends it — an answer of the witness's tree.
  /// Each test counts one `maximality_tests`.
  bool Accepts(Witness& witness);

  /// The breakdown entry of position `p` (created on first use), or
  /// null when the breakdown is off.
  ExecStats::Subpattern* Entry(std::size_t p);

  /// Counts one enumeration step; every `probe_interval_` steps asks
  /// the probe whether to stop. Returns (and latches) the interrupted
  /// state.
  bool CheckInterrupt();

  const PatternForest* forest_;
  EnumerationHooks hooks_;
  std::function<bool()> stop_;  // CheckInterrupt, as the searches' stop.
  ExecStats stats_;
  State state_ = State::kStart;

  const TermPool* pool_ = nullptr;  // Non-null: breakdown on (CollectStats).

  TraceContext* trace_ = nullptr;  // See SetTraceSink.
  uint32_t trace_parent_ = 0;
  uint32_t tree_span_ = 0;  // The loaded tree's span; 0 = none.

  // Cooperative interruption (see SetInterruptProbe).
  std::function<bool()> probe_;
  uint32_t probe_interval_ = 64;
  uint32_t steps_since_probe_ = 0;
  bool interrupted_ = false;

  // The tree walk. kNoTree marks "no tree loaded yet"; the first load
  // wraps it to tree 0.
  static constexpr std::size_t kNoTree = static_cast<std::size_t>(-1);
  std::size_t tree_idx_ = kNoTree;
  std::vector<Node> nodes_;  // The loaded tree in pre-order; empty between trees.
  /// The row: one slot per own variable of every compiled search, in
  /// compile order; `slot_owner_` names the position owning each.
  std::vector<RowValue> row_;
  std::vector<TermId> slot_vars_;
  std::vector<std::size_t> slot_owner_;
  uint64_t tree_candidates_ = 0;  // Rows pulled in the loaded tree.
  /// Per set of active positions of the loaded tree, at most
  /// `kCachedActiveSets` of them. `last_set_` is the previous lookup's,
  /// still current unless `active_changed_`.
  std::map<std::vector<bool>, ActiveSet> active_sets_;
  ActiveSet* last_set_ = nullptr;
  bool active_changed_ = false;
};

/// Streams every mu in JFKG, using exact homomorphism maximality tests.
/// The callback may return false to stop. Each answer is delivered once. A non-null `stats` receives the enumerator's
/// record, with `rows_emitted` set to the answers the callback received.
void EnumerateSolutionsNaive(const PatternForest& forest, const RdfGraph& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             ExecStats* stats = nullptr);

/// Backend-generic variant: the searches run against the `TripleSource`
/// scan interface (hash backend or the engine's dictionary-encoded
/// permutation store).
void EnumerateSolutionsNaive(const PatternForest& forest, const TripleSource& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             ExecStats* stats = nullptr);

/// |JFKG| via the naive enumeration (counting variant; Section 5).
uint64_t CountSolutions(const PatternForest& forest, const RdfGraph& graph);

}  // namespace wdsparql

#endif  // WDSPARQL_WD_ENUMERATE_H_
