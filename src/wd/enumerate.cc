#include "wd/enumerate.h"

#include <algorithm>

#include "hom/homomorphism.h"
#include "hom/pebble.h"
#include "ptree/subtree.h"
#include "ptree/tgraph.h"

namespace wdsparql {
namespace {

std::string RenderTerm(const TermPool& pool, TermId term) {
  std::string spelling(pool.Spelling(term));
  return IsVariable(term) ? "?" + spelling : spelling;
}

/// Renders a node's pattern for the ExecStats breakdown, e.g.
/// "(?x knows ?y) AND (?y email ?e)".
std::string RenderPattern(const TermPool& pool, const TripleSet& pattern) {
  std::string out;
  for (const Triple& t : pattern.triples()) {
    if (!out.empty()) out += " AND ";
    out += "(" + RenderTerm(pool, t.subject) + " " +
           RenderTerm(pool, t.predicate) + " " + RenderTerm(pool, t.object) + ")";
  }
  return out;
}

/// The (variable, slot) pairs of `row_vars` that `pattern` mentions.
std::vector<std::pair<TermId, std::size_t>> InputsOf(const TripleSet& pattern,
                                                     const std::vector<TermId>& row_vars) {
  std::vector<std::pair<TermId, std::size_t>> inputs;
  std::vector<TermId> vars = pattern.Variables();
  std::sort(vars.begin(), vars.end());
  for (std::size_t slot = 0; slot < row_vars.size(); ++slot) {
    if (IsVariable(row_vars[slot]) &&
        std::binary_search(vars.begin(), vars.end(), row_vars[slot])) {
      inputs.emplace_back(row_vars[slot], slot);
    }
  }
  return inputs;
}

/// The CSP solver's search: the rows of one `Open`, materialised there
/// and drained one pull at a time.
class SolverNodeSearch final : public NodeSearch {
 public:
  SolverNodeSearch(const SearchSpec& spec, const TripleSource& source,
                   const std::function<bool()>& stop)
      : pattern_(*spec.pattern),
        source_(source),
        stop_(stop),
        inputs_(InputsOf(pattern_, *spec.row_vars)),
        first_row_only_(spec.first_row_only) {
    for (TermId var : pattern_.Variables()) {
      if (std::none_of(inputs_.begin(), inputs_.end(),
                       [var](const auto& input) { return input.first == var; })) {
        variables_.push_back(var);
      }
    }
  }

  void Open(const RowValue* row) override {
    rows_.clear();
    num_rows_ = 0;
    pos_ = 0;
    VarAssignment fixed;
    for (const auto& [var, slot] : inputs_) fixed.emplace(var, row[slot]);
    EnumerateHomomorphisms(pattern_, fixed, source_, [&](const VarAssignment& assignment) {
      // Returning false stops the scan mid-range, so a huge match set
      // still stops within one check interval of an interruption.
      if (stop_()) return false;
      for (TermId var : variables_) rows_.push_back(assignment.at(var));
      ++num_rows_;
      return !first_row_only_;
    });
  }

  bool Next() override {
    if (pos_ >= num_rows_) return false;
    ++pos_;
    return true;
  }

  const std::vector<TermId>& variables() const override { return variables_; }

  const RowValue* values() const override {
    return rows_.data() + (pos_ - 1) * variables_.size();
  }

 private:
  const TripleSet pattern_;
  const TripleSource& source_;
  const std::function<bool()>& stop_;
  const std::vector<std::pair<TermId, std::size_t>> inputs_;
  const bool first_row_only_;
  std::vector<TermId> variables_;
  std::vector<RowValue> rows_;  // num_rows_ rows of variables_.size() values.
  std::size_t num_rows_ = 0;
  std::size_t pos_ = 0;
};

/// Drains a fresh enumerator into `callback` (the streaming wrappers
/// below).
void Drain(const PatternForest& forest, EnumerationHooks hooks,
           const std::function<bool(const Mapping&)>& callback,
           ExecStats* stats) {
  SolutionEnumerator enumerator(forest, std::move(hooks));
  Mapping mu;
  uint64_t rows = 0;
  while (enumerator.Next(&mu)) {
    ++rows;
    if (!callback(mu)) break;
  }
  if (stats != nullptr) {
    *stats = enumerator.stats();
    stats->rows_emitted = rows;
  }
}

/// Hooks running `SolverSearch` over `source`.
EnumerationHooks SolverHooks(const TripleSource& source) {
  EnumerationHooks hooks;
  hooks.open_search = [&source](const SearchSpec& spec, const std::function<bool()>& stop) {
    return SolverSearch(spec, source, stop);
  };
  return hooks;
}

// Copy-assigning it clears an answer but keeps its binding storage,
// which assigning a temporary would free.
const Mapping kNoBindings;

}  // namespace

bool LiteralExtends(const TripleSet& test, const Mapping& mu, const TripleSource& source,
                    int pebble_promise) {
  if (pebble_promise > 0) {
    return PebbleGameWins(test, MappingToAssignment(mu), source, pebble_promise + 1);
  }
  return HasHomomorphism(test, MappingToAssignment(mu), source);
}

std::unique_ptr<NodeSearch> SolverSearch(const SearchSpec& spec, const TripleSource& source,
                                         const std::function<bool()>& stop) {
  return std::make_unique<SolverNodeSearch>(spec, source, stop);
}

SolutionEnumerator::SolutionEnumerator(const PatternForest& forest,
                                       EnumerationHooks hooks)
    : forest_(&forest), hooks_(std::move(hooks)), stop_([this] { return CheckInterrupt(); }) {
  // Enumeration without an answer set rests on NR normal form: it is
  // what makes a mapping's subtree, and so its one derivation per tree,
  // unique.
  for (const PatternTree& tree : forest.trees) {
    WDSPARQL_CHECK(tree.IsNrNormalForm());
  }
}

SolutionEnumerator::~SolutionEnumerator() { EndTree(); }

bool SolutionEnumerator::CheckInterrupt() {
  if (interrupted_ || !probe_) return interrupted_;
  if (++steps_since_probe_ < probe_interval_) return false;
  steps_since_probe_ = 0;
  ++stats_.interrupt_checks;
  if (probe_()) interrupted_ = true;
  return interrupted_;
}

bool SolutionEnumerator::LoadNextTree() {
  const std::size_t next = tree_idx_ + 1;  // kNoTree wraps to 0.
  if (next >= forest_->trees.size()) return false;
  tree_idx_ = next;
  AppendPreOrder(forest_->trees[tree_idx_].root(), -1);
  tree_candidates_ = 0;
  // One span per tree walk, covering its searches, its witness tests and
  // its answers until the tree is exhausted — the tree-granular "where
  // did the time go" answer; per-row cost stays out of the trace.
  if (trace_ != nullptr) {
    tree_span_ = trace_->StartSpan("subtree", trace_parent_);
    trace_->Annotate(tree_span_, "tree", static_cast<uint64_t>(tree_idx_));
    trace_->Annotate(tree_span_, "nodes", static_cast<uint64_t>(nodes_.size()));
  }
  return true;
}

void SolutionEnumerator::AppendPreOrder(NodeId id, int parent) {
  const std::size_t p = nodes_.size();
  nodes_.emplace_back();
  nodes_[p].id = id;
  nodes_[p].parent = parent;
  for (NodeId child : forest_->trees[tree_idx_].children(id)) {
    AppendPreOrder(child, static_cast<int>(p));
  }
  nodes_[p].end = nodes_.size();
}

void SolutionEnumerator::EndTree() {
  if (tree_span_ != 0) {
    trace_->Annotate(tree_span_, "candidates", tree_candidates_);
    trace_->EndSpan(tree_span_);
    tree_span_ = 0;
  }
  active_sets_.clear();
  last_set_ = nullptr;
  nodes_.clear();
  row_.clear();
  slot_vars_.clear();
  slot_owner_.clear();
}

template <typename Keep>
std::vector<TermId> SolutionEnumerator::RowVars(Keep keep) const {
  std::vector<TermId> row_vars(slot_vars_.size(), kUnreadSlot);
  for (std::size_t slot = 0; slot < slot_vars_.size(); ++slot) {
    if (keep(slot_owner_[slot])) row_vars[slot] = slot_vars_[slot];
  }
  return row_vars;
}

void SolutionEnumerator::BuildSearch(std::size_t p) {
  Node& node = nodes_[p];
  const PatternTree& tree = forest_->trees[tree_idx_];
  // The inputs are the variables the node's ancestors bound.
  const std::vector<TermId> row_vars =
      RowVars([&](std::size_t q) { return q < p && p < nodes_[q].end; });
  SearchSpec spec;
  spec.pattern = &tree.pattern(node.id);
  spec.row_vars = &row_vars;
  spec.tree = &tree;
  spec.node = node.id;
  node.search = hooks_.open_search(spec, stop_);
  for (TermId var : node.search->variables()) {
    // Well-designedness: a variable new at this node occurs in no node
    // outside its subtree, so no earlier search has bound it.
    WDSPARQL_CHECK(std::find(slot_vars_.begin(), slot_vars_.end(), var) == slot_vars_.end());
    node.slots.push_back(slot_vars_.size());
    slot_vars_.push_back(var);
    slot_owner_.push_back(p);
    row_.push_back(0);
  }
}

ExecStats::Subpattern* SolutionEnumerator::Entry(std::size_t p) {
  if (pool_ == nullptr) return nullptr;
  Node& node = nodes_[p];
  if (node.entry < 0) {
    ExecStats::Subpattern sub;
    sub.tree = tree_idx_;
    sub.node = static_cast<std::size_t>(node.id);
    sub.pattern = RenderPattern(*pool_, forest_->trees[tree_idx_].pattern(node.id));
    if (const SearchPlanInfo* info = node.search->plan_info()) {
      sub.est_rows = info->est_rows;
      sub.est_cost = info->est_cost;
      sub.plan_ns = info->plan_ns;
      sub.plan = info->description;
    }
    node.entry = static_cast<int>(stats_.subpatterns.size());
    stats_.subpatterns.push_back(std::move(sub));
  }
  return &stats_.subpatterns[node.entry];
}

bool SolutionEnumerator::Pull(std::size_t p) {
  Node& node = nodes_[p];
  if (!node.search->Next()) return false;
  ++stats_.candidates;
  ++tree_candidates_;
  if (ExecStats::Subpattern* sub = Entry(p)) ++sub->candidates;
  const RowValue* values = node.search->values();
  for (std::size_t i = 0; i < node.slots.size(); ++i) row_[node.slots[i]] = values[i];
  return true;
}

bool SolutionEnumerator::Search(std::size_t p) {
  Node& node = nodes_[p];
  if (node.search == nullptr) BuildSearch(p);
  ExecStats::Subpattern* sub = Entry(p);
  node.search->Open(row_.data());
  SetActive(node, !interrupted_ && Pull(p));
  node.at_first = node.active;
  if (p > 0) {
    // A child search is the maximality certificate of the mapping
    // assembled so far: a row means the child extends it.
    ++stats_.maximality_tests;
    ++(node.active ? stats_.non_maximal : stats_.empty_subpatterns);
    if (sub != nullptr) {
      ++sub->maximality_tests;
      if (node.active) ++sub->non_maximal;
    }
  }
  return node.active;
}

bool SolutionEnumerator::Descend(int advanced) {
  for (std::size_t p = static_cast<std::size_t>(advanced + 1); p < nodes_.size(); ++p) {
    Node& node = nodes_[p];
    const bool inputs_changed =
        advanced < 0 || (node.parent >= advanced && nodes_[node.parent].changed);
    if (!inputs_changed && (!node.active || node.at_first)) {
      // Already in the state a restart would give it.
      node.changed = false;
      continue;
    }
    node.changed = true;
    if (node.parent >= 0 && !nodes_[node.parent].active) {
      SetActive(node, false);  // Outside T': its parent is.
      continue;
    }
    if (!Search(p) && p == 0) return false;
    if (interrupted_) return false;
  }
  return true;
}

bool SolutionEnumerator::Advance() {
  for (std::size_t p = nodes_.size(); p-- > 0;) {
    Node& node = nodes_[p];
    if (!node.active || !Pull(p)) continue;
    node.at_first = false;
    node.changed = true;
    return Descend(static_cast<int>(p));
  }
  return false;
}

SolutionEnumerator::ActiveSet& SolutionEnumerator::CurrentSet() {
  if (last_set_ != nullptr && !active_changed_) return *last_set_;
  active_changed_ = false;
  std::vector<bool> key(nodes_.size());
  for (std::size_t p = 0; p < nodes_.size(); ++p) key[p] = nodes_[p].active;
  if (active_sets_.size() >= kCachedActiveSets && active_sets_.count(key) == 0) {
    active_sets_.clear();  // Start over rather than grow with the sets met.
  }
  auto [it, inserted] = active_sets_.try_emplace(std::move(key));
  ActiveSet& set = it->second;
  last_set_ = &set;
  if (!inserted) return set;

  auto active = [this](std::size_t q) { return nodes_[q].active; };
  for (std::size_t slot = 0; slot < slot_vars_.size(); ++slot) {
    if (active(slot_owner_[slot])) set.emit.emplace_back(slot_vars_[slot], slot);
  }
  std::sort(set.emit.begin(), set.emit.end());
  if (tree_idx_ == 0) return set;

  // vars(T') and pat(T') of the answers over these nodes; each earlier
  // tree with a subtree over exactly these variables is a witness.
  std::vector<TermId> vars;
  for (const auto& [var, slot] : set.emit) vars.push_back(var);
  const PatternTree& tree = forest_->trees[tree_idx_];
  TripleSet pattern;
  for (std::size_t p = 0; p < nodes_.size(); ++p) {
    if (active(p)) pattern.InsertAll(tree.pattern(nodes_[p].id));
  }
  const std::vector<TermId> row_vars = RowVars(active);
  for (std::size_t j = 0; j < tree_idx_; ++j) {
    std::optional<Subtree> found = FindWitnessSubtree(forest_->trees[j], vars);
    if (!found.has_value()) continue;
    Witness witness;
    const TripleSet witness_pattern = SubtreePattern(*found);
    TripleSet residual;
    for (const Triple& t : witness_pattern.triples()) {
      if (!pattern.Contains(t)) residual.Insert(t);
    }
    SearchSpec spec;
    spec.row_vars = &row_vars;
    spec.first_row_only = true;
    if (!residual.empty()) {
      spec.pattern = &residual;
      witness.residual = hooks_.open_search(spec, stop_);
    }
    spec.tree = &forest_->trees[j];
    for (NodeId child : SubtreeChildren(*found)) {
      spec.pattern = &spec.tree->pattern(child);
      spec.node = child;
      witness.children.push_back(hooks_.open_search(spec, stop_));
    }
    set.witnesses.push_back(std::move(witness));
  }
  return set;
}

bool SolutionEnumerator::Accepts(Witness& witness) {
  ExecStats::Subpattern* sub = Entry(0);
  auto extends = [&](NodeSearch& test) {
    ++stats_.maximality_tests;
    if (sub != nullptr) ++sub->maximality_tests;
    test.Open(row_.data());
    return test.Next();
  };
  if (witness.residual != nullptr && !extends(*witness.residual)) return false;
  for (const std::unique_ptr<NodeSearch>& child : witness.children) {
    if (extends(*child)) return false;
  }
  return true;
}

bool SolutionEnumerator::Next(Mapping* out) {
  WDSPARQL_CHECK(out != nullptr);
  if (state_ == State::kDone) return false;
  state_ = State::kActive;
  while (true) {
    bool assembled = false;
    if (!CheckInterrupt()) {
      if (!nodes_.empty()) {
        assembled = Advance();
      } else if (LoadNextTree()) {
        assembled = Descend(-1);
      } else {
        state_ = State::kDone;
        return false;
      }
    }
    if (interrupted_) {
      state_ = State::kDone;
      EndTree();
      return false;
    }
    if (!assembled) {
      EndTree();  // Tree exhausted.
      continue;
    }
    ActiveSet& set = CurrentSet();
    const bool seen = std::any_of(set.witnesses.begin(), set.witnesses.end(),
                                  [this](Witness& witness) { return Accepts(witness); });
    if (interrupted_) continue;  // A materialising test stopped part-way.
    if (seen) {
      ++stats_.dedup_rejected;
      if (ExecStats::Subpattern* sub = Entry(0)) ++sub->dedup_rejected;
      continue;
    }
    *out = kNoBindings;
    for (const auto& [var, slot] : set.emit) {
      out->Bind(var, hooks_.decode ? hooks_.decode(row_[slot]) : row_[slot]);
    }
    if (ExecStats::Subpattern* sub = Entry(0)) ++sub->rows;
    return true;
  }
}

void EnumerateSolutionsNaive(const PatternForest& forest, const RdfGraph& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             ExecStats* stats) {
  HashTripleSource scan(graph.triples());
  EnumerateSolutionsNaive(forest, scan, callback, stats);
}

void EnumerateSolutionsNaive(const PatternForest& forest, const TripleSource& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             ExecStats* stats) {
  Drain(forest, SolverHooks(graph), callback, stats);
}

uint64_t CountSolutions(const PatternForest& forest, const RdfGraph& graph) {
  uint64_t count = 0;
  EnumerateSolutionsNaive(forest, graph, [&count](const Mapping&) {
    ++count;
    return true;
  });
  return count;
}

}  // namespace wdsparql
