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

/// Renders pat(T') for the ExecStats subpattern breakdown, e.g.
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

/// The CSP solver's candidate set, materialised up front and drained
/// one pull at a time, with the literal extension tests.
class MaterializedGenerator final : public CandidateGenerator {
 public:
  MaterializedGenerator(const std::vector<ExtensionTest>& tests, const TripleSource& source,
                        int pebble_promise)
      : source_(source), pebble_promise_(pebble_promise) {
    literal_.reserve(tests.size());
    for (const ExtensionTest& test : tests) literal_.push_back(test.literal);
  }

  bool Next(Mapping* out) override {
    if (pos_ >= buffer_.size()) return false;
    *out = std::move(buffer_[pos_++]);
    return true;
  }

  bool Extends(std::size_t test, const Mapping& mu) override {
    return LiteralExtends(literal_[test], mu, source_, pebble_promise_);
  }

  std::vector<Mapping>& buffer() { return buffer_; }

 private:
  std::vector<TripleSet> literal_;
  const TripleSource& source_;
  int pebble_promise_;
  std::vector<Mapping> buffer_;
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

}  // namespace

bool LiteralExtends(const TripleSet& test, const Mapping& mu, const TripleSource& source,
                    int pebble_promise) {
  if (pebble_promise > 0) {
    return PebbleGameWins(test, MappingToAssignment(mu), source, pebble_promise + 1);
  }
  return HasHomomorphism(test, MappingToAssignment(mu), source);
}

std::unique_ptr<CandidateGenerator> MaterializeHomomorphisms(
    const TripleSet& pattern, const std::vector<ExtensionTest>& tests,
    const TripleSource& source, int pebble_promise, const std::function<bool()>& stop) {
  auto materialized = std::make_unique<MaterializedGenerator>(tests, source, pebble_promise);
  EnumerateHomomorphisms(pattern, VarAssignment{}, source,
                         [&](const VarAssignment& assignment) {
                           // Returning false stops the scan mid-range, so a
                           // huge match set still stops within one check
                           // interval of an interruption.
                           if (stop()) return false;
                           Mapping mu;
                           for (const auto& [var, value] : assignment) {
                             mu.Bind(var, value);
                           }
                           materialized->buffer().push_back(std::move(mu));
                           return true;
                         });
  return materialized;
}

SolutionEnumerator::SolutionEnumerator(const PatternForest& forest,
                                       EnumerationHooks hooks)
    : forest_(&forest), hooks_(std::move(hooks)) {
  // Enumeration without an answer set rests on NR normal form: it is
  // what makes a mapping's subtree, and so its one derivation per tree,
  // unique.
  for (const PatternTree& tree : forest.trees) {
    WDSPARQL_CHECK(tree.IsNrNormalForm());
  }
}

SolutionEnumerator::~SolutionEnumerator() { EndSubtreeSpan(); }

void SolutionEnumerator::EndSubtreeSpan() {
  if (subtree_span_ != 0) {
    trace_->Annotate(subtree_span_, "candidates", cur_candidates_);
    trace_->EndSpan(subtree_span_);
    subtree_span_ = 0;
  }
}

bool SolutionEnumerator::CheckInterrupt() {
  if (interrupted_ || !probe_) return interrupted_;
  if (++steps_since_probe_ < probe_interval_) return false;
  steps_since_probe_ = 0;
  ++stats_.interrupt_checks;
  if (probe_()) interrupted_ = true;
  return interrupted_;
}

bool SolutionEnumerator::AdvanceSubtree() {
  EndSubtreeSpan();
  while (subtree_idx_ >= subtrees_.size()) {
    // Drained the loaded tree (or nothing loaded yet, which the kNoTree
    // sentinel turns into "load tree 0"): materialise the next tree's
    // subtree list; holding it lets the machine suspend between any two
    // candidates.
    std::size_t next = tree_idx_ + 1;  // kNoTree wraps to 0.
    if (next >= forest_->trees.size()) return false;
    tree_idx_ = next;
    subtrees_.clear();
    EnumerateSubtrees(forest_->trees[tree_idx_],
                      [this](const Subtree& subtree) { subtrees_.push_back(subtree); });
    subtree_idx_ = 0;
  }
  const Subtree& subtree = subtrees_[subtree_idx_++];
  pattern_ = SubtreePattern(subtree);
  tests_.clear();
  open_ = AddWitness(subtree, TripleSet{});
  earlier_.clear();
  const std::vector<TermId> vars = SubtreeVariables(subtree);
  for (std::size_t j = 0; j < tree_idx_; ++j) {
    std::optional<Subtree> witness = FindWitnessSubtree(forest_->trees[j], vars);
    if (!witness.has_value()) continue;
    const TripleSet witness_pattern = SubtreePattern(*witness);
    TripleSet residual;
    for (const Triple& t : witness_pattern.triples()) {
      if (!pattern_.Contains(t)) residual.Insert(t);
    }
    earlier_.push_back(AddWitness(*witness, std::move(residual)));
  }
  cur_candidates_ = 0;
  sub_open_ = false;
  // One span per wdpf subtree, covering its whole candidate pull and
  // the maximality work until the next boundary — this is the subtree-
  // granular "where did the time go" answer; per-candidate cost stays
  // out of the trace entirely.
  if (trace_ != nullptr) {
    subtree_span_ = trace_->StartSpan("subtree", trace_parent_);
    trace_->Annotate(subtree_span_, "tree", static_cast<uint64_t>(tree_idx_));
    trace_->Annotate(subtree_span_, "subtree",
                     static_cast<uint64_t>(subtree_idx_ - 1));
  }
  generator_ =
      hooks_.open_subtree(pattern_, tests_, [this] { return CheckInterrupt(); });
  if (interrupted_) {
    // A materialising source stopped part-way: the partial batch is
    // never delivered.
    generator_.reset();
    EndSubtreeSpan();
    return false;
  }
  return true;
}

bool SolutionEnumerator::Next(Mapping* out) {
  WDSPARQL_CHECK(out != nullptr);
  if (state_ == State::kDone) return false;
  state_ = State::kActive;
  while (true) {
    if (CheckInterrupt()) {
      state_ = State::kDone;
      EndSubtreeSpan();
      return false;
    }
    if (generator_ == nullptr) {
      if (!AdvanceSubtree()) {
        state_ = State::kDone;
        return false;
      }
      continue;
    }
    if (!generator_->Next(out)) {
      // Subtree exhausted. Empty subtrees are only tallied (no
      // breakdown entry), or a wide forest would drown the report in
      // zero rows.
      if (pool_ != nullptr && cur_candidates_ == 0) ++stats_.empty_subpatterns;
      generator_.reset();
      continue;
    }
    ++stats_.candidates;
    ++cur_candidates_;
    if (pool_ != nullptr) {
      if (cur_candidates_ == 1) {
        // Lazily opened breakdown entry: with a suspendable generator,
        // whether a subtree has candidates at all is only known at the
        // first successful pull.
        ExecStats::Subpattern sub;
        sub.tree = tree_idx_;
        sub.subtree = subtree_idx_ - 1;
        sub.pattern = RenderPattern(*pool_, pattern_);
        if (const CandidatePlanInfo* info = generator_->plan_info()) {
          sub.est_rows = info->est_rows;
          sub.est_cost = info->est_cost;
          sub.plan_ns = info->plan_ns;
          sub.plan = info->description;
        }
        stats_.subpatterns.push_back(std::move(sub));
        sub_open_ = true;
      }
      ++CurSubpattern()->candidates;
    }
    const Mapping& mu = *out;
    if (std::any_of(earlier_.begin(), earlier_.end(),
                    [&](const Witness& witness) { return Accepts(witness, mu); })) {
      ++stats_.dedup_rejected;
      if (ExecStats::Subpattern* sub = CurSubpattern()) ++sub->dedup_rejected;
      continue;
    }
    if (!Accepts(open_, mu)) {
      ++stats_.non_maximal;
      if (ExecStats::Subpattern* sub = CurSubpattern()) ++sub->non_maximal;
      continue;
    }
    if (ExecStats::Subpattern* sub = CurSubpattern()) ++sub->rows;
    return true;
  }
}

SolutionEnumerator::Witness SolutionEnumerator::AddWitness(const Subtree& subtree,
                                                          TripleSet residual) {
  Witness witness;
  witness.begin = tests_.size();
  if (!residual.empty()) {
    witness.has_residual = true;
    tests_.push_back({residual, std::move(residual)});
  }
  std::vector<TripleSet> certificates = SubtreeCertificates(subtree);
  const std::vector<NodeId> children = SubtreeChildren(subtree);  // Same order.
  for (std::size_t i = 0; i < children.size(); ++i) {
    tests_.push_back({std::move(certificates[i]), subtree.tree->pattern(children[i])});
  }
  witness.end = tests_.size();
  return witness;
}

bool SolutionEnumerator::Accepts(const Witness& witness, const Mapping& mu) {
  auto extends = [&](std::size_t test) {
    ++stats_.maximality_tests;
    if (ExecStats::Subpattern* sub = CurSubpattern()) ++sub->maximality_tests;
    return generator_->Extends(test, mu);
  };
  std::size_t test = witness.begin;
  if (witness.has_residual && !extends(test++)) return false;
  for (; test < witness.end; ++test) {
    if (extends(test)) return false;
  }
  return true;
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
  EnumerationHooks hooks;
  hooks.open_subtree = [&graph](const TripleSet& pattern,
                                const std::vector<ExtensionTest>& tests,
                                const std::function<bool()>& stop) {
    return MaterializeHomomorphisms(pattern, tests, graph, 0, stop);
  };
  Drain(forest, std::move(hooks), callback, stats);
}

void EnumerateSolutionsPebble(const PatternForest& forest, const RdfGraph& graph,
                              int k, const std::function<bool(const Mapping&)>& callback,
                              ExecStats* stats) {
  WDSPARQL_CHECK(k >= 1);
  HashTripleSource scan(graph.triples());
  EnumerationHooks hooks;
  hooks.open_subtree = [&scan, k](const TripleSet& pattern,
                                  const std::vector<ExtensionTest>& tests,
                                  const std::function<bool()>& stop) {
    return MaterializeHomomorphisms(pattern, tests, scan, k, stop);
  };
  Drain(forest, std::move(hooks), callback, stats);
}

std::vector<Mapping> AllSolutionsPebble(const PatternForest& forest,
                                        const RdfGraph& graph, int k,
                                        ExecStats* stats) {
  std::vector<Mapping> out;
  EnumerateSolutionsPebble(
      forest, graph, k,
      [&out](const Mapping& mu) {
        out.push_back(mu);
        return true;
      },
      stats);
  std::sort(out.begin(), out.end());
  return out;
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
