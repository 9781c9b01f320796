#include "wd/enumerate.h"

#include <algorithm>
#include <unordered_set>

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
/// one pull at a time.
class MaterializedGenerator final : public CandidateGenerator {
 public:
  bool Next(VarAssignment* out) override {
    if (pos_ >= buffer_.size()) return false;
    *out = std::move(buffer_[pos_++]);
    return true;
  }

  std::vector<VarAssignment>& buffer() { return buffer_; }

 private:
  std::vector<VarAssignment> buffer_;
  std::size_t pos_ = 0;
};

/// Drains a fresh enumerator into `callback` (the streaming wrappers
/// below).
void Drain(const PatternForest& forest, EnumerationHooks hooks,
           const std::function<bool(const Mapping&)>& callback,
           EnumerateStats* stats) {
  SolutionEnumerator enumerator(forest, std::move(hooks));
  Mapping mu;
  while (enumerator.Next(&mu)) {
    if (!callback(mu)) break;
  }
  if (stats != nullptr) *stats = enumerator.stats();
}

}  // namespace

std::unique_ptr<CandidateGenerator> MaterializeHomomorphisms(
    const TripleSet& pattern, const TripleSource& source,
    const std::function<bool()>& stop) {
  auto materialized = std::make_unique<MaterializedGenerator>();
  EnumerateHomomorphisms(pattern, VarAssignment{}, source,
                         [&](const VarAssignment& assignment) {
                           // Returning false stops the scan mid-range, so a
                           // huge match set still stops within one check
                           // interval of an interruption.
                           if (stop()) return false;
                           materialized->buffer().push_back(assignment);
                           return true;
                         });
  return materialized;
}

SolutionEnumerator::SolutionEnumerator(const PatternForest& forest,
                                       EnumerationHooks hooks)
    : forest_(&forest), hooks_(std::move(hooks)) {}

SolutionEnumerator::~SolutionEnumerator() { EndSubtreeSpan(); }

void SolutionEnumerator::EndSubtreeSpan() {
  if (subtree_span_ != 0) {
    trace_->Annotate(subtree_span_, "candidates", cur_candidates_);
    trace_->EndSpan(subtree_span_);
    subtree_span_ = 0;
  }
  if (timing_open_) {
    SubtreeTiming& timing = timings_->back();
    timing.duration_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - timing.start)
            .count());
    timing.candidates = cur_candidates_;
    timing_open_ = false;
  }
}

ExecStats::Subpattern* SolutionEnumerator::CurSubpattern() {
  return sink_has_cur_ ? &sink_->subpatterns.back() : nullptr;
}

bool SolutionEnumerator::CheckInterrupt() {
  if (interrupted_ || !probe_) return interrupted_;
  if (++steps_since_probe_ < probe_interval_) return false;
  steps_since_probe_ = 0;
  if (sink_ != nullptr) ++sink_->interrupt_checks;
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
  cur_tree_ = subtree.tree;
  pattern_ = SubtreePattern(subtree);
  children_ = SubtreeChildren(subtree);
  cur_candidates_ = 0;
  sink_has_cur_ = false;
  // One span per wdpf subtree, covering its whole candidate pull and the
  // maximality work until the next boundary — this is the subtree-
  // granular "where did the time go" answer; per-candidate cost stays
  // out of the trace entirely.
  if (trace_ != nullptr) {
    subtree_span_ = trace_->StartSpan("subtree", trace_parent_);
    trace_->Annotate(subtree_span_, "tree", static_cast<uint64_t>(tree_idx_));
    trace_->Annotate(subtree_span_, "subtree",
                     static_cast<uint64_t>(subtree_idx_ - 1));
  }
  if (timings_ != nullptr) {
    SubtreeTiming timing;
    timing.tree = tree_idx_;
    timing.subtree = subtree_idx_ - 1;
    timing.start = std::chrono::steady_clock::now();
    timings_->push_back(timing);
    timing_open_ = true;
  }
  generator_ = hooks_.open_candidates(pattern_, [this] { return CheckInterrupt(); });
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
  VarAssignment assignment;
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
    if (!generator_->Next(&assignment)) {
      // Subtree exhausted. Empty subtrees are only tallied (no
      // breakdown entry), or a wide forest would drown the report in
      // zero rows.
      if (sink_ != nullptr && cur_candidates_ == 0) ++sink_->empty_subpatterns;
      generator_.reset();
      continue;
    }
    ++stats_.candidates;
    ++cur_candidates_;
    if (sink_ != nullptr) {
      if (cur_candidates_ == 1) {
        // Lazily opened breakdown entry: with a suspendable generator,
        // whether a subtree has candidates at all is only known at the
        // first successful pull.
        ExecStats::Subpattern sub;
        sub.tree = tree_idx_;
        sub.subtree = subtree_idx_ - 1;
        sub.pattern = RenderPattern(*sink_pool_, pattern_);
        if (const CandidatePlanInfo* info = generator_->plan_info()) {
          sub.est_rows = info->est_rows;
          sub.est_cost = info->est_cost;
          sub.plan_ns = info->plan_ns;
          sub.plan = info->description;
        }
        sink_->subpatterns.push_back(std::move(sub));
        sink_has_cur_ = true;
      }
      ++sink_->candidates;
      ++CurSubpattern()->candidates;
    }
    Mapping candidate;
    for (const auto& [var, value] : assignment) {
      WDSPARQL_CHECK(candidate.Bind(var, value));
    }
    const Mapping& mu = candidate;
    if (seen_.count(mu) > 0) {
      if (sink_ != nullptr) {
        ++sink_->dedup_rejected;
        ++CurSubpattern()->dedup_rejected;
      }
      continue;
    }
    // Maximality: no child may extend mu.
    bool maximal = true;
    for (NodeId child : children_) {
      ++stats_.maximality_tests;
      if (sink_ != nullptr) {
        ++sink_->maximality_tests;
        ++CurSubpattern()->maximality_tests;
      }
      TripleSet combined = pattern_;
      combined.InsertAll(cur_tree_->pattern(child));
      if (hooks_.extends(combined, mu)) {
        maximal = false;
        break;
      }
    }
    if (!maximal) {
      if (sink_ != nullptr) {
        ++sink_->non_maximal;
        ++CurSubpattern()->non_maximal;
      }
      continue;
    }
    seen_.insert(mu);
    ++stats_.emitted;
    if (sink_ != nullptr) ++CurSubpattern()->rows;
    *out = mu;
    return true;
  }
}

void EnumerateSolutionsNaive(const PatternForest& forest, const RdfGraph& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             EnumerateStats* stats) {
  HashTripleSource scan(graph.triples());
  EnumerateSolutionsNaive(forest, scan, callback, stats);
}

void EnumerateSolutionsNaive(const PatternForest& forest, const TripleSource& graph,
                             const std::function<bool(const Mapping&)>& callback,
                             EnumerateStats* stats) {
  EnumerationHooks hooks;
  hooks.open_candidates = [&graph](const TripleSet& pattern,
                                   const std::function<bool()>& stop) {
    return MaterializeHomomorphisms(pattern, graph, stop);
  };
  hooks.extends = [&graph](const TripleSet& combined, const Mapping& mu) {
    return HasHomomorphism(combined, MappingToAssignment(mu), graph);
  };
  Drain(forest, std::move(hooks), callback, stats);
}

void EnumerateSolutionsPebble(const PatternForest& forest, const RdfGraph& graph,
                              int k, const std::function<bool(const Mapping&)>& callback,
                              EnumerateStats* stats) {
  WDSPARQL_CHECK(k >= 1);
  HashTripleSource scan(graph.triples());
  EnumerationHooks hooks;
  hooks.open_candidates = [&scan](const TripleSet& pattern,
                                  const std::function<bool()>& stop) {
    return MaterializeHomomorphisms(pattern, scan, stop);
  };
  hooks.extends = [&graph, k](const TripleSet& combined, const Mapping& mu) {
    return PebbleGameWins(combined, MappingToAssignment(mu), graph.triples(), k + 1);
  };
  Drain(forest, std::move(hooks), callback, stats);
}

std::vector<Mapping> AllSolutionsPebble(const PatternForest& forest,
                                        const RdfGraph& graph, int k,
                                        EnumerateStats* stats) {
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
