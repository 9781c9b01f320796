#include "hom/homomorphism.h"

#include <algorithm>
#include <deque>

#include "wdsparql/check.h"

namespace wdsparql {
namespace {

/// Backtracking engine for homomorphism existence and enumeration.
///
/// The solver maintains arc-consistent candidate domains per free
/// variable (AC-3 over the triple constraints) and searches with
/// minimum-remaining-values ordering, re-establishing consistency after
/// every assignment (MAC). This keeps the paper's hard instances — clique
/// queries against dense hosts, the Lemma 2 gadgets — within reach while
/// remaining exact.
///
/// Candidate support is probed through the `TripleSource` scan
/// interface: each revision builds a partially bound probe pattern and
/// lets the backend pick its best access path (hash index or permutation
/// range).
class HomSearch {
 public:
  HomSearch(const TripleSet& source, const VarAssignment& fixed,
            const TripleSource& target, const HomOptions& options)
      : source_(source), target_(target), options_(options), fixed_(fixed) {
    for (TermId var : source_.Variables()) {
      if (fixed_.find(var) == fixed_.end()) {
        var_index_[var] = static_cast<int>(free_vars_.size());
        free_vars_.push_back(var);
      }
    }
    triples_of_var_.resize(free_vars_.size());
    for (std::size_t i = 0; i < source_.triples().size(); ++i) {
      const Triple& t = source_.triples()[i];
      for (TermId var : t.Variables()) {
        auto it = var_index_.find(var);
        if (it != var_index_.end()) triples_of_var_[it->second].push_back(i);
      }
    }
  }

  /// Runs the search, invoking `callback` per solution; the callback may
  /// return false to stop early.
  void Run(const std::function<bool(const VarAssignment&)>& callback) {
    callback_ = &callback;

    // Triples without free variables must hold under `fixed` alone.
    for (const Triple& t : source_.triples()) {
      bool has_free = false;
      for (TermId var : t.Variables()) {
        if (var_index_.count(var) > 0) {
          has_free = true;
          break;
        }
      }
      if (!has_free && !target_.Contains(ApplyAssignment(fixed_, t))) return;
    }

    if (free_vars_.empty()) {
      (*callback_)(fixed_);
      return;
    }

    if (!InitializeDomains()) return;
    assigned_.assign(free_vars_.size(), false);
    if (options_.propagation == PropagationLevel::kFull) {
      // Root-level arc consistency.
      std::deque<std::size_t> queue;
      for (std::size_t t = 0; t < source_.triples().size(); ++t) queue.push_back(t);
      if (!Propagate(&queue)) return;
    }

    Backtrack(0);
    if (options_.nodes_explored != nullptr) *options_.nodes_explored = nodes_;
  }

 private:
  /// The image of `term` if determined: IRIs map to themselves, fixed
  /// variables through `fixed_`, free variables only when `assigned_`.
  std::optional<TermId> DeterminedImage(TermId term) const {
    if (!IsVariable(term)) return term;
    auto fixed_it = fixed_.find(term);
    if (fixed_it != fixed_.end()) return fixed_it->second;
    auto var_it = var_index_.find(term);
    WDSPARQL_DCHECK(var_it != var_index_.end());
    if (assigned_[var_it->second]) return domains_[var_it->second][0];
    return std::nullopt;
  }

  /// Seeds per-variable domains from the target's term population and the
  /// banned-image set. Domains stay sorted throughout the search (the
  /// support check binary-searches them); the `TripleSource` contract
  /// guarantees `AllTerms` is already ascending.
  bool InitializeDomains() {
    std::vector<TermId> all_terms = target_.AllTerms();
    WDSPARQL_DCHECK(std::is_sorted(all_terms.begin(), all_terms.end()));
    if (!options_.banned_image.empty()) {
      all_terms.erase(std::remove_if(all_terms.begin(), all_terms.end(),
                                     [this](TermId t) {
                                       return options_.banned_image.count(t) > 0;
                                     }),
                      all_terms.end());
    }
    if (all_terms.empty()) return false;
    domains_.assign(free_vars_.size(), all_terms);
    return true;
  }

  /// True iff value `a` for free var `v` has a supporting target triple
  /// for source triple `t` (all determined positions matching, all other
  /// free positions supported by their current domains).
  bool HasSupport(std::size_t t_idx, int v, TermId a) const {
    const Triple& t = source_.triples()[t_idx];
    TermId v_var = free_vars_[v];

    // Probe pattern: v's positions and every determined position are
    // bound; other free variables become wildcards, filtered below.
    Triple probe;
    for (int pos = 0; pos < 3; ++pos) {
      TermId term = t[pos];
      if (term == v_var) {
        probe.Set(pos, a);
        continue;
      }
      std::optional<TermId> image = DeterminedImage(term);
      probe.Set(pos, image.has_value() ? *image : kAnyTerm);
    }

    bool found = false;
    target_.ScanPattern(probe, [&](const Triple& d) {
      for (int pos = 0; pos < 3; ++pos) {
        TermId term = t[pos];
        if (term == v_var || DeterminedImage(term).has_value()) continue;
        // Other free variable: its domain must contain the value.
        int u = var_index_.at(term);
        const std::vector<TermId>& domain = domains_[u];
        if (!std::binary_search(domain.begin(), domain.end(), d[pos])) return true;
        // Repeated free variables across positions: require equal images.
        for (int pos2 = pos + 1; pos2 < 3; ++pos2) {
          if (t[pos2] == term && d[pos2] != d[pos]) return true;
        }
      }
      found = true;
      return false;  // Support witnessed; stop the scan.
    });
    return found;
  }

  /// AC-3: revises domains against the triples in `queue` until stable
  /// (or, with `cascade` false, a single pass — forward checking).
  /// Returns false on a wiped-out domain.
  bool Propagate(std::deque<std::size_t>* queue, bool cascade = true) {
    std::vector<bool> queued(source_.triples().size(), false);
    for (std::size_t t : *queue) queued[t] = true;
    while (!queue->empty()) {
      std::size_t t_idx = queue->front();
      queue->pop_front();
      queued[t_idx] = false;
      const Triple& t = source_.triples()[t_idx];
      for (TermId var : t.Variables()) {
        auto it = var_index_.find(var);
        if (it == var_index_.end()) continue;
        int v = it->second;
        if (assigned_[v]) continue;
        std::vector<TermId>& domain = domains_[v];
        std::size_t before = domain.size();
        domain.erase(std::remove_if(domain.begin(), domain.end(),
                                    [&](TermId a) { return !HasSupport(t_idx, v, a); }),
                     domain.end());
        if (domain.empty()) return false;
        if (cascade && domain.size() != before) {
          for (std::size_t other : triples_of_var_[v]) {
            if (!queued[other]) {
              queued[other] = true;
              queue->push_back(other);
            }
          }
        }
      }
    }
    return true;
  }

  /// kNone-mode consistency: every triple containing variable `v` whose
  /// positions are now all determined must hold in the target.
  bool DeterminedTriplesHold(int v) const {
    for (std::size_t t_idx : triples_of_var_[v]) {
      const Triple& t = source_.triples()[t_idx];
      Triple image = t;
      bool determined = true;
      for (int pos = 0; pos < 3 && determined; ++pos) {
        std::optional<TermId> value = DeterminedImage(t[pos]);
        if (!value.has_value()) {
          determined = false;
        } else {
          image.Set(pos, *value);
        }
      }
      if (determined && !target_.Contains(image)) return false;
    }
    return true;
  }

  /// Minimum-remaining-values variable choice; ties by variable order.
  int PickVariable() const {
    int best = -1;
    std::size_t best_size = 0;
    for (std::size_t v = 0; v < free_vars_.size(); ++v) {
      if (assigned_[v]) continue;
      if (best == -1 || domains_[v].size() < best_size) {
        best = static_cast<int>(v);
        best_size = domains_[v].size();
      }
    }
    return best;
  }

  void EmitSolution() {
    VarAssignment solution = fixed_;
    for (std::size_t v = 0; v < free_vars_.size(); ++v) {
      WDSPARQL_DCHECK(domains_[v].size() == 1);
      solution[free_vars_[v]] = domains_[v][0];
    }
    if (!(*callback_)(solution)) stopped_ = true;
  }

  void Backtrack(std::size_t depth) {
    if (stopped_ || budget_exceeded_) return;
    ++nodes_;
    if (options_.max_nodes != 0 && nodes_ > options_.max_nodes) {
      budget_exceeded_ = true;
      if (options_.budget_exhausted != nullptr) *options_.budget_exhausted = true;
      return;
    }
    if (depth == free_vars_.size()) {
      EmitSolution();
      return;
    }
    int v = PickVariable();
    WDSPARQL_DCHECK(v >= 0);
    std::vector<TermId> candidates = domains_[v];
    for (TermId a : candidates) {
      // Snapshot all domains (restored after the branch).
      std::vector<std::vector<TermId>> snapshot = domains_;
      domains_[v] = {a};
      assigned_[v] = true;
      bool consistent = false;
      switch (options_.propagation) {
        case PropagationLevel::kNone:
          consistent = DeterminedTriplesHold(v);
          break;
        case PropagationLevel::kForward: {
          // Domain revision skips assigned variables, so triples that
          // became fully determined (e.g. self-loops on v) must be
          // validated directly — without root arc consistency they may
          // never have constrained dom(v).
          consistent = DeterminedTriplesHold(v);
          if (consistent) {
            std::deque<std::size_t> queue(triples_of_var_[v].begin(),
                                          triples_of_var_[v].end());
            consistent = Propagate(&queue, /*cascade=*/false);
          }
          break;
        }
        case PropagationLevel::kFull: {
          std::deque<std::size_t> queue(triples_of_var_[v].begin(),
                                        triples_of_var_[v].end());
          consistent = Propagate(&queue, /*cascade=*/true);
          break;
        }
      }
      if (consistent) Backtrack(depth + 1);
      assigned_[v] = false;
      domains_ = std::move(snapshot);
      if (stopped_ || budget_exceeded_) return;
    }
  }

  const TripleSet& source_;
  const TripleSource& target_;
  HomOptions options_;
  VarAssignment fixed_;

  std::vector<TermId> free_vars_;
  std::unordered_map<TermId, int> var_index_;
  std::vector<std::vector<std::size_t>> triples_of_var_;
  std::vector<std::vector<TermId>> domains_;
  std::vector<bool> assigned_;

  const std::function<bool(const VarAssignment&)>* callback_ = nullptr;
  bool stopped_ = false;
  bool budget_exceeded_ = false;
  uint64_t nodes_ = 0;
};

}  // namespace

std::optional<VarAssignment> FindHomomorphism(const TripleSet& source,
                                              const VarAssignment& fixed,
                                              const TripleSource& target,
                                              const HomOptions& options) {
  std::optional<VarAssignment> found;
  HomSearch search(source, fixed, target, options);
  search.Run([&found](const VarAssignment& assignment) {
    found = assignment;
    return false;  // Stop at the first solution.
  });
  return found;
}

std::optional<VarAssignment> FindHomomorphism(const TripleSet& source,
                                              const VarAssignment& fixed,
                                              const TripleSet& target,
                                              const HomOptions& options) {
  HashTripleSource scan(target);
  return FindHomomorphism(source, fixed, scan, options);
}

bool HasHomomorphism(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSource& target, const HomOptions& options) {
  return FindHomomorphism(source, fixed, target, options).has_value();
}

bool HasHomomorphism(const TripleSet& source, const VarAssignment& fixed,
                     const TripleSet& target, const HomOptions& options) {
  HashTripleSource scan(target);
  return HasHomomorphism(source, fixed, scan, options);
}

void EnumerateHomomorphisms(const TripleSet& source, const VarAssignment& fixed,
                            const TripleSource& target,
                            const std::function<bool(const VarAssignment&)>& callback) {
  HomSearch search(source, fixed, target, HomOptions{});
  search.Run(callback);
}

void EnumerateHomomorphisms(const TripleSet& source, const VarAssignment& fixed,
                            const TripleSet& target,
                            const std::function<bool(const VarAssignment&)>& callback) {
  HashTripleSource scan(target);
  EnumerateHomomorphisms(source, fixed, scan, callback);
}

Triple ApplyAssignment(const VarAssignment& assignment, const Triple& t) {
  Triple out = t;
  for (int pos = 0; pos < 3; ++pos) {
    TermId term = t[pos];
    if (IsVariable(term)) {
      auto it = assignment.find(term);
      if (it != assignment.end()) out.Set(pos, it->second);
    }
  }
  return out;
}

TripleSet ApplyAssignment(const VarAssignment& assignment, const TripleSet& source) {
  TripleSet out;
  for (const Triple& t : source.triples()) out.Insert(ApplyAssignment(assignment, t));
  return out;
}

VarAssignment IdentityOn(const std::vector<TermId>& X) {
  VarAssignment out;
  for (TermId var : X) {
    WDSPARQL_CHECK(IsVariable(var));
    out[var] = var;
  }
  return out;
}

}  // namespace wdsparql
