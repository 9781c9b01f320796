#include "hom/pebble.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "wdsparql/check.h"
#include "wdsparql/hash.h"

namespace wdsparql {
namespace {

/// A partial map {var_index -> domain_index}, sorted by var index.
using PartialMap = std::vector<std::pair<int, int>>;

struct PartialMapHash {
  std::size_t operator()(const PartialMap& m) const {
    std::size_t seed = 0x5eed;
    for (const auto& [x, a] : m) {
      HashCombine(seed, static_cast<std::size_t>(x));
      HashCombine(seed, static_cast<std::size_t>(a));
    }
    return seed;
  }
};

struct Node {
  PartialMap map;
  bool alive = true;
  /// (restriction node id, the variable index present here but not there).
  std::vector<std::pair<int, int>> parents;
  /// Direct extensions (size + 1) of this map.
  std::vector<int> children;
  /// var index -> number of alive direct extensions on that variable.
  /// Maintained only for maps of size < k.
  std::unordered_map<int, int> ext_count;
};

/// The strong-k-consistency fixpoint engine.
class PebbleGame {
 public:
  PebbleGame(const TripleSet& source, const VarAssignment& fixed,
             const TripleSource& target, int k, PebbleGameStats* stats)
      : source_(source), target_(target), fixed_(fixed), stats_(stats) {
    for (TermId var : source_.Variables()) {
      if (fixed_.find(var) == fixed_.end()) {
        var_ids_.push_back(var);
        var_index_[var] = static_cast<int>(var_ids_.size()) - 1;
      }
    }
    domain_ = target_.AllTerms();
    std::sort(domain_.begin(), domain_.end());
    k_ = std::min<int>(k, static_cast<int>(var_ids_.size()));

    triples_of_var_.resize(var_ids_.size());
    for (std::size_t i = 0; i < source_.triples().size(); ++i) {
      for (TermId var : source_.triples()[i].Variables()) {
        auto it = var_index_.find(var);
        if (it != var_index_.end()) triples_of_var_[it->second].push_back(i);
      }
    }
  }

  bool Decide() {
    // Triples fully determined by `fixed` must hold outright.
    for (const Triple& t : source_.triples()) {
      bool free_var = false;
      for (TermId var : t.Variables()) {
        if (var_index_.count(var) > 0) {
          free_var = true;
          break;
        }
      }
      if (!free_var && !target_.Contains(ApplyAssignment(fixed_, t))) return false;
    }
    if (var_ids_.empty()) return true;
    if (domain_.empty()) return false;  // Free variables but nothing to map to.

    GenerateAllLevels();
    SeedAndPropagateDeletions();
    return nodes_[0].alive;
  }

 private:
  /// True iff extending `map` (a verified partial hom) with x -> a keeps
  /// every triple containing x and fully determined by fixed_ u map u {x}
  /// inside the target.
  bool ExtensionIsPartialHom(const PartialMap& map, int x, int a) const {
    TermId x_var = var_ids_[x];
    TermId a_term = domain_[a];
    for (std::size_t t_idx : triples_of_var_[x]) {
      const Triple& t = source_.triples()[t_idx];
      Triple image = t;
      bool determined = true;
      for (int pos = 0; pos < 3 && determined; ++pos) {
        TermId term = t[pos];
        if (!IsVariable(term)) continue;
        if (term == x_var) {
          image.Set(pos, a_term);
          continue;
        }
        auto fixed_it = fixed_.find(term);
        if (fixed_it != fixed_.end()) {
          image.Set(pos, fixed_it->second);
          continue;
        }
        auto var_it = var_index_.find(term);
        WDSPARQL_DCHECK(var_it != var_index_.end());
        auto map_it =
            std::find_if(map.begin(), map.end(),
                         [&](const auto& entry) { return entry.first == var_it->second; });
        if (map_it == map.end()) {
          determined = false;
        } else {
          image.Set(pos, domain_[map_it->second]);
        }
      }
      if (determined && !target_.Contains(image)) return false;
    }
    return true;
  }

  int LookupNode(const PartialMap& map) const {
    auto it = node_ids_.find(map);
    return it == node_ids_.end() ? -1 : it->second;
  }

  void GenerateAllLevels() {
    // Level 0: the empty map.
    nodes_.push_back(Node{});
    node_ids_.emplace(PartialMap{}, 0);
    if (stats_ != nullptr) ++stats_->maps_created;
    std::vector<int> frontier = {0};

    int n = static_cast<int>(var_ids_.size());
    int m = static_cast<int>(domain_.size());
    for (int size = 1; size <= k_; ++size) {
      std::vector<int> next;
      for (int parent_id : frontier) {
        // Copy: nodes_ may reallocate as children are created.
        PartialMap base = nodes_[parent_id].map;
        for (int x = 0; x < n; ++x) {
          bool present = std::any_of(base.begin(), base.end(),
                                     [x](const auto& e) { return e.first == x; });
          if (present) continue;
          for (int a = 0; a < m; ++a) {
            PartialMap extended = base;
            extended.insert(std::upper_bound(extended.begin(), extended.end(),
                                             std::make_pair(x, a)),
                            {x, a});
            if (node_ids_.count(extended) > 0) continue;
            if (!ExtensionIsPartialHom(base, x, a)) continue;
            int id = static_cast<int>(nodes_.size());
            Node node;
            node.map = std::move(extended);
            // Register against all restrictions (they exist: restrictions
            // of a partial homomorphism are partial homomorphisms and were
            // generated at the previous levels).
            for (std::size_t drop = 0; drop < node.map.size(); ++drop) {
              PartialMap restriction = node.map;
              int dropped_var = restriction[drop].first;
              restriction.erase(restriction.begin() + drop);
              int rest_id = LookupNode(restriction);
              WDSPARQL_CHECK(rest_id >= 0);
              node.parents.emplace_back(rest_id, dropped_var);
            }
            nodes_.push_back(std::move(node));
            node_ids_.emplace(nodes_.back().map, id);
            for (const auto& [rest_id, dropped_var] : nodes_.back().parents) {
              nodes_[rest_id].children.push_back(id);
              ++nodes_[rest_id].ext_count[dropped_var];
            }
            next.push_back(id);
            if (stats_ != nullptr) ++stats_->maps_created;
          }
        }
      }
      frontier = std::move(next);
    }
  }

  void Kill(int id, std::vector<int>* worklist) {
    if (!nodes_[id].alive) return;
    nodes_[id].alive = false;
    if (stats_ != nullptr) ++stats_->maps_deleted;
    worklist->push_back(id);
  }

  void SeedAndPropagateDeletions() {
    int n = static_cast<int>(var_ids_.size());
    std::vector<int> worklist;

    // Seed: every map of size < k must extend on every missing variable.
    for (int id = 0; id < static_cast<int>(nodes_.size()); ++id) {
      int size = static_cast<int>(nodes_[id].map.size());
      if (size >= k_) continue;
      int missing = n - size;
      // ext_count holds only variables with >= 1 extension; a variable
      // with zero extensions is simply absent.
      int extendable = 0;
      for (const auto& [var, count] : nodes_[id].ext_count) {
        if (count > 0) ++extendable;
      }
      if (extendable < missing) Kill(id, &worklist);
    }

    while (!worklist.empty()) {
      int id = worklist.back();
      worklist.pop_back();
      const Node& node = nodes_[id];
      // Upward closure: extensions of a dead map die.
      for (int child : node.children) {
        if (nodes_[child].alive) Kill(child, &worklist);
      }
      // Forth property: parents lose an extension witness.
      for (const auto& [parent_id, dropped_var] : node.parents) {
        Node& parent = nodes_[parent_id];
        if (!parent.alive) continue;
        auto it = parent.ext_count.find(dropped_var);
        WDSPARQL_CHECK(it != parent.ext_count.end() && it->second > 0);
        if (--it->second == 0) Kill(parent_id, &worklist);
      }
    }
  }

  const TripleSet& source_;
  const TripleSource& target_;
  VarAssignment fixed_;
  PebbleGameStats* stats_;

  std::vector<TermId> var_ids_;
  std::unordered_map<TermId, int> var_index_;
  std::vector<TermId> domain_;
  std::vector<std::vector<std::size_t>> triples_of_var_;
  int k_ = 0;

  std::vector<Node> nodes_;
  std::unordered_map<PartialMap, int, PartialMapHash> node_ids_;
};

}  // namespace

bool PebbleGameWins(const TripleSet& source, const VarAssignment& fixed,
                    const TripleSource& target, int k, PebbleGameStats* stats) {
  WDSPARQL_CHECK(k >= 1);
  PebbleGame game(source, fixed, target, k, stats);
  return game.Decide();
}

bool PebbleGameWins(const TripleSet& source, const VarAssignment& fixed,
                    const TripleSet& target, int k, PebbleGameStats* stats) {
  return PebbleGameWins(source, fixed, HashTripleSource(target), k, stats);
}

}  // namespace wdsparql
