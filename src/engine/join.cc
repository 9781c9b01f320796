#include "engine/join.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "wdsparql/check.h"

namespace wdsparql {
namespace {

/// One conjunct, dictionary-encoded: constant positions carry their
/// `DataId`, variable positions the local variable index.
struct EncConjunct {
  DataId constant[3];  // kNoDataId where a variable sits.
  int var[3];          // -1 where a constant sits.
};

/// A conjunct position that a compiled test reads from its row: every
/// reset writes row slot `slot` over `constant[pos]` of conjunct
/// `conjunct`.
struct SlotRef {
  std::size_t conjunct;
  int pos;
  int slot;
};

/// Encodes `t` as conjunct `ci`: constants through `view`'s dictionary
/// (one `dict_encodes` each), variables of `slot_of` as row slots
/// (appended to `refs`, the position left `kNoDataId`), every other
/// variable through `local_var`. Returns false iff a constant is absent
/// from the view.
template <typename LocalVar>
bool EncodeConjunct(const ReadView& view, const Triple& t,
                    const std::unordered_map<TermId, int>& slot_of, std::size_t ci,
                    ExecStats* stats, LocalVar local_var, EncConjunct* c,
                    std::vector<SlotRef>* refs) {
  bool present = true;
  for (int pos = 0; pos < 3; ++pos) {
    const TermId term = t[pos];
    c->constant[pos] = kNoDataId;
    c->var[pos] = -1;
    if (!IsVariable(term)) {
      if (stats != nullptr) ++stats->dict_encodes;
      c->constant[pos] = view.dict().Encode(term);
      if (c->constant[pos] == kNoDataId) present = false;
    } else if (auto slot = slot_of.find(term); slot != slot_of.end()) {
      refs->push_back({ci, pos, slot->second});
    } else {
      c->var[pos] = local_var(term);
    }
  }
  return present;
}

bool IsGround(const EncConjunct& c) {
  return c.var[0] < 0 && c.var[1] < 0 && c.var[2] < 0;
}

}  // namespace

/// The whole resumable join state: one {values, position} frame per
/// variable level, advanced iteratively so `Next` can return mid-descent
/// and resume exactly there.
struct CompiledJoin::State {
  State(const ReadView& view, ExecStats* stats_in) : store(view), stats(stats_in) {}

  /// The sized range of one conjunct at one level and the probe that
  /// searches it. Kept across fills while the conjunct's pattern under
  /// the bindings above is unchanged, so a conjunct that shares no
  /// variable with the levels above is located once per join.
  struct SizedRange {
    EncPattern pattern;
    std::optional<MergedScan> range;  // Empty until first located.
    SeekProbe probe;
    /// Where the range opens, fixed by `Plan`: the conjunct's deepest
    /// variable above this level binds at `parent_level` (-1: none),
    /// whose probe of the conjunct is `sized[parent_index]` there. When
    /// that probe ran on the level's current value, it just found this
    /// range's pattern, and the range opens at its seek position.
    int parent_level = -1;
    std::size_t parent_index = 0;
  };

  /// One descent level: the candidate values of the level's variable
  /// under the bindings above it (the smallest range's values, each
  /// probed into the other ranges when the walk reaches it), the resume
  /// position, and one sized range per conjunct containing the variable
  /// (parallel to `conjuncts_of_var`).
  struct Level {
    std::vector<DataId> values;
    std::size_t pos = 0;
    std::size_t smallest = 0;  // The range `values` came from: never probed.
    std::vector<SizedRange> sized;
  };

  const ReadView& store;
  ExecStats* stats;

  std::vector<EncConjunct> conjuncts;
  std::vector<SlotRef> slot_refs;  // Row slots written by every Reset.
  /// The join's variables in binding order: level d binds `vars[d]`, and
  /// `binding[d]` holds its value.
  std::vector<TermId> vars;
  std::unordered_map<TermId, int> var_index;
  std::vector<std::vector<std::size_t>> conjuncts_of_var;
  std::vector<DataId> binding;
  std::vector<Level> levels;
  int depth = -1;  // -1 = not started.
  bool done = false;

  int LocalVar(TermId term) {
    auto it = var_index.find(term);
    if (it != var_index.end()) return it->second;
    int idx = static_cast<int>(vars.size());
    var_index[term] = idx;
    vars.push_back(term);
    return idx;
  }

  /// Fixes the binding order over `conjuncts` and renumbers the
  /// variables into it.
  void Plan(const std::vector<TermId>* preferred_order) {
    // Bind most-constrained variables first: descending pattern count,
    // ties by TermId for determinism.
    conjuncts_of_var.assign(vars.size(), {});
    for (std::size_t ci = 0; ci < conjuncts.size(); ++ci) {
      for (int pos = 0; pos < 3; ++pos) {
        int v = conjuncts[ci].var[pos];
        if (v < 0) continue;
        std::vector<std::size_t>& list = conjuncts_of_var[v];
        if (list.empty() || list.back() != ci) list.push_back(ci);
      }
    }
    std::vector<int> order(vars.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::sort(order.begin(), order.end(), [this](int a, int b) {
      std::size_t ca = conjuncts_of_var[a].size();
      std::size_t cb = conjuncts_of_var[b].size();
      if (ca != cb) return ca > cb;
      return vars[a] < vars[b];
    });
    // A planner-chosen order overrides the heuristic — but only when it
    // is exactly a permutation of this pattern's unbound variables, so a
    // mismatched plan degrades to the heuristic instead of to a wrong
    // (partial) binding order.
    if (preferred_order != nullptr && preferred_order->size() == vars.size()) {
      std::vector<int> mapped;
      mapped.reserve(vars.size());
      std::vector<char> used(vars.size(), 0);
      bool ok = true;
      for (TermId term : *preferred_order) {
        auto it = var_index.find(term);
        if (it == var_index.end() || used[it->second]) {
          ok = false;
          break;
        }
        used[it->second] = 1;
        mapped.push_back(it->second);
      }
      if (ok) order = std::move(mapped);
    }
    // Renumber so that variable d is the one level d binds: the binding
    // vector is then the join's row of values, in binding order.
    std::vector<int> rank(order.size());
    for (std::size_t d = 0; d < order.size(); ++d) rank[order[d]] = static_cast<int>(d);
    for (EncConjunct& c : conjuncts) {
      for (int& v : c.var) {
        if (v >= 0) v = rank[v];
      }
    }
    std::vector<TermId> ordered_vars(order.size());
    std::vector<std::vector<std::size_t>> ordered_conjuncts(order.size());
    for (std::size_t d = 0; d < order.size(); ++d) {
      ordered_vars[d] = vars[order[d]];
      ordered_conjuncts[d] = std::move(conjuncts_of_var[order[d]]);
    }
    vars = std::move(ordered_vars);
    conjuncts_of_var = std::move(ordered_conjuncts);
    for (auto& entry : var_index) entry.second = rank[entry.second];
    binding.assign(vars.size(), kNoDataId);
    levels.resize(vars.size());
    for (std::size_t d = 0; d < vars.size(); ++d) {
      levels[d].sized.resize(conjuncts_of_var[d].size());
      for (std::size_t k = 0; k < conjuncts_of_var[d].size(); ++k) {
        // The conjunct's pattern at level d binds its variables above d;
        // the deepest of them, e, probes the same pattern at level e.
        const std::size_t ci = conjuncts_of_var[d][k];
        SizedRange& sized = levels[d].sized[k];
        for (int v : conjuncts[ci].var) {
          if (v < static_cast<int>(d)) sized.parent_level = std::max(sized.parent_level, v);
        }
        if (sized.parent_level < 0) continue;
        const std::vector<std::size_t>& above = conjuncts_of_var[sized.parent_level];
        sized.parent_index = static_cast<std::size_t>(
            std::find(above.begin(), above.end(), ci) - above.begin());
      }
    }
  }

  /// Restarts the join on a new row: writes the row's
  /// slot values into their conjunct positions and unbinds every level.
  /// Sized ranges stay: each is re-located only if its pattern changed.
  void Reset(const DataId* row) {
    for (const SlotRef& ref : slot_refs) {
      conjuncts[ref.conjunct].constant[ref.pos] = row[ref.slot];
    }
    std::fill(binding.begin(), binding.end(), kNoDataId);
    depth = -1;
    done = false;
  }

  /// Conjunct `ci` as a scan pattern under the current bindings, with
  /// `value` at every position `v` occupies (`kNoDataId`: a wildcard).
  /// Variables still unbound are wildcards too.
  EncPattern PatternOf(std::size_t ci, int v, DataId value) const {
    const EncConjunct& c = conjuncts[ci];
    EncPattern pattern;
    for (int pos = 0; pos < 3; ++pos) {
      DataId bound;
      if (c.var[pos] < 0) {
        bound = c.constant[pos];
      } else if (c.var[pos] == v) {
        bound = value;
      } else {
        bound = binding[c.var[pos]];  // kNoDataId while unbound.
      }
      (pos == 0 ? pattern.s : (pos == 1 ? pattern.p : pattern.o)) = bound;
    }
    return pattern;
  }

  /// Writes the sorted distinct values of variable `v` in `scan`, the
  /// range of conjunct `ci` with `v` unbound, to `values`. When `v` sits
  /// right after the bound prefix the values arrive sorted; otherwise a
  /// sort pass normalises them.
  void CollectValues(std::size_t ci, int v, const MergedScan& scan,
                     std::vector<DataId>* values) {
    const EncConjunct& c = conjuncts[ci];
    int v_positions[3];
    int num_v_positions = 0;
    for (int pos = 0; pos < 3; ++pos) {
      if (c.var[pos] == v) v_positions[num_v_positions++] = pos;
    }
    WDSPARQL_DCHECK(num_v_positions > 0);

    auto keep = [&](const EncTriple& t) {
      // Repeated variable inside the conjunct: all its positions must
      // carry the same value.
      if (num_v_positions > 1 && t[v_positions[1]] != t[v_positions[0]]) return;
      if (num_v_positions > 2 && t[v_positions[2]] != t[v_positions[0]]) return;
      values->push_back(t[v_positions[0]]);
    };
    if (stats == nullptr) {
      for (const EncTriple& t : scan) keep(t);
    } else {
      // Instrumented walk: the explicit iterator exposes which run each
      // triple came from, attributing scan volume to base vs delta.
      ++stats->ranges_scanned;
      for (auto it = scan.begin(); it != scan.end(); ++it) {
        ++(it.on_delta() ? stats->delta_triples_scanned
                           : stats->base_triples_scanned);
        keep(*it);
      }
    }
    if (!std::is_sorted(values->begin(), values->end())) {
      std::sort(values->begin(), values->end());
    }
    values->erase(std::unique(values->begin(), values->end()), values->end());
  }

  /// Computes level `d`'s candidate values under the bindings above it,
  /// the Generic Join way: size every range of a conjunct containing the
  /// level's variable in O(log n) (or reuse it while its pattern is
  /// unchanged) and materialise only the smallest. A changed range opens
  /// at its parent probe's seek position when that probe ran on the
  /// current value (Leapfrog Triejoin's `open`), and is searched from
  /// the root of the runs otherwise. The values are probed into the
  /// other ranges later, one by one, as the walk reaches them
  /// (`PassesProbes`). An empty range short-circuits to an empty level
  /// (dead branch).
  void FillLevel(std::size_t d) {
    Level& level = levels[d];
    level.values.clear();
    level.pos = 0;
    const int v = static_cast<int>(d);
    const std::vector<std::size_t>& with_v = conjuncts_of_var[v];
    level.smallest = 0;
    for (std::size_t k = 0; k < with_v.size(); ++k) {
      SizedRange& sized = level.sized[k];
      const EncPattern pattern = PatternOf(with_v[k], v, kNoDataId);
      if (!sized.range || !(sized.pattern == pattern)) {
        sized.pattern = pattern;
        if (sized.parent_level >= 0 &&
            levels[sized.parent_level].smallest != sized.parent_index) {
          // The parent probe matched `pattern` on the current value.
          sized.range = levels[sized.parent_level].sized[sized.parent_index].probe.Open(
              pattern);
        } else {
          sized.range = store.Scan(pattern);
        }
        // 0 stands in for v's values: the shape is which positions bind.
        sized.probe = store.Probe(PatternOf(with_v[k], v, 0), &*sized.range);
      }
      const std::size_t bound = sized.range->bound_size();
      if (bound == 0) return;  // Dead branch.
      if (bound < level.sized[level.smallest].range->bound_size()) level.smallest = k;
    }
    CollectValues(with_v[level.smallest], v, *level.sized[level.smallest].range,
                  &level.values);
    for (SizedRange& sized : level.sized) sized.probe.Rewind();
  }

  /// True iff an existence probe with `value` bound at level `d`
  /// succeeds on every conjunct containing the level's variable except
  /// the one its values came from. The level's values ascend, so each
  /// conjunct's probe seeks forward from its previous position, inside
  /// the sized range when the probe key extends that range's sort prefix;
  /// a passing value leaves every probe at its key, where the next
  /// level's ranges open.
  bool PassesProbes(std::size_t d, DataId value) {
    Level& level = levels[d];
    const int v = static_cast<int>(d);
    const std::vector<std::size_t>& with_v = conjuncts_of_var[v];
    for (std::size_t k = 0; k < with_v.size(); ++k) {
      if (k == level.smallest) continue;
      if (stats != nullptr) ++stats->values_probed;
      if (!level.sized[k].probe.Exists(PatternOf(with_v[k], v, value))) return false;
    }
    return true;
  }

  bool Next() {
    if (done) return false;
    if (depth < 0) {
      if (vars.empty()) {
        // Zero variables: the one (empty) solution.
        done = true;
        return true;
      }
      depth = 0;
      FillLevel(0);
    }
    // Resuming after an emission, `depth` stands at the deepest level
    // with its position already past the emitted value — the loop
    // continues the descent exactly where it stopped.
    while (depth >= 0) {
      Level& level = levels[depth];
      if (level.pos < level.values.size()) {
        DataId value = level.values[level.pos++];
        if (!PassesProbes(depth, value)) continue;
        binding[depth] = value;
        if (depth + 1 == static_cast<int>(vars.size())) return true;
        ++depth;
        FillLevel(depth);
      } else {
        binding[depth] = kNoDataId;
        --depth;
      }
    }
    done = true;
    return false;
  }
};

/// One ground conjunct of a compiled join: a whole-triple probe whose
/// key is the constants with the row's slot values written in.
struct CompiledJoin::GroundProbe {
  EncTriple key;
  int slot[3];  // -1 where a constant sits.
  Permutation perm;
  SeekProbe probe;
  EncTriple last{0, 0, 0};  // The previous key; the probe starts rewound.

  bool Exists(const DataId* row) {
    if (slot[0] >= 0) key.s = row[slot[0]];
    if (slot[1] >= 0) key.p = row[slot[1]];
    if (slot[2] >= 0) key.o = row[slot[2]];
    // The seek only moves forward: a key below the previous one (in the
    // probe's permutation order) searches the runs from their start.
    if (enc_order::PermLess{enc_order::OrderOf(perm)}(key, last)) probe.Rewind();
    last = key;
    return probe.Exists(EncPattern{key.s, key.p, key.o});
  }
};

CompiledJoin::CompiledJoin(const ReadView& view, const std::vector<Triple>& patterns,
                           const std::vector<TermId>& row_vars, ExecStats* stats,
                           const std::vector<TermId>* var_order) {
  std::unordered_map<TermId, int> slot_of;
  for (std::size_t i = 0; i < row_vars.size(); ++i) {
    if (IsVariable(row_vars[i])) slot_of.emplace(row_vars[i], static_cast<int>(i));
  }
  auto join = std::make_unique<State>(view, stats);
  auto local_var = [&join](TermId term) { return join->LocalVar(term); };
  std::vector<SlotRef> refs;
  for (const Triple& t : patterns) {
    EncConjunct c;
    refs.clear();
    if (!EncodeConjunct(view, t, slot_of, join->conjuncts.size(), stats, local_var, &c,
                        &refs)) {
      absent_ = true;
    }
    if (!IsGround(c)) {
      join->conjuncts.push_back(c);
      join->slot_refs.insert(join->slot_refs.end(), refs.begin(), refs.end());
      continue;
    }
    GroundProbe ground{{c.constant[0], c.constant[1], c.constant[2]}, {-1, -1, -1},
                       Permutation::kSpo, SeekProbe{}};
    for (const SlotRef& ref : refs) ground.slot[ref.pos] = ref.slot;
    // Probe in the permutation that reads the most slots in row order
    // (constants never change, so they do not count). Rows arrive
    // ascending, so where the slots are a prefix of the row read in
    // order, successive keys ascend and the probe only seeks forward;
    // elsewhere a descending key rewinds it.
    int best_run = -1;
    for (int perm = 0; perm < 3; ++perm) {
      int run = 0;
      int prev = -1;
      for (int pos : enc_order::kPermOrder[perm]) {
        if (ground.slot[pos] < 0) continue;
        if (ground.slot[pos] < prev) break;
        prev = ground.slot[pos];
        ++run;
      }
      if (run > best_run) {
        best_run = run;
        ground.perm = static_cast<Permutation>(perm);
      }
    }
    ground.probe = view.TripleProbe(ground.perm);
    ground_.push_back(ground);
  }
  if (absent_) {
    ground_.clear();  // An absent constant decides the join: no triple matches.
    join->conjuncts.clear();
    join->slot_refs.clear();
  }
  join->Plan(var_order);
  values_ = join->binding.data();
  join_ = std::move(join);
}

CompiledJoin::~CompiledJoin() = default;
CompiledJoin::CompiledJoin(CompiledJoin&&) noexcept = default;
CompiledJoin& CompiledJoin::operator=(CompiledJoin&&) noexcept = default;

void CompiledJoin::Open(const DataId* row) {
  open_ = !absent_;
  for (GroundProbe& ground : ground_) {
    if (!open_) break;
    open_ = ground.Exists(row);
  }
  join_->Reset(row);
}

bool CompiledJoin::Next() { return open_ && join_->Next(); }

const std::vector<TermId>& CompiledJoin::variables() const { return join_->vars; }


}  // namespace wdsparql
