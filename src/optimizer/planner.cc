#include "optimizer/planner.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "optimizer/cardinality.h"
#include "wdsparql/check.h"

namespace wdsparql {
namespace optimizer {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Cost of one binary-search pass over the runs: locating (and so
/// sizing) a range, or one existence probe. Keeps the model from calling
/// a plan free just because its ranges are empty.
constexpr double kSearchCost = 1.0;

/// One non-ground conjunct, encoded like the join encodes it (constant
/// DataIds, local variable indexes) plus its exact base cardinality —
/// the stats lookup for whatever constants it carries.
struct Conjunct {
  DataId constant[3];  // kNoDataId where a variable sits.
  int var[3];          // -1 where a constant sits.
  double base = 0;
};

/// Exact matches of `c` under its constants alone (no variables bound):
/// total / single-value / pair lookup by constant count. Three constants
/// cannot occur (ground conjuncts are dropped before planning).
double BaseCardinality(const CardinalityStats& stats, const Conjunct& c) {
  int bound[3];
  int n = 0;
  for (int pos = 0; pos < 3; ++pos) {
    if (c.var[pos] < 0) bound[n++] = pos;
  }
  switch (n) {
    case 0:
      return static_cast<double>(stats.total());
    case 1:
      return static_cast<double>(stats.Count1(bound[0], c.constant[bound[0]]));
    default: {
      // The pair aggregates cover exactly the three 2-subsets of
      // positions: SP, PO and OS (the latter keyed (o, s)).
      if (bound[0] == 0 && bound[1] == 1) {
        return static_cast<double>(
            stats.CountPair(PairKind::kSp, c.constant[0], c.constant[1]));
      }
      if (bound[0] == 1 && bound[1] == 2) {
        return static_cast<double>(
            stats.CountPair(PairKind::kPo, c.constant[1], c.constant[2]));
      }
      return static_cast<double>(
          stats.CountPair(PairKind::kOs, c.constant[2], c.constant[0]));
    }
  }
}

/// The whole cost-model state for one subtree: conjuncts, variable
/// count, and the selectivity/row/cost estimators over variable subsets
/// (bitmask `mask`, bit v = local variable v bound).
struct Model {
  const CardinalityStats* stats;
  std::vector<Conjunct> conjuncts;
  int num_vars = 0;

  /// Expected triples matching `c` for one random binding of the
  /// variables in `mask` (independence assumption: each var-bound
  /// position divides the base cardinality by the position's distinct
  /// count, capped so a division never inflates the estimate).
  double EstMatches(const Conjunct& c, uint32_t mask) const {
    double m = c.base;
    for (int pos = 0; pos < 3; ++pos) {
      int v = c.var[pos];
      if (v >= 0 && ((mask >> v) & 1u) != 0) {
        double distinct = static_cast<double>(stats->Distinct(pos));
        m /= std::max(1.0, std::min(distinct, std::max(1.0, c.base)));
      }
    }
    return m;
  }

  /// Expected candidate values for variable `v` with `mask` bound: the
  /// intersection is at most the smallest contributor, and a conjunct
  /// contributes at most one distinct value per matching triple.
  double Selectivity(int v, uint32_t mask) const {
    double sel = kInf;
    for (const Conjunct& c : conjuncts) {
      bool contains = false;
      for (int pos = 0; pos < 3; ++pos) {
        if (c.var[pos] == v) {
          contains = true;
          sel = std::min(sel, static_cast<double>(stats->Distinct(pos)));
        }
      }
      if (contains) sel = std::min(sel, EstMatches(c, mask));
    }
    return sel == kInf ? 0.0 : sel;
  }

  /// Work at the level binding `v` (per partial binding above it), as
  /// the join does it: locate the range of every conjunct containing
  /// `v`, walk the smallest, and probe each of its values into every
  /// other such conjunct.
  double LevelWork(int v, uint32_t mask) const {
    double smallest = kInf;
    int with_v = 0;
    for (const Conjunct& c : conjuncts) {
      if (c.var[0] == v || c.var[1] == v || c.var[2] == v) {
        ++with_v;
        smallest = std::min(smallest, EstMatches(c, mask));
      }
    }
    return with_v * kSearchCost + smallest * (1 + (with_v - 1) * kSearchCost);
  }

  /// Estimated bindings of the variable set `mask`, computed canonically
  /// (variables folded in ascending local index) so the value is a
  /// function of the set, not of the path the DP reached it by.
  double Rows(uint32_t mask, std::vector<double>* memo) const {
    if (mask == 0) return 1.0;
    double& slot = (*memo)[mask];
    if (slot >= 0) return slot;
    int top = 31 - __builtin_clz(mask);
    uint32_t rest = mask & ~(1u << top);
    slot = Rows(rest, memo) * Selectivity(top, rest);
    return slot;
  }
};

/// Exact bottom-up DP over variable subsets: best_cost[S] = cheapest
/// total scan work reaching "S bound", expanded one variable at a time.
/// Deterministic: ascending mask and variable iteration with strict
/// improvement, so ties resolve to the lowest-index extension.
std::vector<int> OrderByDp(const Model& model, double* est_cost) {
  const int n = model.num_vars;
  const uint32_t full = (1u << n) - 1;
  std::vector<double> best_cost(full + 1, kInf);
  std::vector<int> pred(full + 1, -1);
  std::vector<double> rows_memo(full + 1, -1.0);
  best_cost[0] = 0;
  for (uint32_t mask = 0; mask <= full; ++mask) {
    if (best_cost[mask] == kInf) continue;
    const double rows = model.Rows(mask, &rows_memo);
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1u) continue;
      uint32_t next = mask | (1u << v);
      double cost = best_cost[mask] + rows * model.LevelWork(v, mask);
      if (cost < best_cost[next]) {
        best_cost[next] = cost;
        pred[next] = v;
      }
    }
  }
  std::vector<int> order(n);
  uint32_t mask = full;
  for (int i = n - 1; i >= 0; --i) {
    order[i] = pred[mask];
    mask &= ~(1u << pred[mask]);
  }
  *est_cost = best_cost[full];
  return order;
}

/// Greedy fallback past kDpMaxVars: same cost model, locally cheapest
/// next variable (ties to the lowest index — deterministic).
std::vector<int> OrderGreedy(const Model& model, double* est_cost) {
  const int n = model.num_vars;
  std::vector<int> order;
  order.reserve(n);
  uint32_t mask = 0;
  double rows = 1.0;
  double cost = 0;
  for (int step = 0; step < n; ++step) {
    int best = -1;
    double best_work = kInf;
    for (int v = 0; v < n; ++v) {
      if ((mask >> v) & 1u) continue;
      double work = rows * model.LevelWork(v, mask);
      if (work < best_work) {
        best_work = work;
        best = v;
      }
    }
    cost += best_work;
    rows *= model.Selectivity(best, mask);
    order.push_back(best);
    mask |= 1u << best;
  }
  *est_cost = cost;
  return order;
}

}  // namespace

std::optional<SubtreePlan> PlanSubtree(const ReadView& view,
                                       const std::vector<Triple>& patterns) {
  const CardinalityStats* stats = view.stats();
  if (stats == nullptr) return std::nullopt;

  // Encode the conjuncts exactly like CompiledJoin does: local variable
  // indexes in first-occurrence order, ground conjuncts dropped, absent
  // constants aborting (the join is provably empty — nothing to plan).
  Model model;
  model.stats = stats;
  std::vector<TermId> vars;
  std::unordered_map<TermId, int> var_index;
  for (const Triple& t : patterns) {
    Conjunct c;
    bool ground = true;
    for (int pos = 0; pos < 3; ++pos) {
      TermId term = t[pos];
      if (IsVariable(term)) {
        auto it = var_index.find(term);
        int idx;
        if (it != var_index.end()) {
          idx = it->second;
        } else {
          idx = static_cast<int>(vars.size());
          var_index[term] = idx;
          vars.push_back(term);
        }
        c.constant[pos] = kNoDataId;
        c.var[pos] = idx;
        ground = false;
        continue;
      }
      DataId id = view.dict().Encode(term);
      if (id == kNoDataId) return std::nullopt;  // Provably empty join.
      c.constant[pos] = id;
      c.var[pos] = -1;
    }
    if (ground) continue;
    c.base = BaseCardinality(*stats, c);
    model.conjuncts.push_back(c);
  }
  model.num_vars = static_cast<int>(vars.size());
  if (model.num_vars == 0) return std::nullopt;  // Nothing to order.

  SubtreePlan plan;
  std::vector<int> order;
  if (model.num_vars <= kDpMaxVars) {
    order = OrderByDp(model, &plan.est_cost);
  } else {
    order = OrderGreedy(model, &plan.est_cost);
  }

  plan.var_order.reserve(order.size());
  for (int v : order) plan.var_order.push_back(vars[v]);
  {
    std::vector<double> rows_memo((1u << std::min(model.num_vars, kDpMaxVars)), -1.0);
    if (model.num_vars <= kDpMaxVars) {
      plan.est_rows = model.Rows((1u << model.num_vars) - 1, &rows_memo);
    } else {
      // Too many variables for subset memoisation: fold selectivities
      // along the chosen order instead.
      double rows = 1.0;
      uint32_t mask = 0;
      for (int v : order) {
        rows *= model.Selectivity(v, mask);
        mask |= 1u << v;
      }
      plan.est_rows = rows;
    }
  }
  return plan;
}

std::string DescribePlan(const SubtreePlan& plan, const TermPool& pool) {
  std::string out = "order=[";
  for (std::size_t i = 0; i < plan.var_order.size(); ++i) {
    if (i > 0) out += ' ';
    out += '?';
    out += pool.Spelling(plan.var_order[i]);
  }
  out += ']';
  return out;
}

}  // namespace optimizer
}  // namespace wdsparql
