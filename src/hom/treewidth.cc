#include "hom/treewidth.h"

#include <algorithm>
#include <cstdint>
#include <queue>

#include "wdsparql/check.h"

namespace wdsparql {
namespace {

/// Greedy min-fill elimination order; a standard high-quality treewidth
/// upper-bound heuristic.
std::vector<int> MinFillOrder(const UndirectedGraph& graph) {
  int n = graph.NumVertices();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [u, v] : graph.Edges()) adj[u][v] = adj[v][u] = true;
  std::vector<bool> eliminated(n, false);
  std::vector<int> order;
  order.reserve(n);

  for (int step = 0; step < n; ++step) {
    int best = -1;
    long best_fill = -1;
    int best_degree = -1;
    for (int v = 0; v < n; ++v) {
      if (eliminated[v]) continue;
      std::vector<int> nbrs;
      for (int u = 0; u < n; ++u) {
        if (u != v && !eliminated[u] && adj[v][u]) nbrs.push_back(u);
      }
      long fill = 0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
          if (!adj[nbrs[i]][nbrs[j]]) ++fill;
        }
      }
      int degree = static_cast<int>(nbrs.size());
      if (best == -1 || fill < best_fill ||
          (fill == best_fill && degree < best_degree)) {
        best = v;
        best_fill = fill;
        best_degree = degree;
      }
    }
    // Eliminate `best`: connect its remaining neighbours pairwise.
    std::vector<int> nbrs;
    for (int u = 0; u < n; ++u) {
      if (u != best && !eliminated[u] && adj[best][u]) nbrs.push_back(u);
    }
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        adj[nbrs[i]][nbrs[j]] = adj[nbrs[j]][nbrs[i]] = true;
      }
    }
    eliminated[best] = true;
    order.push_back(best);
  }
  return order;
}

/// q(R, v): the number of vertices outside R u {v} reachable from v by a
/// path whose interior lies inside R (v's degree once R is eliminated).
int EliminatedDegree(const UndirectedGraph& graph, uint32_t r_mask, int v) {
  int n = graph.NumVertices();
  std::vector<bool> visited(n, false);
  visited[v] = true;
  std::queue<int> queue;
  queue.push(v);
  int count = 0;
  while (!queue.empty()) {
    int u = queue.front();
    queue.pop();
    for (int w : graph.Neighbors(u)) {
      if (visited[w]) continue;
      visited[w] = true;
      if ((r_mask >> w) & 1) {
        queue.push(w);  // Interior vertex: keep expanding.
      } else {
        ++count;  // Reachable surviving vertex.
      }
    }
  }
  return count;
}

/// Exact treewidth of a connected graph with n <= 31 vertices via the
/// elimination-ordering subset DP; also reconstructs an optimal order.
int ExactTreewidthDp(const UndirectedGraph& graph, std::vector<int>* order) {
  int n = graph.NumVertices();
  WDSPARQL_CHECK(n >= 1 && n <= 31);
  std::vector<int8_t> f(std::size_t(1) << n, 0);
  // f[S] = min over elimination sequences of S (as a prefix) of the max
  // eliminated degree; f[V] is the treewidth.
  for (uint32_t mask = 1; mask < (uint32_t(1) << n); ++mask) {
    int best = n;  // Upper bound: eliminating into <= n-1 neighbours.
    for (int v = 0; v < n; ++v) {
      if (!((mask >> v) & 1)) continue;
      uint32_t rest = mask & ~(uint32_t(1) << v);
      int cost = std::max<int>(f[rest], EliminatedDegree(graph, rest, v));
      best = std::min(best, cost);
    }
    f[mask] = static_cast<int8_t>(best);
  }
  if (order != nullptr) {
    order->clear();
    order->resize(n);
    uint32_t mask = (uint32_t(1) << n) - 1;
    for (int slot = n - 1; slot >= 0; --slot) {
      for (int v = 0; v < n; ++v) {
        if (!((mask >> v) & 1)) continue;
        uint32_t rest = mask & ~(uint32_t(1) << v);
        if (std::max<int>(f[rest], EliminatedDegree(graph, rest, v)) == f[mask]) {
          (*order)[slot] = v;
          mask = rest;
          break;
        }
      }
    }
  }
  return f[(uint32_t(1) << n) - 1];
}

}  // namespace

int EliminationWidth(const UndirectedGraph& graph, const std::vector<int>& order) {
  int n = graph.NumVertices();
  WDSPARQL_CHECK(static_cast<int>(order.size()) == n);
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [u, v] : graph.Edges()) adj[u][v] = adj[v][u] = true;
  std::vector<bool> eliminated(n, false);
  int width = 0;
  for (int v : order) {
    WDSPARQL_CHECK(!eliminated[v]);
    std::vector<int> nbrs;
    for (int u = 0; u < n; ++u) {
      if (u != v && !eliminated[u] && adj[v][u]) nbrs.push_back(u);
    }
    width = std::max(width, static_cast<int>(nbrs.size()));
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        adj[nbrs[i]][nbrs[j]] = adj[nbrs[j]][nbrs[i]] = true;
      }
    }
    eliminated[v] = true;
  }
  return width;
}

int TreewidthResult::value() const {
  WDSPARQL_CHECK(exact());
  return upper;
}

TreewidthResult ComputeTreewidth(const UndirectedGraph& graph,
                                 const TreewidthOptions& options) {
  TreewidthResult result;
  int n = graph.NumVertices();
  if (n == 0) {
    result.lower = result.upper = 0;
    return result;
  }

  // Work per connected component; treewidth is the max over components.
  std::vector<int> order_global;
  int lower = 0;
  int upper = 0;
  for (const std::vector<int>& component : graph.ConnectedComponents()) {
    std::vector<int> index;
    UndirectedGraph sub = graph.InducedSubgraph(component, &index);
    int comp_n = sub.NumVertices();

    int comp_lower = sub.Degeneracy();
    std::vector<int> comp_order = MinFillOrder(sub);
    int comp_upper = EliminationWidth(sub, comp_order);

    if (comp_lower < comp_upper && comp_n <= options.exact_dp_max_vertices) {
      std::vector<int> exact_order;
      int exact = ExactTreewidthDp(sub, &exact_order);
      WDSPARQL_CHECK(exact >= comp_lower && exact <= comp_upper);
      comp_lower = comp_upper = exact;
      comp_order = std::move(exact_order);
    }

    lower = std::max(lower, comp_lower);
    upper = std::max(upper, comp_upper);
    for (int local : comp_order) order_global.push_back(index[local]);
  }
  result.lower = lower;
  result.upper = upper;
  result.elimination_order = std::move(order_global);
  return result;
}

int TreeDecomposition::Width() const {
  int width = 0;
  for (const std::vector<int>& bag : bags) {
    width = std::max(width, static_cast<int>(bag.size()) - 1);
  }
  return width;
}

TreeDecomposition DecompositionFromOrder(const UndirectedGraph& graph,
                                         const std::vector<int>& order) {
  int n = graph.NumVertices();
  WDSPARQL_CHECK(static_cast<int>(order.size()) == n);
  TreeDecomposition decomposition;
  decomposition.bags.resize(n);
  decomposition.parent.assign(n, -1);

  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [u, v] : graph.Edges()) adj[u][v] = adj[v][u] = true;
  std::vector<int> position(n);
  for (int i = 0; i < n; ++i) position[order[i]] = i;

  std::vector<bool> eliminated(n, false);
  for (int i = 0; i < n; ++i) {
    int v = order[i];
    std::vector<int> nbrs;
    for (int u = 0; u < n; ++u) {
      if (u != v && !eliminated[u] && adj[v][u]) nbrs.push_back(u);
    }
    decomposition.bags[i].push_back(v);
    decomposition.bags[i].insert(decomposition.bags[i].end(), nbrs.begin(), nbrs.end());
    // Parent: the bag of the earliest-eliminated surviving neighbour; a
    // vertex with no surviving neighbours attaches to the next bag so the
    // decomposition stays a tree.
    if (!nbrs.empty()) {
      int parent_vertex = *std::min_element(
          nbrs.begin(), nbrs.end(),
          [&position](int a, int b) { return position[a] < position[b]; });
      decomposition.parent[i] = position[parent_vertex];
    } else if (i + 1 < n) {
      decomposition.parent[i] = i + 1;
    }
    for (std::size_t a = 0; a < nbrs.size(); ++a) {
      for (std::size_t b = a + 1; b < nbrs.size(); ++b) {
        adj[nbrs[a]][nbrs[b]] = adj[nbrs[b]][nbrs[a]] = true;
      }
    }
    eliminated[v] = true;
  }
  return decomposition;
}

bool IsValidTreeDecomposition(const UndirectedGraph& graph,
                              const TreeDecomposition& decomposition) {
  int n = graph.NumVertices();
  int num_bags = static_cast<int>(decomposition.bags.size());

  // Axiom 1: every vertex appears in some bag.
  std::vector<std::vector<int>> bags_of(n);
  for (int b = 0; b < num_bags; ++b) {
    for (int v : decomposition.bags[b]) {
      if (v < 0 || v >= n) return false;
      bags_of[v].push_back(b);
    }
  }
  for (int v = 0; v < n; ++v) {
    if (bags_of[v].empty()) return false;
  }

  // Axiom 2: every edge is contained in some bag.
  for (const auto& [u, v] : graph.Edges()) {
    bool covered = false;
    for (int b : bags_of[u]) {
      const auto& bag = decomposition.bags[b];
      if (std::find(bag.begin(), bag.end(), v) != bag.end()) {
        covered = true;
        break;
      }
    }
    if (!covered) return false;
  }

  // Axiom 3: the bags containing each vertex induce a connected subtree.
  // Build bidirectional tree adjacency.
  std::vector<std::vector<int>> tree_adj(num_bags);
  for (int b = 0; b < num_bags; ++b) {
    int p = decomposition.parent[b];
    if (p >= 0) {
      tree_adj[b].push_back(p);
      tree_adj[p].push_back(b);
    }
  }
  for (int v = 0; v < n; ++v) {
    std::vector<bool> in_set(num_bags, false);
    for (int b : bags_of[v]) in_set[b] = true;
    std::queue<int> queue;
    queue.push(bags_of[v][0]);
    std::vector<bool> seen(num_bags, false);
    seen[bags_of[v][0]] = true;
    int reached = 0;
    while (!queue.empty()) {
      int b = queue.front();
      queue.pop();
      ++reached;
      for (int nb : tree_adj[b]) {
        if (!seen[nb] && in_set[nb]) {
          seen[nb] = true;
          queue.push(nb);
        }
      }
    }
    if (reached != static_cast<int>(bags_of[v].size())) return false;
  }
  return true;
}

}  // namespace wdsparql
