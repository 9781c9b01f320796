#include "util/undirected_graph.h"

#include <algorithm>
#include <queue>

#include "wdsparql/check.h"

namespace wdsparql {

UndirectedGraph::UndirectedGraph(int n) : n_(n), adj_(n), matrix_(n) {
  for (auto& row : matrix_) row.assign(n, false);
}

int UndirectedGraph::AddVertex() {
  ++n_;
  adj_.emplace_back();
  for (auto& row : matrix_) row.push_back(false);
  matrix_.emplace_back(n_, false);
  return n_ - 1;
}

void UndirectedGraph::AddEdge(int u, int v) {
  WDSPARQL_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (u == v || matrix_[u][v]) return;
  matrix_[u][v] = matrix_[v][u] = true;
  adj_[u].push_back(v);
  adj_[v].push_back(u);
  edges_.emplace_back(std::min(u, v), std::max(u, v));
  ++num_edges_;
}

bool UndirectedGraph::HasEdge(int u, int v) const {
  WDSPARQL_CHECK(u >= 0 && u < n_ && v >= 0 && v < n_);
  return matrix_[u][v];
}

std::vector<std::vector<int>> UndirectedGraph::ConnectedComponents() const {
  std::vector<std::vector<int>> components;
  std::vector<bool> seen(n_, false);
  for (int start = 0; start < n_; ++start) {
    if (seen[start]) continue;
    std::vector<int> component;
    std::queue<int> queue;
    queue.push(start);
    seen[start] = true;
    while (!queue.empty()) {
      int u = queue.front();
      queue.pop();
      component.push_back(u);
      for (int v : adj_[u]) {
        if (!seen[v]) {
          seen[v] = true;
          queue.push(v);
        }
      }
    }
    std::sort(component.begin(), component.end());
    components.push_back(std::move(component));
  }
  return components;
}

UndirectedGraph UndirectedGraph::InducedSubgraph(const std::vector<int>& vertices,
                                                 std::vector<int>* out_index) const {
  UndirectedGraph sub(static_cast<int>(vertices.size()));
  std::vector<int> old_to_new(n_, -1);
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    WDSPARQL_CHECK(vertices[i] >= 0 && vertices[i] < n_);
    old_to_new[vertices[i]] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    for (int v : adj_[vertices[i]]) {
      if (old_to_new[v] >= 0) sub.AddEdge(static_cast<int>(i), old_to_new[v]);
    }
  }
  if (out_index != nullptr) *out_index = vertices;
  return sub;
}

int UndirectedGraph::Degeneracy() const {
  std::vector<int> degree(n_);
  std::vector<bool> removed(n_, false);
  for (int u = 0; u < n_; ++u) degree[u] = Degree(u);
  int degeneracy = 0;
  for (int step = 0; step < n_; ++step) {
    int best = -1;
    for (int u = 0; u < n_; ++u) {
      if (!removed[u] && (best == -1 || degree[u] < degree[best])) best = u;
    }
    degeneracy = std::max(degeneracy, degree[best]);
    removed[best] = true;
    for (int v : adj_[best]) {
      if (!removed[v]) --degree[v];
    }
  }
  return degeneracy;
}

bool UndirectedGraph::IsClique(const std::vector<int>& clique) const {
  for (std::size_t i = 0; i < clique.size(); ++i) {
    for (std::size_t j = i + 1; j < clique.size(); ++j) {
      if (clique[i] == clique[j] || !HasEdge(clique[i], clique[j])) return false;
    }
  }
  return true;
}

UndirectedGraph UndirectedGraph::Complete(int n) {
  UndirectedGraph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

UndirectedGraph UndirectedGraph::Cycle(int n) {
  WDSPARQL_CHECK(n >= 3);
  UndirectedGraph g(n);
  for (int u = 0; u < n; ++u) g.AddEdge(u, (u + 1) % n);
  return g;
}

UndirectedGraph UndirectedGraph::Path(int n) {
  UndirectedGraph g(n);
  for (int u = 0; u + 1 < n; ++u) g.AddEdge(u, u + 1);
  return g;
}

UndirectedGraph UndirectedGraph::Grid(int rows, int cols) {
  UndirectedGraph g(rows * cols);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      int id = i * cols + j;
      if (j + 1 < cols) g.AddEdge(id, id + 1);
      if (i + 1 < rows) g.AddEdge(id, id + cols);
    }
  }
  return g;
}

}  // namespace wdsparql
