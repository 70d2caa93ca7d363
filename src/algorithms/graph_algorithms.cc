#include "algorithms/graph_algorithms.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <numeric>
#include <unordered_map>

namespace snb::algorithms {

CsrGraph::CsrGraph(uint64_t num_vertices,
                   const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  std::vector<std::vector<uint32_t>> adjacency(num_vertices);
  for (const auto& [a, b] : edges) {
    assert(a < num_vertices && b < num_vertices);
    if (a == b) continue;
    adjacency[a].push_back(b);
    adjacency[b].push_back(a);
  }
  offsets_.assign(num_vertices + 1, 0);
  for (uint64_t v = 0; v < num_vertices; ++v) {
    std::vector<uint32_t>& nbrs = adjacency[v];
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    offsets_[v + 1] = offsets_[v] + nbrs.size();
  }
  targets_.reserve(offsets_.back());
  for (const std::vector<uint32_t>& nbrs : adjacency) {
    targets_.insert(targets_.end(), nbrs.begin(), nbrs.end());
  }
}

CsrGraph CsrGraph::FromKnows(uint64_t num_persons,
                             const std::vector<schema::Knows>& knows) {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(knows.size());
  for (const schema::Knows& k : knows) {
    edges.push_back({static_cast<uint32_t>(k.person1_id),
                     static_cast<uint32_t>(k.person2_id)});
  }
  return CsrGraph(num_persons, edges);
}

CsrGraph CsrGraph::DegreeMatchedRandom(util::Rng& rng) const {
  // Configuration model: collect every half-edge, shuffle, and pair
  // consecutive stubs. Self-loops/parallel edges are dropped (collapsed by
  // the constructor), which only marginally perturbs the degree sequence.
  std::vector<uint32_t> stubs;
  stubs.reserve(targets_.size());
  for (uint32_t v = 0; v < num_vertices(); ++v) {
    for (uint32_t d = 0; d < Degree(v); ++d) stubs.push_back(v);
  }
  // Fisher-Yates with the deterministic Rng.
  for (size_t i = stubs.size(); i > 1; --i) {
    size_t j = rng.NextBounded(i);
    std::swap(stubs[i - 1], stubs[j]);
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(stubs.size() / 2);
  for (size_t i = 0; i + 1 < stubs.size(); i += 2) {
    edges.push_back({stubs[i], stubs[i + 1]});
  }
  return CsrGraph(num_vertices(), edges);
}

std::vector<uint32_t> ConnectedComponents(const CsrGraph& graph,
                                          uint64_t* count) {
  uint32_t n = graph.num_vertices();
  std::vector<uint32_t> component(n, ~0u);
  uint64_t components = 0;
  std::deque<uint32_t> queue;
  for (uint32_t root = 0; root < n; ++root) {
    if (component[root] != ~0u) continue;
    ++components;
    component[root] = root;
    queue.push_back(root);
    while (!queue.empty()) {
      uint32_t v = queue.front();
      queue.pop_front();
      for (const uint32_t* t = graph.NeighborsBegin(v);
           t != graph.NeighborsEnd(v); ++t) {
        if (component[*t] == ~0u) {
          component[*t] = root;
          queue.push_back(*t);
        }
      }
    }
  }
  if (count != nullptr) *count = components;
  return component;
}

namespace {

/// Weighted undirected multigraph used by Louvain aggregation. Self-loop
/// weight counts both endpoints (like degree).
struct WeightedGraph {
  std::vector<std::unordered_map<uint32_t, double>> adjacency;
  std::vector<double> self_loop;  // 2x internal weight of the super-node.
  double total_weight2 = 0.0;     // 2m.

  uint32_t size() const { return static_cast<uint32_t>(adjacency.size()); }

  double WeightedDegree(uint32_t v) const {
    double d = self_loop[v];
    for (auto [_, w] : adjacency[v]) d += w;
    return d;
  }
};

WeightedGraph FromCsr(const CsrGraph& graph) {
  WeightedGraph wg;
  wg.adjacency.resize(graph.num_vertices());
  wg.self_loop.assign(graph.num_vertices(), 0.0);
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    for (const uint32_t* t = graph.NeighborsBegin(v);
         t != graph.NeighborsEnd(v); ++t) {
      wg.adjacency[v][*t] += 1.0;
      wg.total_weight2 += 1.0;
    }
  }
  return wg;
}

/// One Louvain level: local moving until stable; returns the labels and
/// whether anything moved.
bool LocalMoving(const WeightedGraph& graph, std::vector<uint32_t>& labels) {
  uint32_t n = graph.size();
  double m2 = graph.total_weight2;
  if (m2 == 0.0) return false;
  // Total weighted degree per community.
  std::vector<double> community_degree(n, 0.0);
  std::vector<double> degree(n, 0.0);
  for (uint32_t v = 0; v < n; ++v) {
    degree[v] = graph.WeightedDegree(v);
    community_degree[labels[v]] += degree[v];
  }
  bool any_move = false;
  bool improved = true;
  std::unordered_map<uint32_t, double> links;  // Community -> edge weight.
  for (int round = 0; round < 40 && improved; ++round) {
    improved = false;
    for (uint32_t v = 0; v < n; ++v) {
      uint32_t current = labels[v];
      links.clear();
      for (auto [t, w] : graph.adjacency[v]) {
        if (t != v) links[labels[t]] += w;
      }
      community_degree[current] -= degree[v];
      double best_gain = links.count(current) > 0
                             ? links[current] -
                                   community_degree[current] * degree[v] / m2
                             : -community_degree[current] * degree[v] / m2;
      uint32_t best = current;
      for (auto [community, weight] : links) {
        if (community == current) continue;
        double gain =
            weight - community_degree[community] * degree[v] / m2;
        if (gain > best_gain + 1e-12) {
          best_gain = gain;
          best = community;
        }
      }
      community_degree[best] += degree[v];
      if (best != current) {
        labels[v] = best;
        improved = true;
        any_move = true;
      }
    }
  }
  return any_move;
}

/// Aggregates communities into super-nodes.
WeightedGraph Aggregate(const WeightedGraph& graph,
                        const std::vector<uint32_t>& labels,
                        std::vector<uint32_t>* renumbered) {
  // Renumber labels densely.
  std::unordered_map<uint32_t, uint32_t> dense;
  renumbered->assign(labels.size(), 0);
  for (size_t v = 0; v < labels.size(); ++v) {
    auto [it, inserted] = dense.try_emplace(
        labels[v], static_cast<uint32_t>(dense.size()));
    (*renumbered)[v] = it->second;
  }
  WeightedGraph out;
  out.adjacency.resize(dense.size());
  out.self_loop.assign(dense.size(), 0.0);
  out.total_weight2 = graph.total_weight2;
  for (uint32_t v = 0; v < graph.size(); ++v) {
    uint32_t cv = (*renumbered)[v];
    out.self_loop[cv] += graph.self_loop[v];
    for (auto [t, w] : graph.adjacency[v]) {
      uint32_t ct = (*renumbered)[t];
      if (ct == cv) {
        out.self_loop[cv] += w;
      } else {
        out.adjacency[cv][ct] += w;
      }
    }
  }
  return out;
}

}  // namespace

std::vector<uint32_t> Louvain(const CsrGraph& graph) {
  constexpr int kMaxLevels = 5;
  uint32_t n = graph.num_vertices();
  std::vector<uint32_t> assignment(n);
  std::iota(assignment.begin(), assignment.end(), 0);
  WeightedGraph level_graph = FromCsr(graph);
  std::vector<uint32_t> level_labels(n);
  std::iota(level_labels.begin(), level_labels.end(), 0);

  for (int level = 0; level < kMaxLevels; ++level) {
    if (!LocalMoving(level_graph, level_labels)) break;
    std::vector<uint32_t> renumbered;
    level_graph = Aggregate(level_graph, level_labels, &renumbered);
    // Compose: original vertex -> super-node of this level.
    for (uint32_t v = 0; v < n; ++v) {
      assignment[v] = renumbered[assignment[v]];
    }
    level_labels.assign(level_graph.size(), 0);
    std::iota(level_labels.begin(), level_labels.end(), 0);
  }
  return assignment;
}

double Modularity(const CsrGraph& graph,
                  const std::vector<uint32_t>& labels) {
  double m2 = 0.0;  // 2m = sum of degrees.
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    m2 += graph.Degree(v);
  }
  if (m2 == 0.0) return 0.0;

  // Sum over communities of (intra-edges/m - (deg_sum/2m)^2).
  std::unordered_map<uint32_t, double> intra;   // 2 * intra edge endpoints.
  std::unordered_map<uint32_t, double> degree_sum;
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    degree_sum[labels[v]] += graph.Degree(v);
    for (const uint32_t* t = graph.NeighborsBegin(v);
         t != graph.NeighborsEnd(v); ++t) {
      if (labels[*t] == labels[v]) intra[labels[v]] += 1.0;
    }
  }
  double q = 0.0;
  for (auto [label, deg] : degree_sum) {
    double e_in = intra.count(label) > 0 ? intra[label] / m2 : 0.0;
    double a = deg / m2;
    q += e_in - a * a;
  }
  return q;
}

double LocalClusteringCoefficient(const CsrGraph& graph, uint32_t v) {
  uint32_t degree = graph.Degree(v);
  if (degree < 2) return 0.0;
  uint64_t closed = 0;
  for (const uint32_t* a = graph.NeighborsBegin(v);
       a != graph.NeighborsEnd(v); ++a) {
    for (const uint32_t* b = a + 1; b != graph.NeighborsEnd(v); ++b) {
      // Is (a, b) an edge? Binary search in a's (sorted) adjacency.
      const uint32_t* begin = graph.NeighborsBegin(*a);
      const uint32_t* end = graph.NeighborsEnd(*a);
      if (std::binary_search(begin, end, *b)) ++closed;
    }
  }
  double pairs = 0.5 * degree * (degree - 1);
  return static_cast<double>(closed) / pairs;
}

double AverageClusteringCoefficient(const CsrGraph& graph) {
  double sum = 0.0;
  uint64_t counted = 0;
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    if (graph.Degree(v) < 2) continue;
    sum += LocalClusteringCoefficient(graph, v);
    ++counted;
  }
  return counted == 0 ? 0.0 : sum / static_cast<double>(counted);
}

}  // namespace snb::algorithms
