// The generator's structure check. The paper cites [13] (Prat &
// Dominguez-Sal, GRADES 2014) for the claim that the correlated friendship
// graph has community structure a degree-matched random graph lacks.
// algorithms_test's generated-graph cases check that claim on a generated
// network: one giant component, a clustering coefficient above a
// degree-preserving rewiring of the same graph, and Louvain modularity
// above that rewiring's. This module holds what those checks call: a
// compact CSR snapshot of the Knows graph, its rewiring, connected
// components, Louvain with Newman modularity, and clustering coefficients.
// The benchmark path does not use it.
#ifndef SNB_ALGORITHMS_GRAPH_ALGORITHMS_H_
#define SNB_ALGORITHMS_GRAPH_ALGORITHMS_H_

#include <cstdint>
#include <vector>

#include "schema/entities.h"
#include "util/rng.h"

namespace snb::algorithms {

/// Immutable CSR view of an undirected graph over dense vertex ids.
class CsrGraph {
 public:
  /// Builds from undirected edges over vertices [0, num_vertices).
  /// Adjacency lists are sorted; parallel edges collapse.
  CsrGraph(uint64_t num_vertices,
           const std::vector<std::pair<uint32_t, uint32_t>>& edges);

  /// Builds from the Knows edges of a generated network (vertex = PersonId,
  /// which datagen keeps dense).
  static CsrGraph FromKnows(uint64_t num_persons,
                            const std::vector<schema::Knows>& knows);

  /// A degree-preserving randomized rewiring of this graph (configuration-
  /// model style), used as the "no correlation dimensions" null model.
  CsrGraph DegreeMatchedRandom(util::Rng& rng) const;

  uint32_t num_vertices() const {
    return static_cast<uint32_t>(offsets_.size() - 1);
  }
  uint64_t num_edges() const { return targets_.size() / 2; }

  uint32_t Degree(uint32_t v) const {
    return static_cast<uint32_t>(offsets_[v + 1] - offsets_[v]);
  }
  const uint32_t* NeighborsBegin(uint32_t v) const {
    return targets_.data() + offsets_[v];
  }
  const uint32_t* NeighborsEnd(uint32_t v) const {
    return targets_.data() + offsets_[v + 1];
  }

 private:
  CsrGraph() = default;
  std::vector<uint64_t> offsets_;
  std::vector<uint32_t> targets_;
};

/// Connected components; returns per-vertex component id (smallest vertex
/// id in the component) and the number of components via `count`.
std::vector<uint32_t> ConnectedComponents(const CsrGraph& graph,
                                          uint64_t* count = nullptr);

/// Community detection by Louvain-style greedy modularity optimization
/// (local moving + graph aggregation, at most five levels). Returns
/// per-vertex community labels.
std::vector<uint32_t> Louvain(const CsrGraph& graph);

/// Newman modularity of a labeling in [-0.5, 1].
double Modularity(const CsrGraph& graph,
                  const std::vector<uint32_t>& labels);

/// Local clustering coefficient of one vertex (triangles / possible pairs).
double LocalClusteringCoefficient(const CsrGraph& graph, uint32_t v);

/// Mean local clustering coefficient over vertices with degree >= 2.
double AverageClusteringCoefficient(const CsrGraph& graph);

}  // namespace snb::algorithms

#endif  // SNB_ALGORITHMS_GRAPH_ALGORITHMS_H_
