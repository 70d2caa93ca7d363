// Tests for the generator's structure check: the CSR graph and the
// algorithms on it, then the check itself on a generated network.
#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "algorithms/graph_algorithms.h"
#include "datagen/datagen.h"

namespace snb::algorithms {
namespace {

// A 4-cycle plus a pendant: 0-1-2-3-0, 4-0; vertex 5 isolated.
CsrGraph SmallGraph() {
  return CsrGraph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {4, 0}});
}

// Two triangles joined by one edge: {0,1,2} and {3,4,5}, bridge 2-3.
CsrGraph TwoTriangles() {
  return CsrGraph(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}});
}

TEST(CsrGraphTest, BuildsSortedDedupedAdjacency) {
  CsrGraph g(3, {{0, 1}, {1, 0}, {0, 2}, {0, 0}});
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);  // Parallel edge collapsed, self-loop gone.
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Degree(1), 1u);
  EXPECT_EQ(*g.NeighborsBegin(0), 1u);
  EXPECT_EQ(*(g.NeighborsBegin(0) + 1), 2u);
}

TEST(ConnectedComponentsTest, CountsComponents) {
  uint64_t count = 0;
  std::vector<uint32_t> comp = ConnectedComponents(SmallGraph(), &count);
  EXPECT_EQ(count, 2u);
  EXPECT_EQ(comp[0], comp[4]);
  EXPECT_NE(comp[0], comp[5]);
}

TEST(ClusteringTest, LocalCoefficient) {
  CsrGraph g = TwoTriangles();
  EXPECT_DOUBLE_EQ(LocalClusteringCoefficient(g, 0), 1.0);
  // Vertex 2 has neighbors {0,1,3}: only (0,1) is an edge -> 1/3.
  EXPECT_NEAR(LocalClusteringCoefficient(g, 2), 1.0 / 3.0, 1e-9);
}

TEST(ClusteringTest, CompleteGraphAverageIsOne) {
  CsrGraph k4(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}});
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(k4), 1.0);
}

TEST(ModularityTest, SingleCommunityIsZero) {
  CsrGraph g = TwoTriangles();
  std::vector<uint32_t> one(6, 0);
  EXPECT_NEAR(Modularity(g, one), 0.0, 1e-9);
}

class GeneratedGraphTest : public ::testing::Test {
 protected:
  static const CsrGraph& graph() {
    static CsrGraph* g = [] {
      datagen::DatagenConfig config;
      config.num_persons = 500;
      config.split_update_stream = false;
      datagen::Dataset ds = datagen::Generate(config);
      return new CsrGraph(CsrGraph::FromKnows(config.num_persons,
                                              ds.bulk.knows));
    }();
    return *g;
  }
};

TEST_F(GeneratedGraphTest, MostlyOneGiantComponent) {
  // "The dataset forms a graph that is a fully connected component of
  // persons" — at mini scale a few stragglers are tolerated.
  uint64_t count = 0;
  std::vector<uint32_t> comp = ConnectedComponents(graph(), &count);
  std::map<uint32_t, int> sizes;
  for (uint32_t c : comp) ++sizes[c];
  int giant = 0;
  for (auto [_, size] : sizes) giant = std::max(giant, size);
  EXPECT_GT(giant, static_cast<int>(graph().num_vertices() * 0.95));
}

TEST_F(GeneratedGraphTest, CorrelatedGraphClustersAboveRandom) {
  // The correlation dimensions must produce community structure: the
  // generated graph's clustering coefficient has to clearly exceed a
  // degree-matched random rewiring (the [13] validation, in miniature).
  double real_cc = AverageClusteringCoefficient(graph());
  util::Rng rng(99, 1, util::RandomPurpose::kFriendPick);
  CsrGraph random = graph().DegreeMatchedRandom(rng);
  double random_cc = AverageClusteringCoefficient(random);
  EXPECT_GT(real_cc, 2.0 * random_cc)
      << "real=" << real_cc << " random=" << random_cc;
}

TEST_F(GeneratedGraphTest, LouvainFindsCommunities) {
  // The correlation dimensions induce real community structure, more than
  // home country alone explains (a partition by home country reaches
  // q = 0.17 on this graph); Louvain must find more than 0.2.
  std::vector<uint32_t> labels = Louvain(graph());
  double q = Modularity(graph(), labels);
  EXPECT_GT(q, 0.2);
  // And clearly more than on a degree-matched random graph.
  util::Rng rng(7, 2, util::RandomPurpose::kFriendPick);
  CsrGraph random = graph().DegreeMatchedRandom(rng);
  double random_q = Modularity(random, Louvain(random));
  EXPECT_GT(q, random_q + 0.05) << "q=" << q << " random_q=" << random_q;
}

TEST(LouvainTest, TwoTrianglesSplit) {
  CsrGraph g = TwoTriangles();
  std::vector<uint32_t> labels = Louvain(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_EQ(labels[4], labels[5]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_GT(Modularity(g, labels), 0.3);
}

}  // namespace
}  // namespace snb::algorithms
