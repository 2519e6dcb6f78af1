// Tests for the spatial substrate: k-d tree invariants, kNN vs brute force,
// BCCP/BCCP* vs brute force, and WSPD realization properties.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <set>

#include "spatial/bccp.h"
#include "spatial/kdtree.h"
#include "spatial/knn.h"
#include "spatial/traverse.h"
#include "spatial/wspd.h"
#include "test_util.h"
#include "util/stats.h"

namespace parhc {
namespace {

using test::DuplicatedPoints;
using test::RandomPoints;

template <int D>
void CheckTreeInvariants(const KdTree<D>& tree, uint32_t node) {
  // Every point of the node lies in its bounding box, and the box is tight.
  Box<D> recomputed = Box<D>::Empty();
  for (uint32_t i = tree.NodeBegin(node); i < tree.NodeEnd(node); ++i) {
    recomputed.Extend(tree.point(i));
  }
  for (int d = 0; d < D; ++d) {
    ASSERT_DOUBLE_EQ(recomputed.lo[d], tree.NodeBox(node).lo[d]);
    ASSERT_DOUBLE_EQ(recomputed.hi[d], tree.NodeBox(node).hi[d]);
  }
  if (!tree.IsLeaf(node)) {
    uint32_t l = tree.Left(node), r = tree.Right(node);
    ASSERT_EQ(tree.NodeBegin(l), tree.NodeBegin(node));
    ASSERT_EQ(tree.NodeEnd(l), tree.NodeBegin(r));
    ASSERT_EQ(tree.NodeEnd(r), tree.NodeEnd(node));
    ASSERT_GT(tree.NodeSize(l), 0u);
    ASSERT_GT(tree.NodeSize(r), 0u);
    CheckTreeInvariants(tree, l);
    CheckTreeInvariants(tree, r);
  }
}

TEST(KdTree, InvariantsRandom2D) {
  auto pts = RandomPoints<2>(3000, 42);
  KdTree<2> tree(pts, 1);
  CheckTreeInvariants(tree, tree.root());
}

TEST(KdTree, InvariantsRandom5D) {
  auto pts = RandomPoints<5>(2000, 1);
  KdTree<5> tree(pts, 8);
  CheckTreeInvariants(tree, tree.root());
}

TEST(KdTree, IdsAreAPermutation) {
  auto pts = RandomPoints<3>(5000, 9);
  KdTree<3> tree(pts, 4);
  std::vector<bool> seen(pts.size(), false);
  for (size_t i = 0; i < pts.size(); ++i) {
    uint32_t id = tree.id(i);
    ASSERT_LT(id, pts.size());
    ASSERT_FALSE(seen[id]);
    seen[id] = true;
    ASSERT_EQ(tree.point(i), pts[id]);  // reordered point matches original
  }
}

TEST(KdTree, ArenaIsSizedToActualNodeCount) {
  // Leaves hold up to 8 points, so the arena must be far below the 2n
  // upper bound, and every parent's index is smaller than its children's
  // (the invariant the flat bottom-up sweeps rely on).
  auto pts = RandomPoints<3>(5000, 3);
  KdTree<3> tree(pts, 8);
  uint32_t count = tree.node_count();
  EXPECT_LT(count, pts.size());  // leaf_size 8 => far fewer than n nodes
  uint32_t leaves = 0;
  for (uint32_t v = 0; v < count; ++v) {
    if (tree.IsLeaf(v)) {
      ++leaves;
    } else {
      ASSERT_GT(tree.Left(v), v);
      ASSERT_EQ(tree.Right(v), tree.Left(v) + 1);
      ASSERT_LT(tree.Right(v), count);
    }
  }
  EXPECT_EQ(count, 2 * leaves - 1);  // full binary tree
}

TEST(KdTree, DuplicatesBecomeZeroDiameterLeaves) {
  auto pts = DuplicatedPoints<2>(500, 7);
  KdTree<2> tree(pts, 1);
  // Every leaf with >1 point must have zero diameter (identical points).
  ForEachLeaf(tree, [&](uint32_t v) {
    if (tree.NodeSize(v) > 1) {
      EXPECT_EQ(tree.Diameter(v), 0.0);
    }
  });
}

TEST(KdTree, SinglePoint) {
  std::vector<Point<2>> pts{{{1.0, 2.0}}};
  KdTree<2> tree(pts, 1);
  EXPECT_TRUE(tree.IsLeaf(tree.root()));
  EXPECT_EQ(tree.NodeSize(tree.root()), 1u);
  EXPECT_EQ(tree.Diameter(tree.root()), 0.0);
  EXPECT_EQ(tree.node_count(), 1u);
}

class KnnTest : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(KnnTest, MatchesBruteForce3D) {
  auto [n, k] = GetParam();
  auto pts = RandomPoints<3>(n, n * 31 + k);
  KdTree<3> tree(pts, 8);
  auto kth = KthNeighborDistances(tree, k);
  std::mt19937_64 rng(n);
  for (int trial = 0; trial < 50; ++trial) {
    size_t i = rng() % n;
    std::vector<double> d(n);
    for (size_t j = 0; j < n; ++j) d[j] = Distance(pts[i], pts[j]);
    std::nth_element(d.begin(), d.begin() + (k - 1), d.end());
    ASSERT_NEAR(kth[i], d[k - 1], 1e-12) << "point " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KnnTest,
    ::testing::Combine(::testing::Values(50, 500, 2000),
                       ::testing::Values(1, 2, 10, 30)));

TEST(Knn, QueryReturnsSortedNeighbors) {
  auto pts = RandomPoints<2>(1000, 5);
  KdTree<2> tree(pts, 16);
  Point<2> q{{50.0, 50.0}};
  auto nn = KnnQuery(tree, q, 12);
  ASSERT_EQ(nn.size(), 12u);
  for (size_t i = 1; i < nn.size(); ++i) {
    EXPECT_LE(nn[i - 1].first, nn[i].first);
  }
  // First neighbor is the true nearest.
  double best = 1e18;
  for (auto& p : pts) best = std::min(best, Distance(q, p));
  EXPECT_DOUBLE_EQ(nn[0].first, best);
}

TEST(Knn, SelfIsFirstNeighbor) {
  auto pts = RandomPoints<4>(300, 8);
  KdTree<4> tree(pts, 8);
  auto cd1 = KthNeighborDistances(tree, 1);
  for (double d : cd1) EXPECT_EQ(d, 0.0);
}

template <int D>
ClosestPair BruteBccp(const std::vector<Point<D>>& pts,
                      const std::vector<uint32_t>& as,
                      const std::vector<uint32_t>& bs) {
  ClosestPair best;
  for (uint32_t a : as) {
    for (uint32_t b : bs) {
      double d = Distance(pts[a], pts[b]);
      if (d < best.dist) best = {a, b, d};
    }
  }
  return best;
}

template <int D>
std::vector<uint32_t> NodeIds(const KdTree<D>& tree, uint32_t node) {
  std::vector<uint32_t> out;
  for (uint32_t i = tree.NodeBegin(node); i < tree.NodeEnd(node); ++i) {
    out.push_back(tree.id(i));
  }
  return out;
}

TEST(Bccp, MatchesBruteForceOnTreeNodes) {
  auto pts = RandomPoints<3>(2000, 77);
  KdTree<3> tree(pts, 1);
  // Use the root's children as the two sets.
  uint32_t a = tree.Left(tree.root());
  uint32_t b = tree.Right(tree.root());
  ClosestPair expect = BruteBccp(pts, NodeIds(tree, a), NodeIds(tree, b));
  ClosestPair got = Bccp(tree, a, b);
  EXPECT_DOUBLE_EQ(got.dist, expect.dist);
}

TEST(Bccp, DeepNodePairsMatchBruteForce) {
  auto pts = RandomPoints<2>(800, 3);
  KdTree<2> tree(pts, 1);
  ASSERT_FALSE(tree.IsLeaf(tree.root()));
  ASSERT_FALSE(tree.IsLeaf(tree.Left(tree.root())));
  ASSERT_FALSE(tree.IsLeaf(tree.Right(tree.root())));
  uint32_t a = tree.Left(tree.Left(tree.root()));
  uint32_t b = tree.Right(tree.Right(tree.root()));
  EXPECT_DOUBLE_EQ(Bccp(tree, a, b).dist,
                   BruteBccp(pts, NodeIds(tree, a), NodeIds(tree, b)).dist);
}

TEST(Bccp, CountsLeafScanPointDistances) {
  auto pts = RandomPoints<2>(800, 5);
  KdTree<2> tree(pts, 1);
  uint32_t a = tree.Left(tree.root());
  uint32_t b = tree.Right(tree.root());
  StatsEpoch epoch;
  Bccp(tree, a, b);
  AlgoCounterSnapshot d = epoch.Delta();
  EXPECT_EQ(d.bccp_computed, 1u);
  // The pruned descent scans some leaf pairs, never more than |A| * |B|.
  EXPECT_GT(d.bccp_point_distances, 0u);
  EXPECT_LE(d.bccp_point_distances,
            uint64_t{tree.NodeSize(a)} * tree.NodeSize(b));
}

TEST(BccpStar, MatchesBruteForceMutualReachability) {
  auto pts = RandomPoints<2>(600, 13);
  constexpr int kMinPts = 5;
  KdTree<2> tree(pts, 1);
  auto cd = test::BruteCoreDistances(pts, kMinPts);
  tree.AnnotateCoreDistances(cd);
  uint32_t a = tree.Left(tree.root());
  uint32_t b = tree.Right(tree.root());
  double expect = std::numeric_limits<double>::infinity();
  for (uint32_t i = tree.NodeBegin(a); i < tree.NodeEnd(a); ++i) {
    for (uint32_t j = tree.NodeBegin(b); j < tree.NodeEnd(b); ++j) {
      uint32_t u = tree.id(i), v = tree.id(j);
      expect = std::min(
          expect, std::max({Distance(pts[u], pts[v]), cd[u], cd[v]}));
    }
  }
  EXPECT_DOUBLE_EQ(BccpStar(tree, a, b).dist, expect);
}

// WSPD realization properties (Section 2.3): every unordered point pair is
// covered by exactly one well-separated pair, and recorded pairs satisfy
// the separation criterion.
class WspdTest : public ::testing::TestWithParam<size_t> {};

TEST_P(WspdTest, RealizationCoversEveryPairExactlyOnce) {
  size_t n = GetParam();
  auto pts = RandomPoints<2>(n, n);
  KdTree<2> tree(pts, 1);
  auto pairs = MaterializeWspd(tree, GeometricSeparation<2>{2.0});
  std::map<std::pair<uint32_t, uint32_t>, int> cover;
  for (auto& pr : pairs) {
    for (uint32_t i = tree.NodeBegin(pr.a); i < tree.NodeEnd(pr.a); ++i) {
      for (uint32_t j = tree.NodeBegin(pr.b); j < tree.NodeEnd(pr.b); ++j) {
        uint32_t u = tree.id(i), v = tree.id(j);
        cover[{std::min(u, v), std::max(u, v)}]++;
      }
    }
  }
  size_t expected_pairs = n * (n - 1) / 2;
  ASSERT_EQ(cover.size(), expected_pairs);
  for (auto& [k, c] : cover) {
    ASSERT_EQ(c, 1) << "pair covered " << c << " times";
  }
}

TEST_P(WspdTest, PairsAreWellSeparated) {
  size_t n = GetParam();
  auto pts = RandomPoints<3>(n, n + 5);
  KdTree<3> tree(pts, 1);
  GeometricSeparation<3> sep{2.0};
  auto pairs = MaterializeWspd(tree, sep);
  for (auto& pr : pairs) {
    EXPECT_TRUE(sep(tree, pr.a, pr.b));
  }
}

TEST_P(WspdTest, LinearNumberOfPairs) {
  size_t n = GetParam();
  auto pts = RandomPoints<2>(n, 2 * n + 1);
  KdTree<2> tree(pts, 1);
  auto pairs = MaterializeWspd(tree, GeometricSeparation<2>{2.0});
  // Theory: O(s^d * n) pairs. Generous constant for s=2, d=2.
  EXPECT_LT(pairs.size(), 120 * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, WspdTest, ::testing::Values(2, 3, 17, 128, 500));

TEST(Wspd, HdbscanSeparationYieldsFewerPairs) {
  // Section 3.2.2: the new definition terminates recursion earlier, so the
  // number of pairs cannot exceed (and is typically far below) the
  // geometric-separation count.
  auto pts = test::RandomPoints<3>(4000, 99);
  KdTree<3> tree(pts, 1);
  auto cd = [&] {
    KdTree<3> tmp(pts, 8);
    return KthNeighborDistances(tmp, 10);
  }();
  tree.AnnotateCoreDistances(cd);
  auto geo_pairs = MaterializeWspd(tree, GeometricSeparation<3>{2.0});
  auto new_pairs = MaterializeWspd(tree, HdbscanSeparation<3>{});
  EXPECT_LT(new_pairs.size(), geo_pairs.size());
}

TEST(Wspd, CoverageWithDuplicatesViaLeafEdges) {
  // With duplicates, intra-leaf pairs are not covered by the WSPD — that is
  // the documented contract; EMST/HDBSCAN add explicit leaf edges.
  auto pts = DuplicatedPoints<2>(200, 21);
  KdTree<2> tree(pts, 1);
  auto pairs = MaterializeWspd(tree, GeometricSeparation<2>{2.0});
  std::set<std::pair<uint32_t, uint32_t>> covered;
  for (auto& pr : pairs) {
    for (uint32_t i = tree.NodeBegin(pr.a); i < tree.NodeEnd(pr.a); ++i) {
      for (uint32_t j = tree.NodeBegin(pr.b); j < tree.NodeEnd(pr.b); ++j) {
        uint32_t u = tree.id(i), v = tree.id(j);
        auto key = std::minmax(u, v);
        ASSERT_TRUE(covered.insert({key.first, key.second}).second)
            << "double cover";
      }
    }
  }
  // All uncovered pairs must be identical-point pairs.
  for (uint32_t u = 0; u < pts.size(); ++u) {
    for (uint32_t v = u + 1; v < pts.size(); ++v) {
      if (!covered.count({u, v})) {
        ASSERT_EQ(pts[u], pts[v]) << "non-duplicate pair uncovered";
      }
    }
  }
}

}  // namespace
}  // namespace parhc
