// The dense per-part MST kernel (emst/dense_mst.h), its selector and the
// PartMst entry point: oracle tests against MemoGFK, PrimMst and
// exhaustive Kruskal, plus the uniqueness properties the WeightedEdge
// order does and does not give across MST kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "data/generators.h"
#include "dendrogram/builder.h"
#include "dendrogram/cluster_extraction.h"
#include "emst/dense_mst.h"
#include "emst/emst_memogfk.h"
#include "emst/part_mst.h"
#include "graph/kruskal.h"
#include "graph/prim.h"
#include "hdbscan/core_distance.h"
#include "hdbscan/hdbscan_mst.h"
#include "hdbscan/stability.h"
#include "parallel/scheduler.h"
#include "test_util.h"

namespace parhc {
namespace {

using test::NormalizedLabels;

/// Canonical form for edge-for-edge comparison: u < v, sorted.
std::vector<WeightedEdge> Canon(std::vector<WeightedEdge> edges) {
  for (WeightedEdge& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Exhaustive Kruskal over the complete graph under the WeightedEdge
/// order: Euclidean when `core` is empty, mutual reachability otherwise.
/// Distances go through the same dispatched kernel BCCP uses.
template <int D>
std::vector<WeightedEdge> KruskalOracle(const std::vector<Point<D>>& pts,
                                        const std::vector<double>& core = {}) {
  std::vector<WeightedEdge> all;
  for (uint32_t i = 0; i < pts.size(); ++i) {
    for (uint32_t j = i + 1; j < pts.size(); ++j) {
      double w = DistanceDispatch(pts[i], pts[j]);
      if (!core.empty()) w = std::max({w, core[i], core[j]});
      all.push_back({i, j, w});
    }
  }
  return KruskalMst(pts.size(), std::move(all));
}

template <int D>
std::vector<double> Core(const std::vector<Point<D>>& pts, int min_pts) {
  KdTree<D> tree(pts, /*leaf_size=*/1);
  return CoreDistances(tree, min_pts);
}

// --- Euclidean: edge-for-edge against MemoGFK and PrimMst ----------------

template <int D>
void ExpectEuclideanMatchesOracles(const std::vector<Point<D>>& pts) {
  std::vector<WeightedEdge> dense = Canon(DenseMst(pts.data(), pts.size()));
  ASSERT_EQ(dense.size(), pts.size() - 1);
  EXPECT_EQ(dense, Canon(EmstMemoGfk(pts)));
  EXPECT_EQ(dense, Canon(PrimMst(pts.size(), [&](uint32_t i, uint32_t j) {
              return DistanceDispatch(pts[i], pts[j]);
            })));
}

TEST(DenseMst, EuclideanMatchesMemoGfkAndPrimAtD8) {
  ExpectEuclideanMatchesOracles(test::RandomPoints<8>(600, 3));
  ExpectEuclideanMatchesOracles(GaussianEmbeddings<8>(500, 4));
}

TEST(DenseMst, EuclideanMatchesMemoGfkAndPrimAtD64) {
  ExpectEuclideanMatchesOracles(GaussianEmbeddings<64>(700, 5));
}

TEST(DenseMst, EuclideanMatchesMemoGfkAtD2) {
  ExpectEuclideanMatchesOracles(test::RandomPoints<2>(500, 6));
}

// --- Mutual reachability: edge-for-edge against exhaustive Kruskal -------

TEST(DenseMst, MutualReachabilityMatchesKruskalAtD64) {
  auto pts = GaussianEmbeddings<64>(500, 7);
  std::vector<double> core = Core(pts, 8);
  EXPECT_EQ(Canon(DenseMst(pts.data(), pts.size(), core.data())),
            Canon(KruskalOracle(pts, core)));
}

TEST(DenseMst, MutualReachabilityMatchesKruskalUnderHeavyTies) {
  // 2-D minPts 10: most edges weigh a core distance, so ties abound.
  auto pts = test::RandomPoints<2>(400, 8);
  std::vector<double> core = Core(pts, 10);
  EXPECT_EQ(Canon(DenseMst(pts.data(), pts.size(), core.data())),
            Canon(KruskalOracle(pts, core)));
}

// --- Degenerate inputs ---------------------------------------------------

TEST(DenseMst, TinyInputs) {
  std::vector<Point<8>> none;
  EXPECT_TRUE(DenseMst(none.data(), 0).empty());
  auto one = test::RandomPoints<8>(1, 9);
  EXPECT_TRUE(DenseMst(one.data(), 1).empty());
  auto two = test::RandomPoints<8>(2, 10);
  std::vector<WeightedEdge> e2 = Canon(DenseMst(two.data(), 2));
  ASSERT_EQ(e2.size(), 1u);
  EXPECT_EQ(e2[0], (WeightedEdge{0, 1, DistanceDispatch(two[0], two[1])}));
  auto three = test::RandomPoints<8>(3, 11);
  EXPECT_EQ(Canon(DenseMst(three.data(), 3)), Canon(KruskalOracle(three)));
}

TEST(DenseMst, TiesBreakByIdOrder) {
  // Collinear unit steps and a unit grid: every MST edge ties with others.
  std::vector<Point<2>> line(5);
  for (int i = 0; i < 5; ++i) line[i][0] = i;
  EXPECT_EQ(Canon(DenseMst(line.data(), line.size())),
            Canon(KruskalOracle(line)));
  std::vector<Point<8>> grid;
  for (int x = 0; x < 6; ++x) {
    for (int y = 0; y < 6; ++y) {
      Point<8> p{};
      p[0] = x;
      p[3] = y;
      grid.push_back(p);
    }
  }
  std::vector<WeightedEdge> dense = Canon(DenseMst(grid.data(), grid.size()));
  EXPECT_EQ(dense, Canon(KruskalOracle(grid)));
  EXPECT_EQ(test::SortedWeights(dense), test::SortedWeights(EmstMemoGfk(grid)));
}

TEST(DenseMst, DuplicatePoints) {
  // Zero-weight edges between copies are exchangeable: MemoGFK pins only
  // the weights, the dense kernel gives Kruskal's edge set exactly.
  auto pts = test::DuplicatedPoints<8>(300, 12);
  std::vector<WeightedEdge> dense = Canon(DenseMst(pts.data(), pts.size()));
  EXPECT_EQ(dense, Canon(KruskalOracle(pts)));
  EXPECT_EQ(test::SortedWeights(dense), test::SortedWeights(EmstMemoGfk(pts)));
  std::vector<Point<64>> same(40, GaussianEmbeddings<64>(1, 13)[0]);
  std::vector<WeightedEdge> zero = DenseMst(same.data(), same.size());
  ASSERT_EQ(zero.size(), 39u);
  EXPECT_EQ(Canon(zero), Canon(KruskalOracle(same)));
  std::vector<double> core = Core(pts, 4);
  EXPECT_EQ(Canon(DenseMst(pts.data(), pts.size(), core.data())),
            Canon(KruskalOracle(pts, core)));
}

TEST(DenseMst, BlockSplitScanMatchesSequentialScan) {
  // Large enough that the first steps split across the 4 test workers.
  auto pts = GaussianEmbeddings<64>(1200, 14);
  auto small = GaussianEmbeddings<8>(1500, 15);
  std::vector<double> core = Core(pts, 16);
  std::vector<WeightedEdge> par = DenseMst(pts.data(), pts.size());
  std::vector<WeightedEdge> par_mr = DenseMst(pts.data(), pts.size(),
                                              core.data());
  std::vector<WeightedEdge> par8 = DenseMst(small.data(), small.size());
  std::vector<WeightedEdge> seq, seq_mr, seq8;
  TaskArena one(1);
  one.Execute([&] {
    seq = DenseMst(pts.data(), pts.size());
    seq_mr = DenseMst(pts.data(), pts.size(), core.data());
    seq8 = DenseMst(small.data(), small.size());
  });
  EXPECT_EQ(par, seq);
  EXPECT_EQ(par_mr, seq_mr);
  EXPECT_EQ(par8, seq8);
}

// --- The selector --------------------------------------------------------

TEST(PartMstKernel, KeepsKdTreeAtLowDimensionAndPastCrossover) {
  static_assert(PartMstKernel(64, 2) == PartKernel::kKdTree);
  static_assert(PartMstKernel(500, 2) == PartKernel::kKdTree);
  static_assert(PartMstKernel(500, 7) == PartKernel::kKdTree);
  static_assert(PartMstKernel(1024, 8) == PartKernel::kDense);
  static_assert(PartMstKernel(8192, 8) == PartKernel::kKdTree);
  static_assert(PartMstKernel(1040, 64) == PartKernel::kDense);
  static_assert(PartMstKernel(3072, 256) == PartKernel::kDense);
  static_assert(PartMstKernel(size_t{1} << 20, 64) == PartKernel::kKdTree);
  // Monotone in n at every dimension the engine serves.
  for (int d : {2, 3, 4, 5, 7, 8, 10, 16, 64, 256}) {
    bool kd = false;
    for (size_t n = 1; n <= (size_t{1} << 16); n *= 2) {
      bool now_kd = PartMstKernel(n, d) == PartKernel::kKdTree;
      EXPECT_TRUE(now_kd || !kd) << "d=" << d << " n=" << n;
      kd = now_kd;
    }
  }
}

TEST(PartMst, BothKernelsAgreeThroughTheEntryPoint) {
  // d = 64 takes the dense kernel, d = 2 the kd-tree one; both must give
  // the oracle's MST, and the kd-tree callback must run only when chosen.
  auto hi = GaussianEmbeddings<64>(300, 16);
  int built = 0;
  std::optional<KdTree<64>> t64;
  auto e64 = PartMst(hi, nullptr, [&]() -> KdTree<64>& {
    ++built;
    return t64.emplace(hi, 1);
  });
  EXPECT_EQ(built, 0);
  EXPECT_EQ(Canon(e64), Canon(KruskalOracle(hi)));
  auto lo = test::RandomPoints<2>(300, 17);
  std::optional<KdTree<2>> t2;
  auto e2 = PartMst(lo, nullptr, [&]() -> KdTree<2>& {
    ++built;
    return t2.emplace(lo, 1);
  });
  EXPECT_EQ(built, 1);
  EXPECT_EQ(Canon(e2), Canon(KruskalOracle(lo)));
}

// --- What the (w, min id, max id) order does and does not pin ------------

TEST(MstUniqueness, KernelsAgreeOnWhatTheEdgeOrderPins) {
  auto pts = GaussianEmbeddings<64>(1040, 3612);
  const size_t n = pts.size();
  // Euclidean: every kernel returns Kruskal's edge set.
  std::vector<WeightedEdge> emst = Canon(KruskalOracle(pts));
  EXPECT_EQ(Canon(EmstMemoGfk(pts)), emst);
  EXPECT_EQ(Canon(DenseMst(pts.data(), n)), emst);

  // Mutual reachability: the dense kernel returns Kruskal's edge set; the
  // kd-tree MR-MST may carry other tied edges (one BCCP* per separated
  // pair need not be the order-minimal tied edge), but any exact MR-MST
  // has the same weight multiset and the same clusterings.
  constexpr int kMinPts = 16;
  KdTree<64> tree(pts, /*leaf_size=*/1);
  std::vector<double> core = CoreDistances(tree, kMinPts);
  std::vector<WeightedEdge> kruskal = KruskalOracle(pts, core);
  std::vector<WeightedEdge> dense = DenseMst(pts.data(), n, core.data());
  std::vector<WeightedEdge> kd = HdbscanMstOnTree(tree, core);
  EXPECT_EQ(Canon(dense), Canon(kruskal));
  EXPECT_EQ(test::SortedWeights(kd), test::SortedWeights(kruskal));
  Dendrogram dk = BuildDendrogramParallel(n, kruskal, 0);
  Dendrogram dd = BuildDendrogramParallel(n, dense, 0);
  Dendrogram dt = BuildDendrogramParallel(n, kd, 0);
  double root_h = dk.Height(dk.root());
  for (double frac : {0.3, 0.5, 0.7, 0.9}) {
    std::vector<int32_t> want =
        NormalizedLabels(DbscanStarLabels(dk, core, root_h * frac));
    EXPECT_EQ(NormalizedLabels(DbscanStarLabels(dd, core, root_h * frac)),
              want);
    EXPECT_EQ(NormalizedLabels(DbscanStarLabels(dt, core, root_h * frac)),
              want)
        << "frac=" << frac;
  }
  std::vector<int32_t> stable =
      NormalizedLabels(ExtractStableClusters(dk, kMinPts).label);
  EXPECT_EQ(NormalizedLabels(ExtractStableClusters(dd, kMinPts).label),
            stable);
  EXPECT_EQ(NormalizedLabels(ExtractStableClusters(dt, kMinPts).label),
            stable);
}

}  // namespace
}  // namespace parhc
