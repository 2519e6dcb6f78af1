// Batch-dynamic ingestion: cross-tree traversals (spatial/cross_traverse.h),
// the LSM shard forest (src/dynamic/), and its exact incremental
// EMST / HDBSCAN* maintenance, cross-checked against from-scratch builds.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <random>
#include <vector>

#include "data/generators.h"
#include "dynamic/artifacts.h"
#include "dynamic/forest.h"
#include "emst/emst_memogfk.h"
#include "engine/engine.h"
#include "hdbscan/hdbscan.h"
#include "spatial/cross_traverse.h"
#include "test_util.h"
#include "util/stats.h"

namespace parhc {
namespace {

using test::NormalizedLabels;
using test::RowsFrom;
using test::SortedWeights;

std::vector<WeightedEdge> Sorted(std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end());
  return edges;
}

// --- Cross-tree traversals ----------------------------------------------

TEST(CrossTraverse, CrossBccpMatchesBruteForce) {
  auto a = test::RandomPoints<2>(300, 7);
  auto b = test::RandomPoints<2>(211, 8);
  KdTree<2> ta(a, 1), tb(b, 1);
  auto ida = [&](uint32_t i) { return i; };
  auto idb = [&](uint32_t j) { return j + 1000; };
  ClosestPair got = CrossBccp(ta, tb, ta.root(), tb.root(), ida, idb);
  ClosestPair want;
  for (uint32_t i = 0; i < a.size(); ++i) {
    for (uint32_t j = 0; j < b.size(); ++j) {
      double d = Distance(a[i], b[j]);
      if (d < want.dist) want = {i, j + 1000, d};
    }
  }
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(std::minmax(got.u, got.v), std::minmax(want.u, want.v));
}

TEST(CrossTraverse, CrossBccpStarMatchesBruteForce) {
  auto a = test::RandomPoints<3>(150, 11);
  auto b = test::RandomPoints<3>(180, 12);
  // Global core distances over the union, as the shard forest computes them.
  std::vector<Point<3>> all(a);
  all.insert(all.end(), b.begin(), b.end());
  auto cd = test::BruteCoreDistances(all, 5);
  KdTree<3> ta(a, 1), tb(b, 1);
  std::vector<double> cda(cd.begin(), cd.begin() + a.size());
  std::vector<double> cdb(cd.begin() + a.size(), cd.end());
  // Annotate in each tree's local id space (tree ids index a / b).
  ta.AnnotateCoreDistances(cda);
  tb.AnnotateCoreDistances(cdb);
  auto ida = [&](uint32_t i) { return i; };
  auto idb = [&](uint32_t j) { return j + static_cast<uint32_t>(a.size()); };
  ClosestPair got = CrossBccpStar(ta, tb, ta.root(), tb.root(), ida, idb);
  ClosestPair want;
  for (uint32_t i = 0; i < a.size(); ++i) {
    for (uint32_t j = 0; j < b.size(); ++j) {
      double d = std::max({Distance(a[i], b[j]), cda[i], cdb[j]});
      uint32_t v = j + static_cast<uint32_t>(a.size());
      if (d < want.dist ||
          (d == want.dist &&
           std::minmax(i, v) < std::minmax(want.u, want.v))) {
        want = {i, v, d};
      }
    }
  }
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(std::minmax(got.u, got.v), std::minmax(want.u, want.v));
}

// --- Shard forest mechanics ---------------------------------------------

TEST(ShardForest, GeometricMergeBoundsShardCount) {
  ShardForest<2> forest;
  auto pts = test::RandomPoints<2>(500, 3);
  for (size_t i = 0; i < pts.size(); ++i) {
    forest.InsertBatch({pts[i]});
    // Bentley-Saxe: all shards have distinct size classes, so the count is
    // logarithmic in the live total.
    size_t n = forest.live_count();
    size_t bound = 1;
    while ((size_t{1} << bound) <= n) ++bound;
    EXPECT_LE(forest.num_shards(), bound) << "after " << i + 1 << " inserts";
  }
  EXPECT_EQ(forest.live_count(), pts.size());
}

TEST(ShardForest, TombstonesAndCompaction) {
  ShardForest<2> forest;
  auto pts = test::RandomPoints<2>(256, 5);
  forest.InsertBatch(pts);
  ASSERT_EQ(forest.num_shards(), size_t{1});
  uint64_t cid_before = forest.shard(0).content_id();

  // A small delete tombstones in place: same shard object, bumped content
  // id, no compaction below the threshold.
  EXPECT_EQ(forest.DeleteBatch({0, 1, 2, 3}), size_t{4});
  ASSERT_EQ(forest.num_shards(), size_t{1});
  EXPECT_EQ(forest.live_count(), size_t{252});
  EXPECT_EQ(forest.shard(0).dead_count(), size_t{4});
  EXPECT_NE(forest.shard(0).content_id(), cid_before);
  EXPECT_FALSE(forest.IsLive(2));
  EXPECT_TRUE(forest.IsLive(100));
  // Deleting the same ids again is a no-op.
  EXPECT_EQ(forest.DeleteBatch({0, 1, 2, 3}), size_t{0});

  // Push the shard past kCompactDeadFraction: survivors are compacted into
  // a fresh shard with no tombstones.
  std::vector<uint32_t> more;
  for (uint32_t g = 4; g < 80; ++g) more.push_back(g);
  EXPECT_EQ(forest.DeleteBatch(more), size_t{76});
  ASSERT_EQ(forest.num_shards(), size_t{1});
  EXPECT_EQ(forest.live_count(), size_t{176});
  EXPECT_EQ(forest.shard(0).dead_count(), size_t{0});

  // Locator still resolves surviving points after relocation.
  std::vector<uint32_t> live = forest.LiveGids();
  ASSERT_EQ(live.size(), size_t{176});
  EXPECT_TRUE(std::is_sorted(live.begin(), live.end()));
  for (uint32_t gid : live) {
    const Point<2>& p = forest.PointOf(gid);
    EXPECT_EQ(p[0], pts[gid][0]);
    EXPECT_EQ(p[1], pts[gid][1]);
  }
}

// The gid locator and dense map compact: after many insert/delete epochs
// their sizes track the *live* count, never the historical gid space —
// the ROADMAP churn-scaling fix (per-epoch work stays O(live points)).
TEST(ShardForest, LocatorStaysBoundedUnderChurn) {
  constexpr size_t kBatch = 200;
  constexpr int kEpochs = 50;
  DynamicArtifacts<2> artifacts;
  EngineRequest req;
  req.type = QueryType::kEmst;
  std::mt19937_64 rng(99);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    uint32_t first =
        artifacts.InsertBatch(test::RandomPoints<2>(kBatch, rng()));
    // Query so the dense gid map actually materializes each epoch.
    EngineResponse r;
    ASSERT_TRUE(artifacts.Answer(req, /*allow_build=*/true, &r));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(artifacts.dense_map_size(), artifacts.num_points());
    // Delete most of the batch, keeping a small resident remainder.
    std::vector<uint32_t> doomed;
    for (uint32_t g = first; g < first + kBatch - 10; ++g) {
      doomed.push_back(g);
    }
    EXPECT_EQ(artifacts.DeleteBatch(doomed), doomed.size());
    // The locator holds exactly the live gids — deleted history leaves no
    // residue, however many gids have been burned through.
    EXPECT_EQ(artifacts.forest().locator_size(), artifacts.num_points());
    EXPECT_EQ(artifacts.num_points(), size_t{10} * (epoch + 1));
  }
  // 50 epochs burned ~10k gids; live structures stay at the ~500 live
  // points (the old dense-array scheme would have grown 20x larger).
  EXPECT_EQ(artifacts.forest().next_gid(), kBatch * kEpochs);
  EXPECT_EQ(artifacts.forest().locator_size(), size_t{10} * kEpochs);
  EngineResponse r;
  ASSERT_TRUE(artifacts.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(artifacts.dense_map_size(), size_t{10} * kEpochs);
  EXPECT_EQ(r.point_ids->size(), size_t{10} * kEpochs);
  EXPECT_TRUE(std::is_sorted(r.point_ids->begin(), r.point_ids->end()));
}

// --- Randomized oracle: exactness after every insert/delete batch --------

/// Mirror of the forest contents by gid, for from-scratch rebuilds.
template <int D>
struct Mirror {
  std::vector<Point<D>> pts;  // indexed by gid
  std::vector<bool> live;

  void Insert(const std::vector<Point<D>>& batch) {
    for (const auto& p : batch) {
      pts.push_back(p);
      live.push_back(true);
    }
  }
  std::vector<Point<D>> LivePoints() const {
    std::vector<Point<D>> out;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (live[i]) out.push_back(pts[i]);
    }
    return out;
  }
};

/// Asserts the shard-forest EMST bit-matches a from-scratch MemoGFK build
/// over the live points in gid order (same dense id space).
template <int D>
void ExpectEmstMatchesScratch(DynamicArtifacts<D>& dyn,
                              const Mirror<D>& mirror) {
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<Point<D>> live = mirror.LivePoints();
  std::vector<WeightedEdge> scratch = EmstMemoGfk(live);
  ASSERT_EQ(r.mst->size(), scratch.size());
  EXPECT_EQ(Sorted(*r.mst), Sorted(scratch));
  EXPECT_EQ(r.mst_weight, test::TotalWeight(scratch));
  ASSERT_NE(r.point_ids, nullptr);
  EXPECT_EQ(r.point_ids->size(), live.size());
}

/// Asserts the shard-forest HDBSCAN* pipeline is exact against a
/// from-scratch Hdbscan over the live points in gid order: core distances
/// bit-match, the MR-MST weight multiset and total weight bit-match, and
/// the dendrograms induce identical flat clusterings at every tested cut.
/// (Edge *identity* is not compared: mutual-reachability weights tie
/// whenever two edges share their max core distance, and under ties the
/// from-scratch MemoGFK baseline itself materializes one BCCP* per WSP —
/// not necessarily the id-order-minimal tied edge — so two exact MSTs can
/// legitimately differ in which tied edges they carry. All MSTs of a graph
/// share the weight multiset and the same connectivity at every threshold,
/// which is what these assertions pin down.)
template <int D>
void ExpectHdbscanMatchesScratch(DynamicArtifacts<D>& dyn,
                                 const Mirror<D>& mirror, int min_pts) {
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = min_pts;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<Point<D>> live = mirror.LivePoints();
  HdbscanResult direct = Hdbscan(live, min_pts);
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ((*r.core_dist)[i], direct.core_dist[i]) << "point " << i;
  }
  ASSERT_EQ(r.mst->size(), direct.mst.size());
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(direct.mst));
  EXPECT_EQ(r.mst_weight, test::TotalWeight(Sorted(direct.mst)));
  double root_h = direct.dendrogram.Height(direct.dendrogram.root());
  for (double frac : {0.02, 0.1, 0.4}) {
    EXPECT_EQ(NormalizedLabels(DbscanStarLabels(*r.dendrogram, *r.core_dist,
                                                root_h * frac)),
              NormalizedLabels(direct.ClustersAt(root_h * frac)))
        << "frac=" << frac;
  }
}

TEST(DynamicOracle, EmstExactAfterEveryInsertAndDeleteBatch) {
  std::mt19937_64 rng(17);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;

  auto base = test::RandomPoints<2>(700, 31);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);

  for (int round = 0; round < 6; ++round) {
    if (round % 3 == 2) {
      // Delete a random live batch.
      std::vector<uint32_t> victims;
      for (uint32_t gid = 0; gid < mirror.pts.size(); ++gid) {
        if (mirror.live[gid] && rng() % 10 == 0) victims.push_back(gid);
      }
      ASSERT_EQ(dyn.DeleteBatch(victims), victims.size());
      for (uint32_t gid : victims) mirror.live[gid] = false;
    } else {
      auto batch =
          test::RandomPoints<2>(60 + round * 13, 100 + round);
      mirror.Insert(batch);
      dyn.InsertBatch(batch);
    }
    ExpectEmstMatchesScratch(dyn, mirror);
  }
}

TEST(DynamicOracle, HdbscanExactAfterEveryInsertAndDeleteBatch) {
  std::mt19937_64 rng(23);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;

  auto base = SeedSpreaderVarden<2>(600, 41, 3);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectHdbscanMatchesScratch(dyn, mirror, 8);

  for (int round = 0; round < 4; ++round) {
    if (round == 2) {
      std::vector<uint32_t> victims;
      for (uint32_t gid = 0; gid < mirror.pts.size(); ++gid) {
        if (mirror.live[gid] && rng() % 8 == 0) victims.push_back(gid);
      }
      ASSERT_EQ(dyn.DeleteBatch(victims), victims.size());
      for (uint32_t gid : victims) mirror.live[gid] = false;
    } else {
      auto batch = SeedSpreaderVarden<2>(90, 200 + round, 2);
      mirror.Insert(batch);
      dyn.InsertBatch(batch);
    }
    ExpectHdbscanMatchesScratch(dyn, mirror, 8);
    // A second minPts exercises the kNN prefix reuse (m < K) path.
    ExpectHdbscanMatchesScratch(dyn, mirror, 4);
  }
}

TEST(DynamicOracle, HigherDimensionalForest) {
  DynamicArtifacts<3> dyn;
  Mirror<3> mirror;
  for (int b = 0; b < 4; ++b) {
    auto batch = test::RandomPoints<3>(120, 300 + b);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  ExpectEmstMatchesScratch(dyn, mirror);
  ExpectHdbscanMatchesScratch(dyn, mirror, 6);
}

// Embedding dimension: every shard takes the dense part-MST kernel, so the
// cross BCCP* pass reads only the core distances ForestMrMst annotates
// (two minPts per epoch catch an annotation left from the other one).
TEST(DynamicOracle, EmbeddingDimensionForest) {
  static_assert(PartMstKernel(600, 64) == PartKernel::kDense);
  std::mt19937_64 rng(29);
  DynamicArtifacts<64> dyn;
  Mirror<64> mirror;
  auto base = GaussianEmbeddings<64>(400, 61);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);
  ExpectHdbscanMatchesScratch(dyn, mirror, 8);
  for (int round = 0; round < 4; ++round) {
    if (round == 1 || round == 3) {
      // A few deletes (seeded repair) then a tenth (dense rebuild).
      std::vector<uint32_t> victims;
      for (uint32_t gid = 0; gid < mirror.pts.size(); ++gid) {
        if (mirror.live[gid] && rng() % (round == 1 ? 150 : 10) == 0) {
          victims.push_back(gid);
        }
      }
      ASSERT_EQ(dyn.DeleteBatch(victims), victims.size());
      for (uint32_t gid : victims) mirror.live[gid] = false;
    } else {
      auto batch = GaussianEmbeddings<64>(70 + 30 * round, 62 + round);
      mirror.Insert(batch);
      dyn.InsertBatch(batch);
    }
    ASSERT_GT(dyn.num_shards(), size_t{1});
    ExpectEmstMatchesScratch(dyn, mirror);
    ExpectHdbscanMatchesScratch(dyn, mirror, 8);
    ExpectHdbscanMatchesScratch(dyn, mirror, 4);
  }
}

// --- Duplicates arriving across batches (zero-weight cross edges) --------

TEST(DynamicDuplicates, SplitAcrossBatchesEmstWeightMatches) {
  // Heavy duplication (~n/4 distinct locations) split over several batches,
  // so identical points land in different shards and must be connected by
  // zero-weight cross edges from the cross BCCP pass.
  auto pts = test::DuplicatedPoints<2>(400, 77);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  for (size_t off = 0; off < pts.size(); off += 100) {
    std::vector<Point<2>> batch(pts.begin() + off, pts.begin() + off + 100);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  // Zero-weight edge *identity* depends on the shard partition (any
  // spanning set of a duplicate group is exchangeable), so compare the
  // weight multiset, not edge ids.
  std::vector<WeightedEdge> scratch = EmstMemoGfk(mirror.LivePoints());
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(scratch));
  double prim = test::PrimEmstWeight(mirror.LivePoints());
  EXPECT_NEAR(r.mst_weight, prim, 1e-9 * (1 + prim));
}

TEST(DynamicDuplicates, SplitAcrossBatchesHdbscanMatches) {
  auto pts = test::DuplicatedPoints<2>(300, 99);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  for (size_t off = 0; off < pts.size(); off += 75) {
    std::vector<Point<2>> batch(pts.begin() + off, pts.begin() + off + 75);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = 5;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  std::vector<Point<2>> live = mirror.LivePoints();
  HdbscanResult direct = Hdbscan(live, 5);
  for (size_t i = 0; i < live.size(); ++i) {
    ASSERT_EQ((*r.core_dist)[i], direct.core_dist[i]) << "point " << i;
  }
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(direct.mst));
  double prim = test::PrimMutualReachabilityWeight(live, 5);
  EXPECT_NEAR(r.mst_weight, prim, 1e-9 * (1 + prim));
}

// --- Delete repair: shard EMSTs rebuilt from their surviving edges -------

/// Forest EMST answer (dense endpoints; point_ids maps dense -> gid).
template <int D>
EngineResponse EmstAnswer(DynamicArtifacts<D>& dyn) {
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse r;
  EXPECT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  EXPECT_TRUE(r.ok) << r.error;
  return r;
}

/// Gids of the highest-degree and of one degree-1 vertex of an EMST answer.
std::pair<uint32_t, uint32_t> HubAndLeaf(const EngineResponse& r) {
  std::vector<uint32_t> degree(r.point_ids->size(), 0);
  for (const WeightedEdge& e : *r.mst) {
    ++degree[e.u];
    ++degree[e.v];
  }
  size_t hub = std::max_element(degree.begin(), degree.end()) - degree.begin();
  size_t leaf = std::find(degree.begin(), degree.end(), 1u) - degree.begin();
  return {(*r.point_ids)[hub], (*r.point_ids)[leaf]};
}

template <int D>
void DeleteBoth(DynamicArtifacts<D>& dyn, Mirror<D>& mirror,
                const std::vector<uint32_t>& gids) {
  ASSERT_EQ(dyn.DeleteBatch(gids), gids.size());
  for (uint32_t gid : gids) mirror.live[gid] = false;
}

TEST(DynamicRepair, HubThenLeafDelete) {
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = test::RandomPoints<2>(900, 71);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);

  // The hub splits the old tree into the most components; a leaf into one
  // component plus a vanished singleton.
  uint32_t hub = HubAndLeaf(EmstAnswer(dyn)).first;
  DeleteBoth(dyn, mirror, {hub});
  ExpectEmstMatchesScratch(dyn, mirror);
  uint32_t leaf = HubAndLeaf(EmstAnswer(dyn)).second;
  DeleteBoth(dyn, mirror, {leaf});
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicRepair, SeedCarriesAcrossDeleteBatches) {
  std::mt19937_64 rng(29);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = SeedSpreaderVarden<2>(1200, 73, 4);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);
  // Several tombstone batches, no EMST in between: the seed must shed the
  // edges of every batch's victims before the one repair.
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<uint32_t> victims;
    for (int k = 0; k < 5; ++k) {
      uint32_t gid = static_cast<uint32_t>(rng() % base.size());
      if (mirror.live[gid] &&
          std::find(victims.begin(), victims.end(), gid) == victims.end()) {
        victims.push_back(gid);
      }
    }
    DeleteBoth(dyn, mirror, victims);
  }
  ASSERT_EQ(dyn.num_shards(), size_t{1});
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicRepair, CompactionHandsSeedToSurvivorShard) {
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = test::RandomPoints<2>(400, 79);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ExpectEmstMatchesScratch(dyn, mirror);
  // 60 tombstones stay under the compaction threshold; 50 more push the
  // shard past it, so its survivors move to a fresh shard with the seed.
  std::vector<uint32_t> first, second;
  for (uint32_t g = 0; g < 60; ++g) first.push_back(g * 3);
  for (uint32_t g = 0; g < 50; ++g) second.push_back(g * 3 + 1);
  DeleteBoth(dyn, mirror, first);
  ASSERT_EQ(dyn.num_tombstones(), size_t{60});
  DeleteBoth(dyn, mirror, second);
  ASSERT_EQ(dyn.num_shards(), size_t{1});
  ASSERT_EQ(dyn.num_tombstones(), size_t{0}) << "shard was not compacted";
  // Without the handed-over seed the new shard would run the same
  // from-scratch MemoGFK and materialize exactly as many pairs.
  StatsEpoch repair;
  EmstAnswer(dyn);
  uint64_t repair_pairs = repair.Delta().wspd_pairs_materialized;
  StatsEpoch scratch;
  EmstMemoGfk(mirror.LivePoints());
  EXPECT_LT(repair_pairs, scratch.Delta().wspd_pairs_materialized);
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicRepair, DeleteOneCopyOfCrossBatchDuplicateGroup) {
  auto pts = test::DuplicatedPoints<2>(400, 83);
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  for (size_t off = 0; off < pts.size(); off += 100) {
    std::vector<Point<2>> batch(pts.begin() + off, pts.begin() + off + 100);
    mirror.Insert(batch);
    dyn.InsertBatch(batch);
  }
  EmstAnswer(dyn);
  // One copy from each of a few groups that span two batches.
  std::vector<uint32_t> victims;
  for (uint32_t g = 0; g < 100 && victims.size() < 4; ++g) {
    for (uint32_t h = 100; h < pts.size(); ++h) {
      if (pts[h][0] == pts[g][0] && pts[h][1] == pts[g][1]) {
        victims.push_back(g);
        break;
      }
    }
  }
  ASSERT_EQ(victims.size(), size_t{4});
  DeleteBoth(dyn, mirror, victims);
  // Zero-weight edges within a group are exchangeable (see
  // DynamicDuplicates): compare the weight multiset.
  EngineResponse r = EmstAnswer(dyn);
  std::vector<WeightedEdge> scratch = EmstMemoGfk(mirror.LivePoints());
  EXPECT_EQ(SortedWeights(*r.mst), SortedWeights(scratch));
  double prim = test::PrimEmstWeight(mirror.LivePoints());
  EXPECT_NEAR(r.mst_weight, prim, 1e-9 * (1 + prim));
}

TEST(DynamicRepair, SnapshotBetweenDeleteAndEmst) {
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = test::RandomPoints<2>(600, 89);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  auto batch = test::RandomPoints<2>(70, 90);
  mirror.Insert(batch);
  dyn.InsertBatch(batch);
  ExpectEmstMatchesScratch(dyn, mirror);
  DeleteBoth(dyn, mirror, {3, 250, 611});

  // The seed is not persisted: the reloaded shards rebuild from scratch.
  namespace fs = std::filesystem;
  fs::path dir = fs::path(::testing::TempDir()) / "parhc_dynamic_repair_";
  dir += std::to_string(::getpid());
  fs::remove_all(dir);
  dyn.SaveTo(dir.string());
  DynamicArtifacts<2> loaded;
  loaded.LoadFrom(dir.string());
  fs::remove_all(dir);
  ExpectEmstMatchesScratch(loaded, mirror);
  // The saved forest still repairs from its own seed.
  ExpectEmstMatchesScratch(dyn, mirror);
  // The loaded forest repairs its next delete like any other.
  ASSERT_EQ(loaded.DeleteBatch({400}), size_t{1});
  DeleteBoth(dyn, mirror, {400});
  ExpectEmstMatchesScratch(loaded, mirror);
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicRepair, SimdDimensionForest) {
  static_assert(8 >= kSimdMinDim, "forest must run the dispatched kernels");
  DynamicArtifacts<8> dyn;
  Mirror<8> mirror;
  auto base = test::RandomPoints<8>(700, 97);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  auto batch = test::RandomPoints<8>(90, 98);
  mirror.Insert(batch);
  dyn.InsertBatch(batch);
  ExpectEmstMatchesScratch(dyn, mirror);
  uint32_t hub = HubAndLeaf(EmstAnswer(dyn)).first;
  std::vector<uint32_t> victims = {hub};
  for (uint32_t gid : {5u, 701u}) {  // one more per shard
    if (gid != hub) victims.push_back(gid);
  }
  DeleteBoth(dyn, mirror, victims);
  ExpectEmstMatchesScratch(dyn, mirror);
}

TEST(DynamicRepair, RepairMaterializesFarFewerPairsThanScratch) {
  DynamicArtifacts<2> dyn;
  Mirror<2> mirror;
  auto base = SeedSpreaderVarden<2>(4000, 101, 5);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  EmstAnswer(dyn);
  DeleteBoth(dyn, mirror, {17, 1234, 3210});

  StatsEpoch repair;
  EmstAnswer(dyn);
  uint64_t repair_pairs = repair.Delta().wspd_pairs_materialized;
  StatsEpoch scratch;
  EmstMemoGfk(mirror.LivePoints());
  uint64_t scratch_pairs = scratch.Delta().wspd_pairs_materialized;
  EXPECT_LT(repair_pairs * 10, scratch_pairs)
      << "repair " << repair_pairs << " vs scratch " << scratch_pairs;
  ExpectEmstMatchesScratch(dyn, mirror);
}

// The dense kernel is a fast path: with one shard there is no cross pass,
// so an HDBSCAN* answer computes no BCCP at all — it would compute
// thousands if the selector sent 64-d parts to the kd-tree kernel.
TEST(DynamicOracle, EmbeddingShardMstsComputeNoBccp) {
  DynamicArtifacts<64> dyn;
  Mirror<64> mirror;
  auto base = GaussianEmbeddings<64>(600, 71);
  mirror.Insert(base);
  dyn.InsertBatch(base);
  ASSERT_EQ(dyn.num_shards(), size_t{1});
  StatsEpoch epoch;
  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.min_pts = 8;
  EngineResponse r;
  ASSERT_TRUE(dyn.Answer(req, /*allow_build=*/true, &r));
  ASSERT_TRUE(r.ok) << r.error;
  EmstAnswer(dyn);
  EXPECT_EQ(epoch.Delta().bccp_computed, 0u);
  EXPECT_EQ(epoch.Delta().wspd_pairs_visited, 0u);
  ExpectHdbscanMatchesScratch(dyn, mirror, 8);
}

// --- Engine integration: shard-aware invalidation ------------------------

bool HasKeyWithPrefix(const std::vector<std::string>& keys,
                      const std::string& prefix) {
  return std::any_of(keys.begin(), keys.end(), [&](const std::string& k) {
    return k.rfind(prefix, 0) == 0;
  });
}

TEST(DynamicEngine, InsertDirtiesOnlyCrossAndDownstreamArtifacts) {
  ClusteringEngine engine;
  engine.registry().AddDynamic("d", 2);
  auto base = test::RandomPoints<2>(900, 51);
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(base)), "");

  EngineRequest req;
  req.type = QueryType::kEmst;
  req.dataset = "d";
  EngineResponse warm = engine.Run(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(HasKeyWithPrefix(warm.built, "semst@"));
  EXPECT_TRUE(HasKeyWithPrefix(warm.built, "forest-emst"));

  // Identical query: pure cache hit.
  EngineResponse hit = engine.Run(req);
  ASSERT_TRUE(hit.ok);
  EXPECT_TRUE(hit.built.empty()) << "second query rebuilt artifacts";
  EXPECT_EQ(hit.mst.get(), warm.mst.get());

  // A small insert must reuse the surviving shard's EMST (shard tier),
  // building only the new shard's artifacts, the cross edges, and the
  // global Kruskal.
  auto batch = test::RandomPoints<2>(50, 52);
  uint32_t first = 0;
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(batch), &first), "");
  EXPECT_EQ(first, 900u);
  EngineResponse after = engine.Run(req);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_TRUE(HasKeyWithPrefix(after.reused, "semst@"))
      << "surviving shard EMST was rebuilt";
  EXPECT_TRUE(HasKeyWithPrefix(after.built, "semst@"));
  EXPECT_TRUE(HasKeyWithPrefix(after.built, "xemst@"));
  EXPECT_TRUE(HasKeyWithPrefix(after.built, "forest-emst"));

  // A further insert that leaves the first two shards untouched must reuse
  // their cached *cross* edges too (regression: the cross cache was once
  // keyed by dangling minmax references, so it never hit).
  auto tiny = test::RandomPoints<2>(9, 53);
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(tiny)), "");
  EngineResponse third = engine.Run(req);
  ASSERT_TRUE(third.ok) << third.error;
  EXPECT_TRUE(HasKeyWithPrefix(third.reused, "xemst@"))
      << "surviving shard-pair cross edges were recomputed";

  // Registry surfaces the dynamic backend.
  auto infos = engine.registry().List();
  ASSERT_EQ(infos.size(), size_t{1});
  EXPECT_TRUE(infos[0].dynamic);
  EXPECT_EQ(infos[0].num_points, size_t{959});
  EXPECT_GE(infos[0].num_shards, size_t{1});
}

TEST(DynamicEngine, DeleteAndPointIdsStayConsistent) {
  ClusteringEngine engine;
  engine.registry().AddDynamic("d", 2);
  auto base = SeedSpreaderVarden<2>(500, 61, 3);
  ASSERT_EQ(engine.InsertBatch("d", RowsFrom(base)), "");

  size_t deleted = 0;
  ASSERT_EQ(engine.DeleteBatch("d", {5, 6, 7, 99999}, &deleted), "");
  EXPECT_EQ(deleted, size_t{3});

  EngineRequest req;
  req.type = QueryType::kHdbscan;
  req.dataset = "d";
  req.min_pts = 6;
  EngineResponse r = engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_NE(r.point_ids, nullptr);
  EXPECT_EQ(r.point_ids->size(), size_t{497});
  EXPECT_TRUE(std::is_sorted(r.point_ids->begin(), r.point_ids->end()));
  EXPECT_EQ(std::count(r.point_ids->begin(), r.point_ids->end(), 6u), 0);
  EXPECT_EQ(r.mst->size(), size_t{496});

  // Mutating an immutable dataset fails cleanly.
  engine.registry().Add("static", test::RandomPoints<2>(50, 1));
  EXPECT_NE(engine.InsertBatch("static", RowsFrom(base)), "");
  EXPECT_NE(engine.DeleteBatch("static", {1}), "");

  // Dimension mismatch and empty-dataset queries fail cleanly.
  EXPECT_NE(engine.InsertBatch("d", {{1.0, 2.0, 3.0}}), "");
  engine.registry().AddDynamic("empty", 2);
  req.dataset = "empty";
  EngineResponse empty = engine.Run(req);
  EXPECT_FALSE(empty.ok);
}

}  // namespace
}  // namespace parhc
