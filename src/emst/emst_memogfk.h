// EMST-MemoGFK (paper Algorithm 3): GeoFilterKruskal with the memory
// optimization — the paper's fastest EMST method.
#pragma once

#include <optional>
#include <vector>

#include "emst/duplicates.h"
#include "emst/memogfk_driver.h"

namespace parhc {

/// MemoGFK over a prebuilt tree (leaf_size must be 1). Mutates the tree's
/// component annotations; concurrent callers must serialize on the tree.
/// Used by the clustering engine to reuse one cached tree across queries.
///
/// `known_edges` (tree point ids) are edges already known to lie in the
/// MST of the tree's points; the batch-dynamic shards pass the surviving
/// edges of their previous EMST after a delete. They are unioned before
/// the first round, so the round loop's same-component prune confines
/// every traversal to the cut between the components they leave.
/// Exactness: every edge of MST(P) with both endpoints in
/// P \ S is an edge of MST(P \ S) under the strict (w, min id, max id)
/// order. Such an edge is the minimum across some cut of P; restricted to
/// P \ S the cut still separates its endpoints and is crossed by a subset
/// of the old edges, so the edge stays the minimum (deleting vertices only
/// removes cycles). Zero-weight edges between identical points are
/// exchangeable, so for duplicates only the weights are pinned.
template <int D>
std::vector<WeightedEdge> EmstMemoGfkOnTree(
    KdTree<D>& tree, PhaseBreakdown* phases = nullptr,
    const MemoGfkOptions& opts = {},
    const std::vector<WeightedEdge>& known_edges = {}) {
  GeometricSeparation<D> sep{2.0};
  auto lb = [&tree](uint32_t a, uint32_t b) {
    return std::sqrt(tree.NodeBox(a).MinSquaredDistance(tree.NodeBox(b)));
  };
  auto ub = [&tree](uint32_t a, uint32_t b) {
    return std::sqrt(tree.NodeBox(a).MaxSquaredDistance(tree.NodeBox(b)));
  };
  auto bccp = [&tree](uint32_t a, uint32_t b) { return Bccp(tree, a, b); };
  return internal::MemoGfkMst(
      tree, sep, lb, ub, bccp,
      internal::DuplicateLeafEdges(tree, /*use_core_dist=*/false), phases, opts,
      known_edges);
}

/// Computes the Euclidean MST with MemoGFK. O(n^2) work, O(log^2 n) depth,
/// and only the per-round window of WSPD pairs is ever materialized.
template <int D>
std::vector<WeightedEdge> EmstMemoGfk(const std::vector<Point<D>>& pts,
                                      PhaseBreakdown* phases = nullptr,
                                      const MemoGfkOptions& opts = {}) {
  Timer total;
  std::optional<KdTree<D>> tree;
  {
    PhaseTimer phase(phases, &PhaseBreakdown::build_tree, "phase:build_tree");
    tree.emplace(pts, /*leaf_size=*/1);
  }
  std::vector<WeightedEdge> mst = EmstMemoGfkOnTree(*tree, phases, opts);
  if (phases) phases->total += total.Seconds();
  return mst;
}

}  // namespace parhc
