// The one entry point that builds the exact MST of one part.
//
// The distance decomposition (Lettich, arXiv:2406.01739) needs an exact
// MST of every part but does not care how it was built, so each part gets
// whichever kernel PartMstKernel (emst/dense_mst.h) measured cheapest for
// its size and dimension. Callers: the shard forest (Shard::EmstEdges,
// DynamicArtifacts::ForestMrMst), the HighDimEmst partitions, the static
// engine builds and the router worker's engine_export::MrMst. The public
// Emst(pts, algo) and HdbscanMst(..., variant) keep running the paper
// algorithm they name.
#pragma once

#include <vector>

#include "emst/dense_mst.h"
#include "emst/emst_memogfk.h"
#include "hdbscan/hdbscan_mst.h"

namespace parhc {

/// Exact MST of `pts`: Euclidean when `core` is null, mutual reachability
/// under `core` (indexed like `pts`) otherwise. Endpoints are indices into
/// `pts`. `tree()` must return a unit-leaf kd-tree over `pts` (point ids
/// index `pts`); it is called only when the kd-tree kernel is selected,
/// which then rewrites the tree's component (and, for MR, core-distance)
/// annotations.
template <int D, typename TreeFn>
std::vector<WeightedEdge> PartMst(const std::vector<Point<D>>& pts,
                                  const std::vector<double>* core,
                                  TreeFn&& tree) {
  if (PartMstKernel(pts.size(), D) == PartKernel::kDense) {
    return DenseMst(pts.data(), pts.size(),
                    core != nullptr ? core->data() : nullptr);
  }
  if (pts.size() < 2) return {};
  if (core != nullptr) return HdbscanMstOnTree(tree(), *core);
  return EmstMemoGfkOnTree(tree());
}

}  // namespace parhc
