// Partial-artifact export helpers behind the worker-side frame verbs
// (net/protocol.cc: kOpExportPoints / kOpKnnQuery / kOpShardMrMst) that
// the router tier (src/cluster/) fans out to.
//
// Exactness contracts (what makes the router's merged answers
// bit-identical to a single-node engine):
//  * KnnRows returns *squared* distances — the same values every backend's
//    kNN heap accumulates — so the router can merge per-worker rows (the k
//    smallest of a union is the merge of the parts' k smallest) and take
//    sqrt once, exactly like CoreDist does locally.
//  * MrMst runs the same PartMst entry point the single-node HDBSCAN*
//    paths run, under externally supplied *global* core distances; by the
//    distance-decomposition rule the union of per-part MR-MSTs plus
//    cross-part BCCP* edges contains the MR-MST of the union.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "emst/part_mst.h"
#include "graph/edge.h"
#include "parallel/scheduler.h"
#include "spatial/knn.h"

namespace parhc {
namespace engine_export {

template <int D>
void FlattenInto(const std::vector<Point<D>>& pts,
                 std::vector<double>* out) {
  out->resize(pts.size() * static_cast<size_t>(D));
  for (size_t i = 0; i < pts.size(); ++i) {
    for (int d = 0; d < D; ++d) {
      (*out)[i * static_cast<size_t>(D) + d] = pts[i][d];
    }
  }
}

template <int D>
std::vector<Point<D>> UnflattenRows(const std::vector<double>& coords,
                                    size_t count) {
  std::vector<Point<D>> pts(count);
  for (size_t i = 0; i < count; ++i) {
    for (int d = 0; d < D; ++d) {
      pts[i][d] = coords[i * static_cast<size_t>(D) + d];
    }
  }
  return pts;
}

/// kNN rows of `queries` against `data`: row i holds the sorted squared
/// distances from queries[i] to its k nearest data points (self included
/// when the query is in the data), +inf-padded past data.size(). Issues
/// parallel work — run inside a worker group (engine build executor).
template <int D>
std::vector<double> KnnRows(const std::vector<Point<D>>& data,
                            const std::vector<Point<D>>& queries, size_t k) {
  std::vector<double> rows(queries.size() * k,
                           std::numeric_limits<double>::infinity());
  if (data.empty() || queries.empty()) return rows;
  KdTree<D> tree(data, /*leaf_size=*/1);
  size_t cap = std::min(k, data.size());
  std::vector<std::vector<std::pair<double, uint32_t>>> scratch(NumWorkers());
  ParallelFor(0, queries.size(), [&](size_t i) {
    auto& buf = scratch[Scheduler::Get().MyId()];
    if (buf.size() < cap) buf.resize(cap);
    internal::KnnHeap heap(cap, buf.data());
    internal::KnnQueryInto(tree, queries[i], heap);
    std::sort(buf.data(), buf.data() + heap.size());
    double* row = rows.data() + i * k;
    for (size_t t = 0; t < heap.size(); ++t) row[t] = buf[t].first;
  });
  return rows;
}

/// MR-MST of one immutable point set under externally supplied core
/// distances (indexed like `pts`). Endpoints are point indices. Issues
/// parallel work — run inside a worker group.
template <int D>
std::vector<WeightedEdge> MrMst(const std::vector<Point<D>>& pts,
                                const std::vector<double>& core) {
  std::optional<KdTree<D>> tree;
  return PartMst(pts, &core, [&]() -> KdTree<D>& {
    return tree.emplace(pts, /*leaf_size=*/1);
  });
}

}  // namespace engine_export
}  // namespace parhc
