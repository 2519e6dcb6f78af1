// Dense exact MST kernel for one part, and the selector that picks between
// it and the kd-tree (MemoGFK) kernel by measured cost.
//
// MemoGFK's work bound rests on WSPD pruning, and at embedding dimensions
// that pruning is gone: node boxes of 64-d points overlap almost always,
// so the dual traversals visit most node pairs and every BCCP scans most
// point pairs (perfbench embed-64d reads ~105 BCCPs per MST edge, against
// 3.3 on 2-D varden). A Prim over the part's contiguous point block does
// the same O(n^2 d) distance work with no tree, no traversal and no
// per-pair bookkeeping, so below a dimension-dependent n it is several
// times cheaper (the Prim-like dense scan genieclust uses above ~5
// features; Prokopenko et al., arXiv:2207.00514, make the same trade on
// GPUs).
//
// Exactness. Each step adds the minimum edge crossing the cut (tree, rest)
// under the strict WeightedEdge order (w, min id, max id), so the result is
// the unique MST under that order — the edge set an exhaustive Kruskal
// returns. Distances come from the dispatched BatchSquaredDistances tiles,
// bit-identical to the pairwise kernel the BCCP leaf scans use, so the
// Euclidean form matches MemoGFK edge-for-edge on inputs without duplicate
// points (with duplicates, zero-weight edges are exchangeable and MemoGFK
// pins only the weights). The mutual-reachability form weighs an edge
// max(cd_u, cd_v, d(u, v)), exactly like BCCP*.
//
// Cost. O(n^2 d) work; O(n) extra memory (a working copy of the block and
// three per-point arrays), never an n x n matrix. Small parts scan
// sequentially; larger ones split every step's scan into per-worker blocks
// whose local minima are reduced in block order (the order is a strict
// total order, so the result does not depend on the split).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "geometry/distance.h"
#include "graph/edge.h"
#include "obs/trace.h"
#include "parallel/scheduler.h"

namespace parhc {

/// The exact per-part MST kernels the selector chooses between.
enum class PartKernel {
  kKdTree,  ///< MemoGFK (Euclidean) / HDBSCAN*-MemoGFK (MR) on a kd-tree
  kDense,   ///< DenseMst: Prim over the contiguous point block
};

namespace internal {

/// Largest part size at which DenseMst beat MemoGFK, per dimension.
/// Fitted from the bench_highdim_emst `PartKernel/...` rows (dense vs
/// kd-tree kernel on the same part, Euclidean and mutual reachability,
/// GaussianEmbeddings / SS-varden inputs, 4 workers): each entry is the
/// largest swept n at which both forms ran faster dense. A dimension
/// between rows uses the row below it, the conservative side.
struct DenseCrossover {
  int dim;
  size_t max_n;
};
inline constexpr DenseCrossover kDenseCrossover[] = {
    // d:2 — dense won only at n:256 (2.3x) and n:512 (1.4x), on parts
    // under 1.5 ms, and lost from n:1024 (0.84x; 0.46x at n:2048). That
    // margin is host-dependent (MemoGFK won at n = 500 on another host),
    // so d < 8 keeps the paper's kd-tree path.
    {2, 0},
    // d:8 — dense 2.3x / MR 1.13x at n:4096, 0.75x / 0.95x at n:8192.
    {8, 4096},
    // d:16 and d:64 — dense won at every swept n up to n:16384 (d:16
    // 5.1x / 3.9x, d:64 16.7x / 16.9x there); above the sweep the
    // kd-tree kernel stays, the unmeasured side.
    {16, 16384},
    {64, 16384},
};

/// Per-step scan work below which DenseMst scans sequentially, in units of
/// rows x (D + 48): a row costs its D-wide distance plus a fixed ~48
/// dimensions' worth of relax/compare work. A fork-join per Prim step
/// paid off from ~512 remaining rows at D = 64 and ~1024 at D = 8
/// (sequential vs 4-worker DenseMst on GaussianEmbeddings, same host as
/// the crossover rows); below that it cost more than it saved.
inline constexpr size_t kDenseRowOverhead = 48;
inline constexpr size_t kDenseParallelWork = 512 * (64 + kDenseRowOverhead);

}  // namespace internal

/// The kernel that builds the MST of one part of `n` points in `dim`
/// dimensions most cheaply. A constant table, not a knob: both kernels are
/// exact, so the choice moves only the cost.
constexpr PartKernel PartMstKernel(size_t n, int dim) {
  size_t max_n = 0;
  for (const internal::DenseCrossover& row : internal::kDenseCrossover) {
    if (row.dim <= dim) max_n = row.max_n;
  }
  return n <= max_n ? PartKernel::kDense : PartKernel::kKdTree;
}

/// Exact MST of the complete graph over pts[0, n): Euclidean when `core`
/// is null, mutual reachability max(core[u], core[v], d(u, v)) otherwise.
/// Endpoints are indices into `pts`; ties break by index, so callers whose
/// index order agrees with their id order get that id order's MST. Emits a
/// `phase:dense_mst` span.
template <int D>
std::vector<WeightedEdge> DenseMst(const Point<D>* pts, size_t n,
                                   const double* core = nullptr) {
  obs::Span span("phase:dense_mst", "algo");
  std::vector<WeightedEdge> out;
  if (n < 2) return out;
  out.reserve(n - 1);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // Rows [0, m) are the points not yet in the tree, kept contiguous by
  // swap-removal so every step scans one packed block.
  size_t m = n - 1;
  std::vector<Point<D>> rows(pts + 1, pts + n);
  std::vector<uint32_t> id(m);
  std::vector<double> cd(core != nullptr ? m : 0);
  std::vector<double> best(m, kInf);
  std::vector<uint32_t> from(m, 0);
  for (size_t j = 0; j < m; ++j) {
    id[j] = static_cast<uint32_t>(j + 1);
    if (core != nullptr) cd[j] = core[j + 1];
  }
  // Key of row j's best edge under the WeightedEdge order.
  auto less = [&](size_t a, size_t b) {
    if (best[a] != best[b]) return best[a] < best[b];
    return std::minmax(from[a], id[a]) < std::minmax(from[b], id[b]);
  };
  // Relaxes rows [lo, hi) against the newest tree point `q` and returns
  // the row with the smallest key. For a fixed row, an edge (q, j) beats
  // (f, j) at equal weight iff q < f, so only the other endpoint compares.
  auto scan = [&](const Point<D>& q, uint32_t qid, double qcd, size_t lo,
                  size_t hi) {
    double sq[kDistanceBatch];
    size_t arg = lo;
    for (size_t j0 = lo; j0 < hi; j0 += kDistanceBatch) {
      size_t cnt = std::min(kDistanceBatch, hi - j0);
      BatchSquaredDistances(q, rows.data() + j0, cnt, sq);
      for (size_t c = 0; c < cnt; ++c) {
        size_t j = j0 + c;
        double w = std::sqrt(sq[c]);
        if (core != nullptr) w = std::max({w, qcd, cd[j]});
        if (w < best[j] || (w == best[j] && qid < from[j])) {
          best[j] = w;
          from[j] = qid;
        }
        if (less(j, arg)) arg = j;
      }
    }
    return arg;
  };
  Point<D> q = pts[0];
  uint32_t qid = 0;
  double qcd = core != nullptr ? core[0] : 0.0;
  std::vector<size_t> block_arg;
  while (m > 0) {
    size_t arg;
    const size_t work = m * (D + internal::kDenseRowOverhead);
    const size_t blocks =
        work < internal::kDenseParallelWork
            ? 1
            : std::min<size_t>(NumWorkers(),
                               work / internal::kDenseParallelWork + 1);
    if (blocks == 1) {
      arg = scan(q, qid, qcd, 0, m);
    } else {
      block_arg.resize(blocks);
      const size_t step = (m + blocks - 1) / blocks;
      ParallelFor(
          0, blocks,
          [&](size_t b) {
            size_t lo = std::min(m, b * step), hi = std::min(m, lo + step);
            block_arg[b] = lo < hi ? scan(q, qid, qcd, lo, hi) : lo;
          },
          1);
      arg = block_arg[0];
      for (size_t b = 1; b < blocks; ++b) {
        if (block_arg[b] < m && less(block_arg[b], arg)) arg = block_arg[b];
      }
    }
    out.push_back({from[arg], id[arg], best[arg]});
    q = rows[arg];
    qid = id[arg];
    if (core != nullptr) qcd = cd[arg];
    --m;
    rows[arg] = rows[m];
    id[arg] = id[m];
    best[arg] = best[m];
    from[arg] = from[m];
    if (core != nullptr) cd[arg] = cd[m];
  }
  return out;
}

}  // namespace parhc
