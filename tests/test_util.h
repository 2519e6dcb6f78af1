// Shared test helpers: deterministic point generators and MST oracles.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "data/generators.h"
#include "geometry/point.h"
#include "graph/edge.h"
#include "graph/prim.h"
#include "hdbscan/core_distance.h"
#include "parallel/scheduler.h"

namespace parhc {
namespace test {

// Exercise real concurrency in every test binary even on few-core CI
// machines (oversubscription still interleaves the workers).
struct ForceParallelWorkers {
  ForceParallelWorkers() { SetNumWorkers(4); }
};
inline ForceParallelWorkers force_parallel_workers;

template <int D>
std::vector<Point<D>> RandomPoints(size_t n, uint64_t seed,
                                   double side = 100.0) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, side);
  std::vector<Point<D>> pts(n);
  for (auto& p : pts) {
    for (int d = 0; d < D; ++d) p[d] = u(rng);
  }
  return pts;
}

/// Points with heavy duplication: roughly n/4 distinct locations.
template <int D>
std::vector<Point<D>> DuplicatedPoints(size_t n, uint64_t seed) {
  auto base = RandomPoints<D>((n + 3) / 4, seed);
  std::vector<Point<D>> pts(n);
  std::mt19937_64 rng(seed ^ 0xabcdef);
  for (size_t i = 0; i < n; ++i) pts[i] = base[rng() % base.size()];
  return pts;
}

inline double TotalWeight(const std::vector<WeightedEdge>& edges) {
  double s = 0;
  for (const auto& e : edges) s += e.w;
  return s;
}

/// Ascending weight multiset of `edges` (for MST equivalence checks that
/// must ignore tied-edge identity).
inline std::vector<double> SortedWeights(const std::vector<WeightedEdge>& edges) {
  std::vector<double> w(edges.size());
  for (size_t i = 0; i < edges.size(); ++i) w[i] = edges[i].w;
  std::sort(w.begin(), w.end());
  return w;
}

/// Renumbers cluster labels by first occurrence so two labelings of the
/// same partition compare equal (label ids are "dense but arbitrary");
/// negative (noise) labels stay as they are.
inline std::vector<int32_t> NormalizedLabels(const std::vector<int32_t>& in) {
  std::vector<int32_t> out(in.size());
  std::map<int32_t, int32_t> remap;
  for (size_t i = 0; i < in.size(); ++i) {
    if (in[i] < 0) {
      out[i] = in[i];
      continue;
    }
    out[i] =
        remap.emplace(in[i], static_cast<int32_t>(remap.size())).first->second;
  }
  return out;
}

/// Typed points as runtime rows (the registry/engine ingestion format).
template <int D>
std::vector<std::vector<double>> RowsFrom(const std::vector<Point<D>>& pts) {
  std::vector<std::vector<double>> rows(pts.size(), std::vector<double>(D));
  for (size_t i = 0; i < pts.size(); ++i) {
    for (int d = 0; d < D; ++d) rows[i][d] = pts[i][d];
  }
  return rows;
}

/// Exact EMST weight by dense Prim.
template <int D>
double PrimEmstWeight(const std::vector<Point<D>>& pts) {
  auto mst = PrimMst(pts.size(), [&](uint32_t i, uint32_t j) {
    return Distance(pts[i], pts[j]);
  });
  return TotalWeight(mst);
}

/// Brute-force core distances (no tree).
template <int D>
std::vector<double> BruteCoreDistances(const std::vector<Point<D>>& pts,
                                       int min_pts) {
  size_t n = pts.size();
  std::vector<double> cd(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> d(n);
    for (size_t j = 0; j < n; ++j) d[j] = Distance(pts[i], pts[j]);
    std::nth_element(d.begin(), d.begin() + (min_pts - 1), d.end());
    cd[i] = d[min_pts - 1];
  }
  return cd;
}

/// Exact mutual-reachability MST weight by dense Prim.
template <int D>
double PrimMutualReachabilityWeight(const std::vector<Point<D>>& pts,
                                    int min_pts) {
  auto cd = BruteCoreDistances(pts, min_pts);
  auto mst = PrimMst(pts.size(), [&](uint32_t i, uint32_t j) {
    return std::max({Distance(pts[i], pts[j]), cd[i], cd[j]});
  });
  return TotalWeight(mst);
}

}  // namespace test
}  // namespace parhc
