// Weighted undirected edges.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>

namespace parhc {

/// An undirected weighted edge between original point ids u and v.
struct WeightedEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  double w = 0;

  /// Deterministic strict total order: by weight, then canonical endpoint
  /// ids. The MST under this order is unique, and Kruskal, PrimMst and
  /// DenseMst return exactly it. Whether another kernel does depends on
  /// whether it ever compares the tied candidates:
  ///  * Euclidean: MemoGFK and the distance decomposition match it
  ///    edge-for-edge (on inputs without duplicate points; zero-weight
  ///    edges between copies are exchangeable and only their weights are
  ///    pinned).
  ///  * Mutual reachability: weights tie whenever two edges share their
  ///    largest core distance, and the kd-tree MR-MST keeps one BCCP* per
  ///    separated pair, not necessarily the order-minimal tied edge. It
  ///    matches in weight multiset and in flat clusterings, not edge by
  ///    edge (tests/dense_mst_test.cc, MstUniqueness).
  friend bool operator<(const WeightedEdge& a, const WeightedEdge& b) {
    auto ka = std::minmax(a.u, a.v);
    auto kb = std::minmax(b.u, b.v);
    return std::tie(a.w, ka.first, ka.second) <
           std::tie(b.w, kb.first, kb.second);
  }
  friend bool operator==(const WeightedEdge& a, const WeightedEdge& b) {
    auto ka = std::minmax(a.u, a.v);
    auto kb = std::minmax(b.u, b.v);
    return a.w == b.w && ka == kb;
  }
};

}  // namespace parhc
