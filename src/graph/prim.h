// Dense O(n^2) Prim's algorithm over an implicit complete graph.
//
// Test oracle: exact MSTs of the Euclidean and mutual-reachability complete
// graphs, plus the Prim traversal order that defines the reachability plot
// (paper Section 2.1). Sequential by design, with a weight callback per
// pair and first-smallest-index selection. The production dense kernel is
// DenseMst (emst/dense_mst.h): batched distance tiles, the WeightedEdge tie
// order and per-worker scan blocks; this one stays separate so the tests
// check that kernel against an independent implementation.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "graph/edge.h"
#include "util/check.h"

namespace parhc {

inline constexpr uint32_t kNilVertex = 0xffffffffu;

/// MST of the complete graph on n vertices with weights w(i, j).
template <typename WeightFn>
std::vector<WeightedEdge> PrimMst(size_t n, WeightFn w) {
  PARHC_CHECK(n >= 1);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<uint32_t> from(n, 0);
  std::vector<bool> in_tree(n, false);
  std::vector<WeightedEdge> out;
  out.reserve(n - 1);
  uint32_t cur = 0;
  in_tree[0] = true;
  for (size_t step = 1; step < n; ++step) {
    for (uint32_t j = 0; j < n; ++j) {
      if (in_tree[j]) continue;
      double d = w(cur, j);
      if (d < best[j]) {
        best[j] = d;
        from[j] = cur;
      }
    }
    uint32_t next = 0;
    double nd = std::numeric_limits<double>::infinity();
    for (uint32_t j = 0; j < n; ++j) {
      if (!in_tree[j] && best[j] < nd) {
        nd = best[j];
        next = j;
      }
    }
    out.push_back({from[next], next, nd});
    in_tree[next] = true;
    cur = next;
  }
  return out;
}

/// Prim traversal of an explicit tree (adjacency from `edges`) starting at
/// `s`: returns (visit order, reachability values), where the value of the
/// i-th visited point is the weight at which it joined the visited set
/// (infinity for the start point). This is the reachability plot definition
/// of Section 2.1.
inline std::pair<std::vector<uint32_t>, std::vector<double>>
PrimReachabilityReference(size_t n, const std::vector<WeightedEdge>& edges,
                          uint32_t s) {
  // Build adjacency.
  std::vector<std::vector<std::pair<uint32_t, double>>> adj(n);
  for (const auto& e : edges) {
    adj[e.u].push_back({e.v, e.w});
    adj[e.v].push_back({e.u, e.w});
  }
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<bool> done(n, false);
  std::vector<uint32_t> order;
  std::vector<double> value;
  order.reserve(n);
  value.reserve(n);
  // O(n^2) selection; exact tie-breaking by vertex id for determinism.
  best[s] = -1;  // ensures s is selected first
  for (size_t step = 0; step < n; ++step) {
    uint32_t next = kNilVertex;
    for (uint32_t v = 0; v < n; ++v) {
      if (!done[v] && (next == kNilVertex || best[v] < best[next])) next = v;
    }
    PARHC_CHECK_MSG(best[next] != std::numeric_limits<double>::infinity() ||
                        step == 0,
                    "tree is disconnected");
    done[next] = true;
    order.push_back(next);
    value.push_back(step == 0 ? std::numeric_limits<double>::infinity()
                              : best[next]);
    for (auto [nb, w] : adj[next]) {
      if (!done[nb] && w < best[nb]) best[nb] = w;
    }
  }
  return {std::move(order), std::move(value)};
}

}  // namespace parhc
