// Artifact helpers shared by every query backend: the immutable
// per-dataset cache (engine/artifacts.h), the batch-dynamic shard-forest
// cache (dynamic/artifacts.h) and the router's merged cache
// (cluster/router.cc). Factored out so all of them report the same
// build/reuse traces, merge distance-decomposition candidates, derive core
// distances and construct dendrograms identically. How cached artifacts
// become a response lives next door in engine/answer.h.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dendrogram/builder.h"
#include "dendrogram/reachability.h"
#include "engine/request.h"
#include "graph/edge.h"
#include "graph/kruskal.h"
#include "parallel/primitives.h"
#include "util/check.h"

namespace parhc {

/// Upper bound on simultaneously cached per-minPts clusterings (MST +
/// dendrogram + plot) per dataset; least-recently-used entries are evicted.
inline constexpr size_t kMaxCachedClusterings = 8;

/// Worker count at or above which artifact dendrograms use the parallel
/// builder; below it the sequential builder wins (no Euler-tour overhead).
inline constexpr int kParallelDendrogramWorkers = 8;

/// Records `key` in the response's built or reused artifact trace (first
/// mention wins; later stages touching the same artifact are not repeated).
inline void TraceArtifact(EngineResponse* out, bool built,
                          const std::string& key) {
  auto contains = [&](const std::vector<std::string>& v) {
    return std::find(v.begin(), v.end(), key) != v.end();
  };
  if (contains(out->built) || contains(out->reused)) return;
  (built ? out->built : out->reused).push_back(key);
}

inline double TotalEdgeWeight(const std::vector<WeightedEdge>& edges) {
  double w = 0;
  for (const auto& e : edges) w += e.w;
  return w;
}

/// Ordered dendrogram of `edges` over `n` points anchored at source 0, via
/// whichever builder fits the current worker count (both produce the same
/// ordered dendrogram).
inline std::shared_ptr<const Dendrogram> BuildDendrogramArtifact(
    size_t n, const std::vector<WeightedEdge>& edges) {
  if (n == 1) {
    auto d = std::make_shared<Dendrogram>(1);
    d->set_root(0);
    return d;
  }
  if (NumWorkers() >= kParallelDendrogramWorkers) {
    return std::make_shared<const Dendrogram>(
        BuildDendrogramParallel(n, edges, /*source=*/0));
  }
  return std::make_shared<const Dendrogram>(
      BuildDendrogramSequential(n, edges, /*source=*/0));
}

/// The MST of the distance-decomposition rule: Kruskal over the union of
/// per-part MSTs and cross-part candidate edges, which must span all `n`
/// points. The shard forest and the router both merge through this.
inline std::vector<WeightedEdge> KruskalMerge(
    size_t n, std::vector<WeightedEdge> candidates) {
  std::vector<WeightedEdge> mst = KruskalMst(n, std::move(candidates));
  PARHC_CHECK_MSG(mst.size() + 1 == n,
                  "distance-decomposition candidates did not span");
  return mst;
}

/// Core distances at `min_pts` from `n` rows of sorted squared kNN
/// distances (row stride `stride` >= min_pts): the square root of each
/// row's min_pts-th entry. The shard forest and the router both derive
/// here, so their values agree bit for bit. Issues parallel work.
inline std::shared_ptr<const std::vector<double>> CoreDistFromSquaredKnn(
    const std::vector<double>& rows, size_t n, size_t stride, int min_pts) {
  auto cd = std::make_shared<std::vector<double>>(n);
  ParallelFor(0, n, [&](size_t i) {
    (*cd)[i] = std::sqrt(rows[i * stride + (min_pts - 1)]);
  });
  return cd;
}

/// A cached Euclidean MST plus its single-linkage dendrogram (built on
/// demand).
struct EmstEntry {
  std::shared_ptr<const std::vector<WeightedEdge>> mst;
  double mst_weight = 0;
  std::shared_ptr<const Dendrogram> dendrogram;
};

/// The artifacts of one per-minPts clustering: the MR-MST (always) plus
/// the dendrogram and reachability plot (built on demand).
struct ClusteringArtifacts {
  std::shared_ptr<const std::vector<double>> core_dist;
  std::shared_ptr<const std::vector<WeightedEdge>> mst;
  double mst_weight = 0;
  std::shared_ptr<const Dendrogram> dendrogram;
  std::shared_ptr<const ReachabilityPlot> plot;
};

/// One cached per-minPts clustering with its LRU stamp. Shared by every
/// backend so the LRU machinery exists once.
struct ClusteringEntry : ClusteringArtifacts {
  std::atomic<uint64_t> last_used{0};
};

/// A fresh clustering entry around an MR-MST under `core_dist`.
inline std::unique_ptr<ClusteringEntry> NewClusteringEntry(
    std::shared_ptr<const std::vector<double>> core_dist,
    std::vector<WeightedEdge> mst) {
  auto e = std::make_unique<ClusteringEntry>();
  e->core_dist = std::move(core_dist);
  e->mst_weight = TotalEdgeWeight(mst);
  e->mst = std::make_shared<const std::vector<WeightedEdge>>(std::move(mst));
  return e;
}

/// Stamps `e` as most recently used against the backend's LRU clock. Safe
/// on the read-only query path (atomics only).
inline void TouchClusteringEntry(ClusteringEntry& e,
                                 std::atomic<uint64_t>& clock) {
  e.last_used.store(clock.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
}

/// On-demand dendrogram step of the single-threaded caches (the dynamic
/// backend and the router): reuses *slot, or builds it from `mst` over
/// `n` points; records `key` either way. Returns false iff it was missing
/// and !allow_build.
inline bool EnsureDendrogram(std::shared_ptr<const Dendrogram>* slot,
                             size_t n, const std::vector<WeightedEdge>& mst,
                             const std::string& key, bool allow_build,
                             EngineResponse* out) {
  bool build = !*slot;
  if (build) {
    if (!allow_build) return false;
    *slot = BuildDendrogramArtifact(n, mst);
  }
  TraceArtifact(out, build, key);
  return true;
}

/// Per-minPts clusterings of a single-threaded cache (the dynamic
/// backend's and the router's global tier; the static backend runs its
/// own monitor protocol), with the core distances they derive from.
struct ClusteringCache {
  std::map<int, std::shared_ptr<const std::vector<double>>> core;
  std::map<int, std::unique_ptr<ClusteringEntry>> entries;
  std::atomic<uint64_t> clock{0};

  void Clear() {
    core.clear();
    entries.clear();
  }

  /// Core distances at `min_pts` over `n` points, derived on first use
  /// from the squared kNN rows `knn_rows(&stride)` returns (at least
  /// min_pts wide; null on failure). Returns null iff they were missing
  /// and !allow_build, or the rows failed.
  template <typename KnnRows>
  std::shared_ptr<const std::vector<double>> CoreDist(
      int min_pts, size_t n, bool allow_build, EngineResponse* out,
      const KnnRows& knn_rows) {
    const std::string key = "cd@" + std::to_string(min_pts);
    auto it = core.find(min_pts);
    if (it != core.end()) {
      TraceArtifact(out, /*built=*/false, key);
      return it->second;
    }
    if (!allow_build) return nullptr;
    size_t stride = 0;
    const std::vector<double>* rows = knn_rows(&stride);
    if (rows == nullptr) return nullptr;
    auto cd = CoreDistFromSquaredKnn(*rows, n, stride, min_pts);
    core.emplace(min_pts, cd);
    TraceArtifact(out, /*built=*/true, key);
    return cd;
  }

  /// The clustering at `min_pts` over `n` points, its dendrogram (and,
  /// with need_plot, reachability plot) built on demand. A missing entry
  /// comes from `build_mst()` (a NewClusteringEntry, or null on failure).
  /// Returns null iff something was missing and !allow_build, or the
  /// build failed.
  template <typename BuildMst>
  ClusteringEntry* Get(int min_pts, size_t n, bool need_plot,
                       bool allow_build, EngineResponse* out,
                       const BuildMst& build_mst) {
    const std::string suffix = "@" + std::to_string(min_pts);
    auto it = entries.find(min_pts);
    if (it == entries.end()) {
      if (!allow_build) return nullptr;
      std::unique_ptr<ClusteringEntry> built = build_mst();
      if (!built) return nullptr;
      TraceArtifact(out, /*built=*/true, "mst" + suffix);
      it = entries.emplace(min_pts, std::move(built)).first;
      EvictLru(min_pts);
    } else {
      TraceArtifact(out, /*built=*/false, "mst" + suffix);
    }
    ClusteringEntry& e = *it->second;
    if (!EnsureDendrogram(&e.dendrogram, n, *e.mst, "dendro" + suffix,
                          allow_build, out)) {
      return nullptr;
    }
    if (need_plot) {
      bool build = !e.plot;
      if (build) {
        if (!allow_build) return nullptr;
        e.plot = std::make_shared<const ReachabilityPlot>(
            ComputeReachability(*e.dendrogram));
      }
      TraceArtifact(out, build, "reach" + suffix);
    }
    TouchClusteringEntry(e, clock);
    return &e;
  }

 private:
  /// Drops least-recently-used entries beyond the cache cap, never the
  /// one just touched. Snapshots held by responses stay valid. The
  /// matching derived core distances go too — they re-derive from the kNN
  /// rows in O(n) — so per-minPts memory really is bounded.
  void EvictLru(int keep_min_pts) {
    while (entries.size() > kMaxCachedClusterings) {
      auto victim = entries.end();
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      for (auto it = entries.begin(); it != entries.end(); ++it) {
        if (it->first == keep_min_pts) continue;
        uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
        if (used < oldest) {
          oldest = used;
          victim = it;
        }
      }
      if (victim == entries.end()) return;
      core.erase(victim->first);
      entries.erase(victim);
    }
  }
};

}  // namespace parhc
