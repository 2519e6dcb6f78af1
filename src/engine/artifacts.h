// Per-dataset artifact cache: the memoized pipeline DAG of the clustering
// engine.
//
//              points
//                |
//              kd-tree ------------------+
//                |                       |
//          kNN prefixes @K             EMST  -->  single-linkage dendrogram
//                |                       |              |
//         core distances @m           weight        k-clusters labels
//                |
//     mutual-reachability MST @m
//                |
//          dendrogram @m
//           /    |     \
//   DBSCAN*@eps  reach  stable clusters
//
// Every node is built at most once per parameterization and reused by later
// queries. The key reuse rule (the engine's algorithmic win): the kNN
// prefix matrix is kept at K = the largest minPts seen, and the core
// distances for any m <= K are the m-th column of that matrix —
// bit-identical to a direct CoreDistances(tree, m) pass, because both are
// the square root of the exact m-th smallest squared neighbor distance. A
// minPts sweep therefore costs one kNN pass plus per-m MST + dendrogram
// rebuilds, and eps / min-cluster-size / reachability queries at an
// already-seen minPts touch only the cached dendrogram.
//
// Three backends, one answer path: this file, the batch-dynamic shard
// forest (dynamic/artifacts.h) and the router's merged cache over sharded
// datasets (cluster/router.cc) only *build* artifacts. Which requests are
// valid (and the error each invalid one gets) and how artifacts become an
// EngineResponse are decided once, in engine/answer.h (ValidateQuery,
// FillEmstResponse, FillClusteringResponse); the cached entry types, the
// core-distance derivation from squared kNN rows, the distance-
// decomposition Kruskal merge and the single-threaded clustering cache
// live in engine/artifact_util.h. Their answers therefore agree byte for
// byte by construction. Invalidation differs per backend:
//  * This file is the *immutable* backend: datasets never change, so
//    artifacts never go stale. Growing K installs a wider prefix matrix
//    (versioned behind a shared_ptr; readers of the old width finish on
//    their snapshot); derived artifacts keep their values (prefixes of a
//    longer sorted neighbor list are unchanged). Per-minPts clusterings
//    are LRU-capped (kMaxCachedClusterings) to bound memory; eviction is
//    safe because responses hold shared_ptr snapshots. Removing or
//    replacing a dataset drops the whole cache.
//  * The *mutable* backend (dynamic/artifacts.h) stores points as an LSM
//    shard forest and splits every artifact into a shard-local part (keyed
//    by shard content id: per-shard trees and EMSTs survive any mutation
//    that leaves their shard untouched), a cross-shard part (per shard
//    pair, invalidated exactly when either side's content changes), and a
//    forest-global part (keyed by the forest mutation epoch: the merged
//    kNN rows, the global Kruskal result, dendrograms). An insert
//    therefore dirties only the new shard's artifacts, the cross edges
//    that mention it, and the global tier — never surviving shard
//    artifacts.
//  * The router's cache mirrors the dynamic global tier one level up and
//    is dropped wholesale when a sharded dataset's mutation epoch moves.
//
// Thread safety (this backend only; the dynamic backend relies on the
// engine's exclusive lock): every DAG node is a monitor-guarded state
// machine absent -> building -> ready. A builder claims the node's
// building flag under `state_mu_`, runs the (possibly long, parallel)
// build OUTSIDE the lock, installs the result, and broadcasts
// `state_cv_`. Duplicate requests for the same node wait on the condition
// variable and come back with the builder's shared_ptr — exactly one
// build ever runs per node. Independent nodes (different datasets'
// artifacts trivially, and e.g. dendro@3 vs mst@5 of one dataset) build
// concurrently. The one cross-node constraint: MST-family builds
// (PartMst, when it selects the kd-tree kernel) rewrite the kd-tree's
// annotation arrays (core-distance + component fields), so they serialize on
// `tree_annot_mu_`; kNN search and snapshot writes read only the tree's
// geometry and proceed concurrently. Answer(allow_build = false) is the
// read-only path: it never blocks on a build (a node mid-build reads as
// absent) and touches no mutable state beyond brief `state_mu_` critical
// sections and the atomic LRU clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dendrogram/reachability.h"
#include "emst/emst_highdim.h"
#include "emst/part_mst.h"
#include "engine/answer.h"
#include "engine/artifact_util.h"
#include "engine/request.h"
#include "obs/trace.h"
#include "spatial/knn.h"
#include "store/artifact_io.h"
#include "store/manifest.h"
#include "store/mapped_array.h"

namespace parhc {

template <int D>
class DatasetArtifacts {
 public:
  explicit DatasetArtifacts(std::vector<Point<D>> pts)
      : pts_(std::move(pts)) {}

  /// Empty shell for LoadFrom (the snapshot store's two-phase
  /// construction); not a valid dataset until LoadFrom succeeds.
  DatasetArtifacts() = default;

  size_t num_points() const { return pts_.size(); }
  const std::vector<Point<D>>& points() const { return pts_; }
  /// K of the cached kNN prefix matrix (0 when no kNN pass has run).
  size_t knn_k() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return knn_ ? knn_->k : 0;
  }
  size_t num_cached_clusterings() const {
    std::lock_guard<std::mutex> lk(state_mu_);
    return hdbscan_.size();
  }

  /// Answers `req` into `out`, building missing artifacts when
  /// `allow_build`. Returns false iff an artifact was missing (or mid-
  /// build) and building was not allowed — the caller should retry on the
  /// build path; invalid requests return true with out->ok == false.
  bool Answer(const EngineRequest& req, bool allow_build,
              EngineResponse* out) {
    if (const char* err = ValidateQuery(req, pts_.size(), /*eps_emst=*/true)) {
      out->error = err;
      return true;
    }
    return IsEmstFamily(req.type) ? AnswerEmstFamily(req, allow_build, out)
                                  : AnswerHdbscanFamily(req, allow_build, out);
  }

  /// Writes every cached artifact plus the manifest into `dir` (created
  /// if needed). Takes a consistent shared_ptr snapshot of the DAG under
  /// `state_mu_`, then streams files with no lock held — concurrent
  /// queries and builds keep going (tree snapshots store only geometry,
  /// never the annotation arrays MST builds rewrite). Raises
  /// SnapshotError subtypes.
  void SaveTo(const std::string& dir) const {
    std::shared_ptr<KdTree<D>> tree;
    std::shared_ptr<const KnnMatrix> knn;
    EmstEntry emst;
    std::vector<std::pair<int, ClusteringArtifacts>> clusterings;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      tree = tree_;
      knn = knn_;
      emst = emst_;
      clusterings.reserve(hdbscan_.size());
      for (const auto& [min_pts, e] : hdbscan_) {
        clusterings.emplace_back(min_pts, *e);
      }
    }
    EnsureDatasetDir(dir);
    StaticManifest m;
    m.dim = D;
    m.n = pts_.size();
    m.points_file = PointsFileName();
    SavePointsSnapshot<D>(dir + "/" + m.points_file, pts_);
    if (tree) {
      m.tree_file = TreeFileName();
      SaveKdTreeSnapshot<D>(dir + "/" + m.tree_file, *tree);
    }
    if (knn) {
      m.knn_file = KnnFileName();
      m.knn_k = knn->k;
      SaveMatrixSnapshot(dir + "/" + m.knn_file, D, pts_.size(), knn->k,
                         knn->data.data());
    }
    if (emst.mst) {
      m.emst_file = EmstFileName();
      SaveEdgesSnapshot(dir + "/" + m.emst_file, *emst.mst, /*param=*/0);
      if (emst.dendrogram) {
        m.sl_dendro_file = SlDendroFileName();
        SaveDendrogramSnapshot(dir + "/" + m.sl_dendro_file,
                               *emst.dendrogram, /*param=*/0);
      }
    }
    for (const auto& [min_pts, v] : clusterings) {
      ClusteringManifestEntry c;
      c.min_pts = static_cast<uint32_t>(min_pts);
      c.mst_file = MstFileName(min_pts);
      SaveEdgesSnapshot(dir + "/" + c.mst_file, *v.mst, min_pts);
      if (v.dendrogram) {
        c.has_dendrogram = true;
        c.dendro_file = DendroFileName(min_pts);
        SaveDendrogramSnapshot(dir + "/" + c.dendro_file, *v.dendrogram,
                               min_pts);
      }
      m.clusterings.push_back(std::move(c));
    }
    WriteStaticManifest(dir + "/" + kManifestFileName, m);
  }

  /// Populates this default-constructed instance from a directory written
  /// by SaveTo: the kd-tree arena and kNN prefix matrix come back as
  /// zero-copy views of the mapped files; per-minPts core distances
  /// re-derive from the prefix columns (bit-identical, see the DAG notes
  /// above). Runs pre-publication on a fresh instance (no concurrent
  /// access). Raises SnapshotError subtypes; discard the instance on
  /// throw.
  void LoadFrom(const std::string& dir) {
    StaticManifest m = ReadStaticManifest(dir + "/" + kManifestFileName);
    if (m.dim != D) {
      throw SnapshotSchemaError(dir + ": manifest dimension " +
                                std::to_string(m.dim) + ", expected " +
                                std::to_string(D));
    }
    if (m.n < 1) throw SnapshotSchemaError(dir + ": empty dataset");
    pts_ = LoadPointsSnapshot<D>(dir + "/" + m.points_file);
    if (pts_.size() != m.n) {
      throw SnapshotSchemaError(dir + ": point count disagrees with manifest");
    }
    if (!m.tree_file.empty()) {
      tree_ = LoadKdTreeSnapshot<D>(dir + "/" + m.tree_file);
      if (tree_->size() != pts_.size()) {
        throw SnapshotSchemaError(dir + ": tree size disagrees with manifest");
      }
    }
    if (!m.knn_file.empty()) {
      LoadedMatrix mat = LoadMatrixSnapshot(dir + "/" + m.knn_file, D);
      if (mat.n != m.n || mat.k != m.knn_k) {
        throw SnapshotSchemaError(dir +
                                  ": kNN matrix disagrees with manifest");
      }
      auto knn = std::make_shared<KnnMatrix>();
      knn->data = MappedArray<double>(mat.data, mat.keepalive);
      knn->k = mat.k;
      knn_ = std::move(knn);
    }
    if (!m.emst_file.empty()) {
      std::vector<WeightedEdge> edges =
          LoadEdgesSnapshot(dir + "/" + m.emst_file, /*param=*/0, m.n);
      if (edges.size() + 1 != m.n) {
        throw SnapshotSchemaError(dir + ": EMST edge count mismatch");
      }
      emst_.mst_weight = TotalWeight(edges);
      emst_.mst = std::make_shared<const std::vector<WeightedEdge>>(
          std::move(edges));
      if (!m.sl_dendro_file.empty()) {
        emst_.dendrogram = LoadDendrogramSnapshot(
            dir + "/" + m.sl_dendro_file, /*param=*/0, m.n);
      }
    }
    EngineResponse scratch;  // loads do not report artifact traces
    size_t loaded_k = knn_ ? knn_->k : 0;
    for (const ClusteringManifestEntry& c : m.clusterings) {
      if (c.min_pts < 1 || c.min_pts > loaded_k) {
        // Core distances re-derive from the prefix matrix, so a cached
        // clustering without kNN coverage cannot have been written by
        // SaveTo.
        throw SnapshotSchemaError(dir + ": clustering@" +
                                  std::to_string(c.min_pts) +
                                  " lacks kNN prefix coverage");
      }
      auto entry = std::make_shared<HdbscanEntry>();
      entry->core_dist =
          CoreDist(static_cast<int>(c.min_pts), /*allow_build=*/true,
                   &scratch);
      std::vector<WeightedEdge> edges = LoadEdgesSnapshot(
          dir + "/" + c.mst_file, c.min_pts, m.n);
      if (edges.size() + 1 != m.n) {
        throw SnapshotSchemaError(dir + ": MR-MST edge count mismatch at " +
                                  std::to_string(c.min_pts));
      }
      entry->mst_weight = TotalWeight(edges);
      entry->mst = std::make_shared<const std::vector<WeightedEdge>>(
          std::move(edges));
      if (c.has_dendrogram) {
        entry->dendrogram = LoadDendrogramSnapshot(
            dir + "/" + c.dendro_file, c.min_pts, m.n);
      }
      TouchClusteringEntry(*entry, clock_);
      hdbscan_.emplace(static_cast<int>(c.min_pts), std::move(entry));
    }
  }

 private:
  using HdbscanEntry = ClusteringEntry;

  /// Versioned kNN prefix matrix: installed whole, never mutated, only
  /// replaced by a wider one. Readers keep their snapshot's stride.
  struct KnnMatrix {
    MappedArray<double> data;  ///< n x k, row-major by point id
    size_t k = 0;
  };

  /// One high-dimensional (partitioned) EMST build, keyed by its eps
  /// bound. Immutable once published; rebuilt on demand after a snapshot
  /// warm start (derived cache, deliberately not persisted by SaveTo).
  struct HighDimEntry {
    std::shared_ptr<const std::vector<WeightedEdge>> mst;
    double mst_weight = 0;
    HighDimEmstInfo info;
  };

  /// Clears a node's building flag and broadcasts at scope exit, so a
  /// throwing build never wedges its waiters.
  template <typename F>
  struct BuildScope {
    F fn;
    ~BuildScope() { fn(); }
  };
  template <typename F>
  BuildScope<F> OnBuildExit(F fn) {
    return BuildScope<F>{std::move(fn)};
  }

  void Touch(HdbscanEntry& e) { TouchClusteringEntry(e, clock_); }

  static void Trace(EngineResponse* out, bool built, const std::string& key) {
    TraceArtifact(out, built, key);
  }

  /// Interned span name for a cold build of artifact `key` (nullptr when
  /// tracing is off, which makes the obs::Span a no-op). Builds are rare,
  /// so the intern mutex never touches the request fast path.
  static const char* BuildSpanName(const std::string& key) {
    if (!obs::Tracer::Get().enabled()) return nullptr;
    return obs::Tracer::Get().Intern("build:" + key);
  }

  static double TotalWeight(const std::vector<WeightedEdge>& edges) {
    return TotalEdgeWeight(edges);
  }

  std::shared_ptr<const Dendrogram> BuildDendro(
      const std::vector<WeightedEdge>& edges) const {
    return BuildDendrogramArtifact(pts_.size(), edges);
  }

  std::shared_ptr<KdTree<D>> Tree(bool allow_build, EngineResponse* out) {
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      for (;;) {
        if (tree_) {
          Trace(out, /*built=*/false, "tree");
          return tree_;
        }
        if (!allow_build) return nullptr;
        if (!tree_building_) break;
        state_cv_.wait(lk);
      }
      tree_building_ = true;
    }
    auto done = OnBuildExit([this] {
      std::lock_guard<std::mutex> lk(state_mu_);
      tree_building_ = false;
      state_cv_.notify_all();
    });
    obs::Span span("build:tree", "engine");
    auto t = std::make_shared<KdTree<D>>(pts_, /*leaf_size=*/1);
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      tree_ = t;
    }
    Trace(out, /*built=*/true, "tree");
    return t;
  }

  /// kNN prefix matrix covering at least k columns (grows to the max
  /// seen). Owned when built in RAM, a zero-copy mapped view after a
  /// snapshot load; growing K past a loaded width rebuilds an owned copy.
  std::shared_ptr<const KnnMatrix> Prefixes(size_t k, bool allow_build,
                                            EngineResponse* out) {
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      for (;;) {
        if (knn_ && knn_->k >= k) {
          Trace(out, /*built=*/false, "knn@" + std::to_string(knn_->k));
          return knn_;
        }
        if (!allow_build) return nullptr;
        if (knn_building_k_ == 0) break;
        // A build is running; wait it out. If it is too narrow for us we
        // re-enter the loop and become the next (wider) builder.
        state_cv_.wait(lk);
      }
      knn_building_k_ = k;
    }
    auto done = OnBuildExit([this] {
      std::lock_guard<std::mutex> lk(state_mu_);
      knn_building_k_ = 0;
      state_cv_.notify_all();
    });
    obs::Span span(BuildSpanName("knn@" + std::to_string(k)), "engine");
    std::shared_ptr<KdTree<D>> tree = Tree(allow_build, out);
    auto mat = std::make_shared<KnnMatrix>();
    mat->data = AllKnnDistances(*tree, k);
    mat->k = k;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      knn_ = mat;
    }
    Trace(out, /*built=*/true, "knn@" + std::to_string(k));
    return mat;
  }

  /// Core distances for min_pts, derived from the prefix matrix column.
  std::shared_ptr<const std::vector<double>> CoreDist(int min_pts,
                                                      bool allow_build,
                                                      EngineResponse* out) {
    const std::string key = "cd@" + std::to_string(min_pts);
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      for (;;) {
        auto it = core_.find(min_pts);
        if (it != core_.end()) {
          Trace(out, /*built=*/false, key);
          return it->second;
        }
        if (!allow_build) return nullptr;
        if (core_building_.count(min_pts) == 0) break;
        state_cv_.wait(lk);
      }
      core_building_.insert(min_pts);
    }
    auto done = OnBuildExit([this, min_pts] {
      std::lock_guard<std::mutex> lk(state_mu_);
      core_building_.erase(min_pts);
      state_cv_.notify_all();
    });
    obs::Span span(BuildSpanName(key), "engine");
    std::shared_ptr<const KnnMatrix> prefix =
        Prefixes(static_cast<size_t>(min_pts), allow_build, out);
    size_t n = pts_.size();
    size_t stride = prefix->k;
    auto cd = std::make_shared<std::vector<double>>(n);
    ParallelFor(0, n, [&](size_t i) {
      (*cd)[i] = prefix->data[i * stride + (min_pts - 1)];
    });
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      core_.emplace(min_pts, cd);
    }
    Trace(out, /*built=*/true, key);
    return cd;
  }

  /// The per-minPts clustering, with the MST (always) and the dendrogram /
  /// reachability plot (on demand), copied into *view under `state_mu_`
  /// (entry fields may be extended concurrently). Returns false iff
  /// something was missing and !allow_build.
  bool Hdbscan(int min_pts, bool need_dendro, bool need_plot,
               bool allow_build, EngineResponse* out,
               ClusteringArtifacts* view) {
    const std::string suffix = "@" + std::to_string(min_pts);
    std::shared_ptr<HdbscanEntry> e;
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      for (;;) {
        auto it = hdbscan_.find(min_pts);
        if (it != hdbscan_.end()) {
          e = it->second;
          break;
        }
        if (!allow_build) return false;
        if (mst_building_.count(min_pts) == 0) break;
        state_cv_.wait(lk);
      }
      if (!e) mst_building_.insert(min_pts);
    }
    if (e) {
      Trace(out, /*built=*/false, "mst" + suffix);
    } else {
      auto done = OnBuildExit([this, min_pts] {
        std::lock_guard<std::mutex> lk(state_mu_);
        mst_building_.erase(min_pts);
        state_cv_.notify_all();
      });
      obs::Span span(BuildSpanName("mst" + suffix), "engine");
      auto cd = CoreDist(min_pts, allow_build, out);
      std::shared_ptr<KdTree<D>> tree = Tree(allow_build, out);
      e = std::make_shared<HdbscanEntry>();
      e->core_dist = cd;
      {
        // MST builds rewrite the shared tree's annotation arrays.
        std::lock_guard<std::mutex> annot(tree_annot_mu_);
        e->mst = std::make_shared<const std::vector<WeightedEdge>>(
            PartMst(pts_, cd.get(), [&]() -> KdTree<D>& { return *tree; }));
      }
      e->mst_weight = TotalWeight(*e->mst);
      Trace(out, /*built=*/true, "mst" + suffix);
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        hdbscan_.emplace(min_pts, e);
        EvictLruLocked(min_pts);
      }
    }
    if (need_dendro || need_plot) {
      std::shared_ptr<const Dendrogram> dendro;
      bool build_it = false;
      {
        std::unique_lock<std::mutex> lk(state_mu_);
        for (;;) {
          if (e->dendrogram) {
            dendro = e->dendrogram;
            break;
          }
          if (!allow_build) return false;
          if (dendro_building_.count(min_pts) == 0) {
            build_it = true;
            break;
          }
          state_cv_.wait(lk);
        }
        if (build_it) dendro_building_.insert(min_pts);
      }
      if (!build_it) {
        Trace(out, /*built=*/false, "dendro" + suffix);
      } else {
        auto done = OnBuildExit([this, min_pts] {
          std::lock_guard<std::mutex> lk(state_mu_);
          dendro_building_.erase(min_pts);
          state_cv_.notify_all();
        });
        obs::Span span(BuildSpanName("dendro" + suffix), "engine");
        dendro = BuildDendro(*e->mst);
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          e->dendrogram = dendro;
        }
        Trace(out, /*built=*/true, "dendro" + suffix);
      }
    }
    if (need_plot) {
      std::shared_ptr<const ReachabilityPlot> plot;
      bool build_it = false;
      {
        std::unique_lock<std::mutex> lk(state_mu_);
        for (;;) {
          if (e->plot) {
            plot = e->plot;
            break;
          }
          if (!allow_build) return false;
          if (plot_building_.count(min_pts) == 0) {
            build_it = true;
            break;
          }
          state_cv_.wait(lk);
        }
        if (build_it) plot_building_.insert(min_pts);
      }
      if (!build_it) {
        Trace(out, /*built=*/false, "reach" + suffix);
      } else {
        auto done = OnBuildExit([this, min_pts] {
          std::lock_guard<std::mutex> lk(state_mu_);
          plot_building_.erase(min_pts);
          state_cv_.notify_all();
        });
        obs::Span span(BuildSpanName("reach" + suffix), "engine");
        std::shared_ptr<const Dendrogram> dendro;
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          dendro = e->dendrogram;
        }
        plot = std::make_shared<const ReachabilityPlot>(
            ComputeReachability(*dendro));
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          e->plot = plot;
        }
        Trace(out, /*built=*/true, "reach" + suffix);
      }
    }
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      *view = *e;
      Touch(*e);
    }
    return true;
  }

  /// Drops least-recently-used clustering entries beyond the cache cap
  /// (never the one just touched, never one currently being extended by a
  /// dendrogram/plot builder). Call with `state_mu_` held. Snapshots held
  /// by responses — and by in-flight builders — stay valid through their
  /// shared_ptrs.
  void EvictLruLocked(int keep_min_pts) {
    while (hdbscan_.size() > kMaxCachedClusterings) {
      auto victim = hdbscan_.end();
      uint64_t oldest = std::numeric_limits<uint64_t>::max();
      for (auto it = hdbscan_.begin(); it != hdbscan_.end(); ++it) {
        int m = it->first;
        if (m == keep_min_pts || dendro_building_.count(m) != 0 ||
            plot_building_.count(m) != 0) {
          continue;
        }
        uint64_t used = it->second->last_used.load(std::memory_order_relaxed);
        if (used < oldest) {
          oldest = used;
          victim = it;
        }
      }
      if (victim == hdbscan_.end()) return;
      core_.erase(victim->first);
      hdbscan_.erase(victim);
    }
  }

  /// EMST + optional single-linkage dendrogram into *view. Returns false
  /// iff something was missing and !allow_build.
  bool Emst(bool need_dendro, bool allow_build, EngineResponse* out,
            EmstEntry* view) {
    std::shared_ptr<const std::vector<WeightedEdge>> mst;
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      for (;;) {
        if (emst_.mst) {
          mst = emst_.mst;
          break;
        }
        if (!allow_build) return false;
        if (!emst_building_) break;
        state_cv_.wait(lk);
      }
      if (!mst) emst_building_ = true;
    }
    if (mst) {
      Trace(out, /*built=*/false, "emst");
    } else {
      auto done = OnBuildExit([this] {
        std::lock_guard<std::mutex> lk(state_mu_);
        emst_building_ = false;
        state_cv_.notify_all();
      });
      obs::Span span("build:emst", "engine");
      std::shared_ptr<KdTree<D>> tree = Tree(allow_build, out);
      {
        // EMST builds rewrite the shared tree's annotation arrays.
        std::lock_guard<std::mutex> annot(tree_annot_mu_);
        mst = std::make_shared<const std::vector<WeightedEdge>>(
            PartMst(pts_, nullptr, [&]() -> KdTree<D>& { return *tree; }));
      }
      {
        std::lock_guard<std::mutex> lk(state_mu_);
        emst_.mst = mst;
        emst_.mst_weight = TotalWeight(*mst);
      }
      Trace(out, /*built=*/true, "emst");
    }
    if (need_dendro) {
      std::shared_ptr<const Dendrogram> dendro;
      bool build_it = false;
      {
        std::unique_lock<std::mutex> lk(state_mu_);
        for (;;) {
          if (emst_.dendrogram) {
            dendro = emst_.dendrogram;
            break;
          }
          if (!allow_build) return false;
          if (!sl_building_) {
            build_it = true;
            break;
          }
          state_cv_.wait(lk);
        }
        if (build_it) sl_building_ = true;
      }
      if (!build_it) {
        Trace(out, /*built=*/false, "sl-dendro");
      } else {
        auto done = OnBuildExit([this] {
          std::lock_guard<std::mutex> lk(state_mu_);
          sl_building_ = false;
          state_cv_.notify_all();
        });
        obs::Span span("build:sl-dendro", "engine");
        dendro = BuildDendro(*mst);
        {
          std::lock_guard<std::mutex> lk(state_mu_);
          emst_.dendrogram = dendro;
        }
        Trace(out, /*built=*/true, "sl-dendro");
      }
    }
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      *view = emst_;
    }
    return true;
  }

  /// Artifact key of the high-dim EMST at `eps` (e.g. "emst-hd@0.1").
  static std::string HighDimKey(double eps) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "emst-hd@%g", eps);
    return buf;
  }

  /// Partitioned high-dimensional EMST at `eps` (exact decomposition when
  /// eps == 0; see emst/emst_highdim.h) into *view. Same monitor protocol
  /// as the other DAG nodes: absent -> building -> ready, waiters block on
  /// `state_cv_`. Returns false iff missing and !allow_build.
  bool HighDimEmstAt(double eps, bool allow_build, EngineResponse* out,
                     std::shared_ptr<const HighDimEntry>* view) {
    const std::string key = HighDimKey(eps);
    {
      std::unique_lock<std::mutex> lk(state_mu_);
      for (;;) {
        auto it = highdim_.find(eps);
        if (it != highdim_.end()) {
          *view = it->second;
          lk.unlock();
          Trace(out, /*built=*/false, key);
          return true;
        }
        if (!allow_build) return false;
        if (highdim_building_.count(eps) == 0) break;
        state_cv_.wait(lk);
      }
      highdim_building_.insert(eps);
    }
    auto done = OnBuildExit([this, eps] {
      std::lock_guard<std::mutex> lk(state_mu_);
      highdim_building_.erase(eps);
      state_cv_.notify_all();
    });
    obs::Span span(BuildSpanName(key), "engine");
    auto entry = std::make_shared<HighDimEntry>();
    HighDimEmstOptions opts;
    opts.eps = eps;
    // Builds private partition trees (never the shared annotated tree_),
    // so no tree_annot_mu_ — eps builds run concurrently with everything.
    entry->mst = std::make_shared<const std::vector<WeightedEdge>>(
        HighDimEmst(pts_, opts, &entry->info));
    entry->mst_weight = TotalWeight(*entry->mst);
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      highdim_[eps] = entry;
    }
    Trace(out, /*built=*/true, key);
    *view = std::move(entry);
    return true;
  }

  bool AnswerEmstFamily(const EngineRequest& req, bool allow_build,
                        EngineResponse* out) {
    if (req.type == QueryType::kEmst && req.emst_eps >= 0) {
      std::shared_ptr<const HighDimEntry> e;
      if (!HighDimEmstAt(req.emst_eps, allow_build, out, &e)) return false;
      out->mst = e->mst;
      out->mst_weight = e->mst_weight;
      out->approx_eps = req.emst_eps;
      out->partitions = e->info.partitions;
      out->cross_pruned = e->info.cross_pruned;
      out->ok = true;
      return true;
    }
    EmstEntry e;
    bool need_dendro = req.type == QueryType::kSingleLinkage;
    if (!Emst(need_dendro, allow_build, out, &e)) return false;
    FillEmstResponse(req, e, /*point_ids=*/nullptr, out);
    return true;
  }

  bool AnswerHdbscanFamily(const EngineRequest& req, bool allow_build,
                           EngineResponse* out) {
    ClusteringArtifacts e;
    bool need_plot = req.type == QueryType::kReachability;
    if (!Hdbscan(req.min_pts, /*need_dendro=*/true, need_plot, allow_build,
                 out, &e)) {
      return false;
    }
    FillClusteringResponse(req, e, /*point_ids=*/nullptr, out);
    return true;
  }

  std::vector<Point<D>> pts_;

  // DAG node storage. Every field below is read/written only under
  // `state_mu_` (builds run outside it; see the file comment's monitor
  // protocol). `tree_annot_mu_` additionally serializes the MST-family
  // builds that rewrite the kd-tree's annotation arrays.
  mutable std::mutex state_mu_;
  mutable std::condition_variable state_cv_;
  std::mutex tree_annot_mu_;

  std::shared_ptr<KdTree<D>> tree_;
  std::shared_ptr<const KnnMatrix> knn_;
  std::map<int, std::shared_ptr<const std::vector<double>>> core_;
  std::map<int, std::shared_ptr<HdbscanEntry>> hdbscan_;
  EmstEntry emst_;
  std::map<double, std::shared_ptr<const HighDimEntry>> highdim_;

  bool tree_building_ = false;
  size_t knn_building_k_ = 0;  ///< 0 = idle, else the width being built
  std::set<int> core_building_;
  std::set<int> mst_building_;
  std::set<int> dendro_building_;
  std::set<int> plot_building_;
  bool emst_building_ = false;
  bool sl_building_ = false;
  std::set<double> highdim_building_;

  std::atomic<uint64_t> clock_{0};
};

}  // namespace parhc
