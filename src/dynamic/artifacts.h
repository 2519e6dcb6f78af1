// Batch-dynamic artifact cache: the mutable-dataset backend of the
// clustering engine (the immutable backend is engine/artifacts.h).
//
// Points live in an LSM shard forest (forest.h). Every pipeline artifact is
// assigned to one of three invalidation tiers:
//
//   shard tier    per-shard kd-tree and EMST edge list, cached inside the
//                 shard object; survive any mutation that leaves the shard
//                 untouched (keyed implicitly by shard content id). A
//                 delete drops the shard's tree but not its EMST: the old
//                 edges seed the next shard EMST build, which repairs only
//                 the cut the deleted points opened (shard.h).
//   cross tier    per shard *pair*: the Euclidean cross candidate edges
//                 (well-separated cross decomposition + cross BCCP, s = 2),
//                 cached by content-id pair — stale exactly when either
//                 side's live content changes.
//   global tier   everything derived from the whole forest: the merged kNN
//                 rows, the global EMST / MR-MST Kruskal results,
//                 dendrograms and clusterings; keyed by the forest mutation
//                 epoch.
//
// Exactness comes from the distance-decomposition rule (Lettich,
// arXiv:2406.01739): the MST of a union of parts is contained in the union
// of the parts' MSTs plus cross-part candidate edges — valid for any
// strictly totally ordered weight function, so it covers both the
// Euclidean and the mutual-reachability graph. A small insert therefore
// pays its own shard build + EMST, one cross pass against each surviving
// shard, and a Kruskal over ~n cached edges — not an O(n) tree + kNN + MST
// rebuild.
//
// HDBSCAN* stays exact through the multi-shard kNN merge: each point's
// global K nearest neighbors are accumulated by querying every shard's
// tree into one bounded heap, so core distances at any minPts <= K are the
// square roots of the exact minPts-th smallest squared distances —
// bit-identical to a from-scratch AllKnnDistances pass over the union. On
// insert the cached rows are updated incrementally (merge each old row
// with the K best candidates from the new batch's tree; new points query
// every shard once); a delete invalidates the rows wholesale, since a
// vanished neighbor cannot be repaired locally.
//
// Per-point outputs (core distances, labels, dendrograms, MST endpoints)
// use *dense* indices: position i corresponds to the i-th live global id in
// ascending order (EngineResponse::point_ids carries the mapping). Because
// the dense map is monotone in gid, all tie-breaks agree with a
// from-scratch build over the live points in gid order.
//
// Thread safety: none here; the engine front-end serializes mutations and
// builds (engine.h). Answer(allow_build = false) is the read-only path and
// touches no mutable state except the LRU clock.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/forest.h"
#include "engine/answer.h"
#include "engine/artifact_util.h"
#include "engine/request.h"
#include "emst/part_mst.h"
#include "spatial/cross_traverse.h"
#include "spatial/knn.h"
#include "spatial/wspd.h"
#include "store/artifact_io.h"
#include "store/manifest.h"

namespace parhc {

template <int D>
class DynamicArtifacts {
 public:
  size_t num_points() const { return forest_.live_count(); }
  size_t num_shards() const { return forest_.num_shards(); }
  size_t num_tombstones() const { return forest_.dead_count(); }
  size_t knn_k() const { return knn_valid_ ? knn_k_ : 0; }
  size_t num_cached_clusterings() const {
    return clusterings_.entries.size();
  }
  uint32_t next_gid() const { return forest_.next_gid(); }
  /// Entries in the dense gid map — O(live points) by construction;
  /// regression-tested against churn alongside the forest locator.
  size_t dense_map_size() const { return dense_of_gid_.size(); }
  const ShardForest<D>& forest() const { return forest_; }

  /// Inserts one batch; returns the first assigned global id. Maintains
  /// the kNN rows incrementally when they are warm, then invalidates the
  /// global tier (cached cross edges and shard artifacts survive).
  uint32_t InsertBatch(std::vector<Point<D>> pts) {
    if (knn_valid_) UpdateKnnRowsForInsert(pts);
    uint32_t first = forest_.InsertBatch(std::move(pts));
    InvalidateGlobalTier();
    return first;
  }

  /// Tombstones the given global ids; returns the number deleted. The kNN
  /// rows cannot be repaired locally (a deleted point may have been inside
  /// another point's neighborhood), so they are invalidated wholesale.
  size_t DeleteBatch(const std::vector<uint32_t>& gids) {
    size_t deleted = forest_.DeleteBatch(gids);
    if (deleted > 0) {
      knn_valid_ = false;
      InvalidateGlobalTier();
    }
    return deleted;
  }

  /// Live points in ascending-gid order — the router tier's export/mirror
  /// surface (net kOpExportPoints). Lazily builds the gid list; the engine
  /// calls it under the entry's exclusive lock.
  void ExportLive(std::vector<uint32_t>* gids, std::vector<Point<D>>* pts) {
    *gids = forest_.LiveGids();
    pts->resize(gids->size());
    for (size_t i = 0; i < gids->size(); ++i) {
      (*pts)[i] = forest_.PointOf((*gids)[i]);
    }
  }

  /// kNN rows of arbitrary query points against the live forest: row i
  /// holds the sorted squared distances from queries[i] to its k nearest
  /// live points, +inf-padded past the live count — value-identical to
  /// the rows EnsureKnn builds for resident points (same heaps, same
  /// kernels). Issues parallel work; shard tree accessors mutate caches,
  /// so the engine runs this on the build executor under the exclusive
  /// lock.
  std::vector<double> KnnForQueries(const std::vector<Point<D>>& queries,
                                    size_t k) {
    std::vector<double> rows(queries.size() * k,
                             std::numeric_limits<double>::infinity());
    size_t n = forest_.live_count();
    if (n == 0 || queries.empty()) return rows;
    size_t cap = std::min(k, n);
    for (size_t s = 0; s < forest_.num_shards(); ++s) {
      forest_.shard(s).tree();  // build outside the parallel loop
    }
    std::vector<std::vector<std::pair<double, uint32_t>>> scratch(
        NumWorkers());
    ParallelFor(0, queries.size(), [&](size_t i) {
      auto& buf = scratch[Scheduler::Get().MyId()];
      if (buf.size() < cap) buf.resize(cap);
      internal::KnnHeap heap(cap, buf.data());
      for (size_t s = 0; s < forest_.num_shards(); ++s) {
        internal::KnnQueryInto(forest_.shard(s).tree(), queries[i], heap);
      }
      std::sort(buf.data(), buf.data() + heap.size());
      double* row = rows.data() + i * k;
      for (size_t t = 0; t < heap.size(); ++t) row[t] = buf[t].first;
    });
    return rows;
  }

  /// The forest's MR-MST under externally supplied *global* core
  /// distances (`core[i]` = core distance of the i-th live gid ascending),
  /// with gid endpoints — the per-worker part of the router's distributed
  /// HDBSCAN* merge (net kOpShardMrMst). Built by the same ForestMrMst as
  /// the local HDBSCAN* path, then mapped back to gids. Issues parallel
  /// work; engine runs it on the build executor under the exclusive lock.
  std::vector<WeightedEdge> MutualReachMst(const std::vector<double>& core) {
    if (forest_.live_count() < 2) return {};
    std::vector<WeightedEdge> mst = ForestMrMst(core);
    for (WeightedEdge& e : mst) {
      e.u = (*ids_dense_)[e.u];
      e.v = (*ids_dense_)[e.v];
    }
    return mst;
  }

  /// Same contract as DatasetArtifacts::Answer.
  bool Answer(const EngineRequest& req, bool allow_build,
              EngineResponse* out) {
    // The eps path builds private k-means partition trees over an
    // immutable point set; the shard forest already maintains its own
    // incremental decomposition, so the knob applies to static datasets.
    if (const char* err =
            ValidateQuery(req, forest_.live_count(), /*eps_emst=*/false)) {
      out->error = err;
      return true;
    }
    return IsEmstFamily(req.type) ? AnswerEmstFamily(req, allow_build, out)
                                  : AnswerHdbscanFamily(req, allow_build, out);
  }

  /// Writes the forest (per-shard files: full point batches + tombstone
  /// bitmaps + cached shard EMSTs) plus the cached cross-edge tier and the
  /// manifest into `dir`. Read-only — no lazy artifact builds run — so it
  /// is safe under the engine's shared lock, concurrently with cache-hit
  /// queries. Raises SnapshotError subtypes.
  void SaveTo(const std::string& dir) const {
    EnsureDatasetDir(dir);
    DynamicManifest m;
    m.dim = D;
    m.live_count = forest_.live_count();
    m.next_gid = forest_.next_gid();
    m.next_uid = forest_.next_uid();
    m.next_content_id = forest_.next_content_id();
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      const Shard<D>& s = forest_.shard(i);
      ShardManifestEntry e;
      e.uid = s.uid();
      e.content_id = s.content_id();
      e.has_emst = s.has_emst();
      e.file = ShardFileName(i);
      SaveShardSnapshot(dir + "/" + e.file, s);
      m.shards.push_back(std::move(e));
    }
    // The cross cache may hold entries keyed by content ids that a
    // delete/merge has since retired (PurgeStaleCrossEdges only runs
    // inside EMST builds, and SaveTo is const). Snapshot only the live
    // pairs: a stale entry can reference tombstoned endpoints, which
    // LoadFrom would (rightly) reject.
    std::vector<uint64_t> live_cids;
    live_cids.reserve(m.shards.size());
    for (const ShardManifestEntry& e : m.shards) {
      live_cids.push_back(e.content_id);
    }
    std::sort(live_cids.begin(), live_cids.end());
    auto alive = [&](uint64_t cid) {
      return std::binary_search(live_cids.begin(), live_cids.end(), cid);
    };
    for (const auto& [key, edges] : cross_) {
      if (!alive(key.first) || !alive(key.second)) continue;
      CrossManifestEntry c;
      c.cid_a = key.first;
      c.cid_b = key.second;
      c.file = CrossFileName(key.first, key.second);
      SaveEdgesSnapshot(dir + "/" + c.file, edges, /*param=*/0);
      m.cross.push_back(std::move(c));
    }
    WriteDynamicManifest(dir + "/" + kManifestFileName, m);
  }

  /// Restores a default-constructed instance from a directory written by
  /// SaveTo: shard structure, tombstones, cached shard EMSTs and the
  /// cross-edge tier come back warm; the global tier (merged kNN rows,
  /// Kruskal results, dendrograms) rebuilds on first use. Raises
  /// SnapshotError subtypes; discard the instance on throw.
  void LoadFrom(const std::string& dir) {
    DynamicManifest m = ReadDynamicManifest(dir + "/" + kManifestFileName);
    if (m.dim != D) {
      throw SnapshotSchemaError(dir + ": manifest dimension " +
                                std::to_string(m.dim) + ", expected " +
                                std::to_string(D));
    }
    std::vector<std::unique_ptr<Shard<D>>> shards;
    std::unordered_set<uint64_t> uids;
    std::unordered_set<uint32_t> live_gids;
    uint64_t live = 0;
    for (const ShardManifestEntry& e : m.shards) {
      // Everything the forest's Restore CHECKs must be validated here
      // first: untrusted files raise, they never abort.
      if (e.uid >= m.next_uid || e.content_id >= m.next_content_id ||
          !uids.insert(e.uid).second) {
        throw SnapshotSchemaError(dir + ": shard identity out of range or " +
                                  "duplicated in manifest");
      }
      std::unique_ptr<Shard<D>> s =
          LoadShardSnapshot(dir + "/" + e.file, e, m.next_gid);
      for (uint32_t i = 0; i < s->gids().size(); ++i) {
        if (!s->dead(i) && !live_gids.insert(s->gids()[i]).second) {
          throw SnapshotFormatError(dir + ": live gid " +
                                    std::to_string(s->gids()[i]) +
                                    " appears in two shards");
        }
      }
      live += s->live_count();
      shards.push_back(std::move(s));
    }
    if (live != m.live_count) {
      throw SnapshotSchemaError(dir + ": live count disagrees with manifest");
    }
    forest_.Restore(std::move(shards), m.next_gid, m.next_uid,
                    m.next_content_id);
    for (const CrossManifestEntry& c : m.cross) {
      if (c.cid_a >= c.cid_b) {
        throw SnapshotSchemaError(dir +
                                  ": cross entry not in canonical order");
      }
      std::vector<WeightedEdge> edges =
          LoadEdgesSnapshot(dir + "/" + c.file, /*param=*/0, m.next_gid);
      for (const WeightedEdge& e : edges) {
        if (!forest_.IsLive(e.u) || !forest_.IsLive(e.v)) {
          throw SnapshotFormatError(dir + "/" + c.file +
                                    ": cross edge endpoint is not live");
        }
      }
      cross_.emplace(std::make_pair(c.cid_a, c.cid_b), std::move(edges));
    }
  }

 private:
  static constexpr uint64_t kNoEpoch = std::numeric_limits<uint64_t>::max();

  // --- shard snapshot IO (store) -----------------------------------------

  static void SaveShardSnapshot(const std::string& path, const Shard<D>& s) {
    SnapshotWriter w(SnapshotKind::kShard, D, s.total_count(), s.uid(),
                     s.content_id());
    w.AddSection(SectionId::kPointData, s.points().data(),
                 s.points().size());
    w.AddSection(SectionId::kShardGids, s.gids().data(), s.gids().size());
    w.AddSection(SectionId::kShardDead, s.dead_bitmap().data(),
                 s.dead_bitmap().size());
    if (s.has_emst()) {
      w.AddSection(SectionId::kEdgeData, s.cached_emst().data(),
                   s.cached_emst().size());
    }
    w.Write(path);
  }

  static std::unique_ptr<Shard<D>> LoadShardSnapshot(
      const std::string& path, const ShardManifestEntry& me,
      uint32_t next_gid) {
    SnapshotFile f(path);
    f.ExpectKind(SnapshotKind::kShard, D);
    if (f.param() != me.uid || f.aux() != me.content_id) {
      throw SnapshotSchemaError(path +
                                ": shard identity disagrees with manifest");
    }
    uint64_t n = f.count();
    if (n < 1) throw SnapshotSchemaError(path + ": empty shard");
    Span<const Point<D>> pts = f.section<Point<D>>(SectionId::kPointData);
    Span<const uint32_t> gids = f.section<uint32_t>(SectionId::kShardGids);
    Span<const uint8_t> dead = f.section<uint8_t>(SectionId::kShardDead);
    store_internal::RequireSectionSize(f, pts.size(), n, "shard points");
    store_internal::RequireSectionSize(f, gids.size(), n, "shard gids");
    store_internal::RequireSectionSize(f, dead.size(), n, "shard tombstones");
    size_t live = 0;
    for (uint64_t i = 0; i < n; ++i) {
      if (gids[i] >= next_gid || (i > 0 && gids[i - 1] >= gids[i])) {
        throw SnapshotFormatError(path +
                                  ": shard gids not ascending below next_gid");
      }
      live += dead[i] == 0;
    }
    if (live == 0) {
      throw SnapshotSchemaError(path + ": shard has no live points");
    }
    std::vector<WeightedEdge> emst;
    if (me.has_emst) {
      // The shard's cached EMST is an embedded section, in gid space over
      // the live points; reject endpoints this shard does not own (a
      // crafted or misfiled snapshot), which downstream candidate merging
      // would index by.
      Span<const WeightedEdge> edata =
          f.section<WeightedEdge>(SectionId::kEdgeData);
      emst.assign(edata.begin(), edata.end());
      auto owns_live = [&](uint32_t gid) {
        const uint32_t* it =
            std::lower_bound(gids.begin(), gids.end(), gid);
        return it != gids.end() && *it == gid &&
               dead[it - gids.begin()] == 0;
      };
      for (const WeightedEdge& e : emst) {
        if (!owns_live(e.u) || !owns_live(e.v)) {
          throw SnapshotFormatError(path +
                                    ": shard EMST endpoint not live here");
        }
      }
    }
    return std::make_unique<Shard<D>>(
        me.uid, me.content_id, std::vector<Point<D>>(pts.begin(), pts.end()),
        std::vector<uint32_t>(gids.begin(), gids.end()),
        std::vector<uint8_t>(dead.begin(), dead.end()), std::move(emst),
        me.has_emst);
  }

  void InvalidateGlobalTier() {
    emst_epoch_ = kNoEpoch;
    emst_ = EmstEntry();
    clusterings_.Clear();
    ids_dense_.reset();
    dense_of_gid_.clear();
  }

  // --- dense <-> gid mapping (global tier) -------------------------------

  void EnsureDense() {
    if (ids_dense_ && dense_epoch_ == forest_.epoch()) return;
    auto ids =
        std::make_shared<const std::vector<uint32_t>>(forest_.LiveGids());
    // Hash map keyed by live gid only: like the forest's locator, the
    // dense mapping is O(live points), not O(historical gid space).
    dense_of_gid_.clear();
    dense_of_gid_.reserve(ids->size());
    for (uint32_t i = 0; i < ids->size(); ++i) {
      dense_of_gid_.emplace((*ids)[i], i);
    }
    ids_dense_ = std::move(ids);
    dense_epoch_ = forest_.epoch();
  }

  /// Dense index of a live gid (EnsureDense must be current).
  uint32_t DenseOf(uint32_t gid) const {
    auto it = dense_of_gid_.find(gid);
    PARHC_DCHECK(it != dense_of_gid_.end());
    return it->second;
  }

  /// Remaps gid-space edges to dense indices in place. Concurrent
  /// const-only hash lookups are safe.
  void ToDense(std::vector<WeightedEdge>& edges) const {
    ParallelFor(0, edges.size(), [&](size_t i) {
      edges[i].u = DenseOf(edges[i].u);
      edges[i].v = DenseOf(edges[i].v);
    });
  }

  // --- cross candidate edges (cross tier) --------------------------------

  /// Cross candidates between two shards: one closest-pair edge (from
  /// `bccp(ta, tb, a, b, ida, idb)`) per well-separated cross pair
  /// (s = 2), in gid space.
  template <typename BccpFn>
  static std::vector<WeightedEdge> CrossCandidates(Shard<D>& sa,
                                                   Shard<D>& sb,
                                                   const BccpFn& bccp) {
    KdTree<D>& ta = sa.tree();
    KdTree<D>& tb = sb.tree();
    const std::vector<uint32_t>& ga = sa.live_gids();
    const std::vector<uint32_t>& gb = sb.live_gids();
    auto ida = [&](uint32_t i) { return ga[i]; };
    auto idb = [&](uint32_t j) { return gb[j]; };
    std::vector<std::vector<WeightedEdge>> local(NumWorkers());
    CrossDualTraverse(
        ta, tb, [](uint32_t, uint32_t) { return false; },
        [&](uint32_t a, uint32_t b) {
          return WellSeparated(ta.NodeBox(a), tb.NodeBox(b), 2.0);
        },
        [&](uint32_t a, uint32_t b, bool /*separated*/) {
          ClosestPair cp = bccp(ta, tb, a, b, ida, idb);
          local[Scheduler::Get().MyId()].push_back({cp.u, cp.v, cp.dist});
        });
    return Flatten(local);
  }

  /// Euclidean cross candidates (cross BCCP).
  static std::vector<WeightedEdge> CrossEmstCandidates(Shard<D>& sa,
                                                       Shard<D>& sb) {
    return CrossCandidates(
        sa, sb,
        [](KdTree<D>& ta, KdTree<D>& tb, uint32_t a, uint32_t b,
           const auto& ida, const auto& idb) {
          return CrossBccp(ta, tb, a, b, ida, idb);
        });
  }

  /// Mutual-reachability cross candidates (cross BCCP*). Both shard trees
  /// must already be annotated with the current global core distances. Not
  /// cached: the weights change with every core-distance epoch, unlike the
  /// Euclidean cross tier.
  static std::vector<WeightedEdge> CrossHdbscanCandidates(Shard<D>& sa,
                                                          Shard<D>& sb) {
    return CrossCandidates(
        sa, sb,
        [](KdTree<D>& ta, KdTree<D>& tb, uint32_t a, uint32_t b,
           const auto& ida, const auto& idb) {
          return CrossBccpStar(ta, tb, a, b, ida, idb);
        });
  }

  /// Drops cross-tier cache entries that mention a content id no longer in
  /// the forest (the shard was merged, compacted, or tombstoned).
  void PurgeStaleCrossEdges() {
    std::vector<uint64_t> cids;
    cids.reserve(forest_.num_shards());
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      cids.push_back(forest_.shard(i).content_id());
    }
    std::sort(cids.begin(), cids.end());
    auto alive = [&](uint64_t c) {
      return std::binary_search(cids.begin(), cids.end(), c);
    };
    for (auto it = cross_.begin(); it != cross_.end();) {
      if (!alive(it->first.first) || !alive(it->first.second)) {
        it = cross_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // --- EMST family -------------------------------------------------------

  bool EnsureEmst(bool allow_build, EngineResponse* out) {
    if (emst_.mst && emst_epoch_ == forest_.epoch()) {
      TraceArtifact(out, /*built=*/false, "forest-emst");
      return true;
    }
    if (!allow_build) return false;
    EnsureDense();
    PurgeStaleCrossEdges();
    std::vector<WeightedEdge> candidates;
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      Shard<D>& s = forest_.shard(i);
      bool had = s.has_emst();
      const std::vector<WeightedEdge>& edges = s.EmstEdges();
      TraceArtifact(out, !had, "semst@" + std::to_string(s.content_id()));
      candidates.insert(candidates.end(), edges.begin(), edges.end());
    }
    for (size_t i = 0; i < forest_.num_shards(); ++i) {
      for (size_t j = i + 1; j < forest_.num_shards(); ++j) {
        Shard<D>& sa = forest_.shard(i);
        Shard<D>& sb = forest_.shard(j);
        // Materialize into a value pair: std::minmax over the returned
        // temporaries would yield a pair of dangling references.
        std::pair<uint64_t, uint64_t> key{
            std::min(sa.content_id(), sb.content_id()),
            std::max(sa.content_id(), sb.content_id())};
        std::string trace_key = "xemst@" + std::to_string(key.first) + "-" +
                                std::to_string(key.second);
        auto it = cross_.find(key);
        if (it == cross_.end()) {
          it = cross_.emplace(key, CrossEmstCandidates(sa, sb)).first;
          TraceArtifact(out, /*built=*/true, trace_key);
        } else {
          TraceArtifact(out, /*built=*/false, trace_key);
        }
        candidates.insert(candidates.end(), it->second.begin(),
                          it->second.end());
      }
    }
    ToDense(candidates);
    std::vector<WeightedEdge> mst =
        KruskalMerge(forest_.live_count(), std::move(candidates));
    emst_ = EmstEntry();
    emst_.mst_weight = TotalEdgeWeight(mst);
    emst_.mst =
        std::make_shared<const std::vector<WeightedEdge>>(std::move(mst));
    emst_epoch_ = forest_.epoch();
    TraceArtifact(out, /*built=*/true, "forest-emst");
    return true;
  }

  bool AnswerEmstFamily(const EngineRequest& req, bool allow_build,
                        EngineResponse* out) {
    if (!EnsureEmst(allow_build, out)) return false;
    if (req.type == QueryType::kSingleLinkage &&
        !EnsureDendrogram(&emst_.dendrogram, forest_.live_count(),
                          *emst_.mst, "sl-dendro", allow_build, out)) {
      return false;
    }
    FillEmstResponse(req, emst_, ids_dense_, out);
    return true;
  }

  // --- HDBSCAN* family ---------------------------------------------------

  /// Multi-shard kNN merge: rebuilds the global rows at width K (>= the
  /// requested k, clamped to n) by querying every shard's tree into one
  /// bounded heap per point. Rows are indexed *densely* (position i = the
  /// i-th live gid ascending) and hold the sorted squared distances to the
  /// K global nearest neighbors (self included), so memory tracks the live
  /// count, not the ever-growing gid space. Dense row indices stay valid
  /// across inserts — new gids always sort after every existing one — and
  /// deletes invalidate the rows wholesale.
  bool EnsureKnn(size_t k, bool allow_build, EngineResponse* out) {
    if (knn_valid_ && knn_k_ >= k) {
      TraceArtifact(out, /*built=*/false, "knn@" + std::to_string(knn_k_));
      return true;
    }
    if (!allow_build) return false;
    size_t n = forest_.live_count();
    size_t K = std::min(std::max(k, knn_k_), n);
    for (size_t s = 0; s < forest_.num_shards(); ++s) {
      forest_.shard(s).tree();  // build outside the parallel loop
    }
    std::vector<uint32_t> gids = forest_.LiveGids();
    knn_sq_.assign(n * K, 0.0);
    std::vector<std::vector<std::pair<double, uint32_t>>> scratch(
        NumWorkers());
    ParallelFor(0, gids.size(), [&](size_t idx) {
      auto& buf = scratch[Scheduler::Get().MyId()];
      if (buf.size() < K) buf.resize(K);
      internal::KnnHeap heap(K, buf.data());
      const Point<D>& q = forest_.PointOf(gids[idx]);
      for (size_t s = 0; s < forest_.num_shards(); ++s) {
        internal::KnnQueryInto(forest_.shard(s).tree(), q, heap);
      }
      PARHC_DCHECK(heap.size() == K);
      std::sort(buf.data(), buf.data() + K);
      double* row = knn_sq_.data() + idx * K;
      for (size_t t = 0; t < K; ++t) row[t] = buf[t].first;
    });
    knn_k_ = K;
    knn_valid_ = true;
    TraceArtifact(out, /*built=*/true, "knn@" + std::to_string(K));
    return true;
  }

  /// Incremental row maintenance for one insert batch, run *before* the
  /// forest mutation (so the shard set is the pre-insert one): every
  /// existing row merges the K best candidates from the batch's tree, and
  /// each batch point gets a fresh row by querying every shard plus the
  /// batch itself. Exact because the K smallest of (old forest U batch) is
  /// the K smallest of (old row U batch candidates).
  void UpdateKnnRowsForInsert(const std::vector<Point<D>>& batch) {
    const size_t K = knn_k_;
    KdTree<D> batch_tree(batch, /*leaf_size=*/1);
    for (size_t s = 0; s < forest_.num_shards(); ++s) {
      forest_.shard(s).tree();  // build outside the parallel loop
    }
    std::vector<uint32_t> old_gids = forest_.LiveGids();
    size_t old_n = old_gids.size();
    // New points extend the dense row range: their gids exceed every
    // existing gid, so existing rows keep their dense positions.
    knn_sq_.resize((old_n + batch.size()) * K, 0.0);
    struct Scratch {
      std::vector<std::pair<double, uint32_t>> heap;
      std::vector<double> merged;
    };
    std::vector<Scratch> scratch(NumWorkers());
    ParallelFor(0, old_n, [&](size_t idx) {
      Scratch& sc = scratch[Scheduler::Get().MyId()];
      if (sc.heap.size() < K) sc.heap.resize(K);
      if (sc.merged.size() < K) sc.merged.resize(K);
      internal::KnnHeap heap(K, sc.heap.data());
      internal::KnnQueryInto(batch_tree, forest_.PointOf(old_gids[idx]),
                             heap);
      size_t c = heap.size();
      std::sort(sc.heap.data(), sc.heap.data() + c);
      double* row = knn_sq_.data() + idx * K;
      size_t i = 0, j = 0;
      for (size_t t = 0; t < K; ++t) {
        sc.merged[t] = (j >= c || (i < K && row[i] <= sc.heap[j].first))
                           ? row[i++]
                           : sc.heap[j++].first;
      }
      std::copy(sc.merged.data(), sc.merged.data() + K, row);
    });
    ParallelFor(0, batch.size(), [&](size_t idx) {
      Scratch& sc = scratch[Scheduler::Get().MyId()];
      if (sc.heap.size() < K) sc.heap.resize(K);
      internal::KnnHeap heap(K, sc.heap.data());
      for (size_t s = 0; s < forest_.num_shards(); ++s) {
        internal::KnnQueryInto(forest_.shard(s).tree(), batch[idx], heap);
      }
      internal::KnnQueryInto(batch_tree, batch[idx], heap);
      PARHC_DCHECK(heap.size() == K);
      std::sort(sc.heap.data(), sc.heap.data() + K);
      double* row = knn_sq_.data() + (old_n + idx) * K;
      for (size_t t = 0; t < K; ++t) row[t] = sc.heap[t].first;
    });
  }

  /// The forest's exact MR-MST under dense core distances `core`, with
  /// dense endpoints: per-shard MR-MSTs (PartMst) plus cross BCCP*
  /// candidates, merged by Kruskal. Needs live points.
  std::vector<WeightedEdge> ForestMrMst(const std::vector<double>& core) {
    EnsureDense();
    std::vector<WeightedEdge> candidates;
    const size_t shards = forest_.num_shards();
    for (size_t i = 0; i < shards; ++i) {
      Shard<D>& s = forest_.shard(i);
      const std::vector<uint32_t>& lg = s.live_gids();
      std::vector<double> cd_local(lg.size());
      for (size_t l = 0; l < lg.size(); ++l) {
        cd_local[l] = core[DenseOf(lg[l])];
      }
      std::vector<WeightedEdge> edges =
          PartMst(s.live_points(), &cd_local,
                  [&]() -> KdTree<D>& { return s.tree(); });
      for (WeightedEdge& e : edges) {
        e.u = lg[e.u];
        e.v = lg[e.v];
      }
      candidates.insert(candidates.end(), edges.begin(), edges.end());
      // The cross BCCP* pass reads every shard tree's core distances.
      // Write this epoch's here, whichever kernel built the part MST:
      // an annotation left by an earlier build would be stale.
      if (shards > 1) s.tree().AnnotateCoreDistances(cd_local);
    }
    for (size_t i = 0; i < shards; ++i) {
      for (size_t j = i + 1; j < shards; ++j) {
        std::vector<WeightedEdge> edges =
            CrossHdbscanCandidates(forest_.shard(i), forest_.shard(j));
        candidates.insert(candidates.end(), edges.begin(), edges.end());
      }
    }
    ToDense(candidates);
    return KruskalMerge(forest_.live_count(), std::move(candidates));
  }

  bool AnswerHdbscanFamily(const EngineRequest& req, bool allow_build,
                           EngineResponse* out) {
    bool need_plot = req.type == QueryType::kReachability;
    ClusteringEntry* e = clusterings_.Get(
        req.min_pts, forest_.live_count(), need_plot, allow_build, out,
        [&]() -> std::unique_ptr<ClusteringEntry> {
          auto cd = clusterings_.CoreDist(
              req.min_pts, forest_.live_count(), allow_build, out,
              [&](size_t* stride) -> const std::vector<double>* {
                EnsureKnn(static_cast<size_t>(req.min_pts),
                          /*allow_build=*/true, out);
                *stride = knn_k_;
                return &knn_sq_;
              });
          return NewClusteringEntry(cd, ForestMrMst(*cd));
        });
    if (e == nullptr) return false;
    FillClusteringResponse(req, *e, ids_dense_, out);
    return true;
  }

  ShardForest<D> forest_;

  // Global tier: dense mapping (compacting: keyed by live gids only).
  std::shared_ptr<const std::vector<uint32_t>> ids_dense_;
  std::unordered_map<uint32_t, uint32_t> dense_of_gid_;
  uint64_t dense_epoch_ = kNoEpoch;

  // Cross tier: Euclidean candidates per content-id pair.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<WeightedEdge>> cross_;

  // Global tier: EMST.
  EmstEntry emst_;
  uint64_t emst_epoch_ = kNoEpoch;

  // Global tier: merged kNN rows (squared distances, row i = i-th live gid
  // ascending — see EnsureKnn for why dense indices survive inserts).
  std::vector<double> knn_sq_;
  size_t knn_k_ = 0;
  bool knn_valid_ = false;

  // Global tier: core distances and per-minPts clusterings.
  ClusteringCache clusterings_;
};

}  // namespace parhc
