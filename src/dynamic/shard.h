// One immutable shard of the batch-dynamic LSM forest (src/dynamic/).
//
// A shard owns one batch of points (plus their stable global ids) and a
// tombstone bitmap. Its *live* subset — the points not yet tombstoned — is
// what every derived artifact is defined over: a flat kd-tree arena built
// with the existing arena builder, and the shard's Euclidean MST edge list
// in global-id space. Both are built lazily and cached until the live set
// changes. The EMST comes from PartMst (emst/part_mst.h), the dense Prim
// kernel or MemoGFK on the shard tree, whichever was measured cheaper for
// the shard's size and dimension. A tombstone drops the tree (the GPU
// single-tree EMST line of work, Prokopenko et al. arXiv:2207.00514,
// motivates keeping each shard a static flat arena rather than mutating
// the tree in place) but keeps the EMST as a repair seed: every seed edge
// whose endpoints both survive is still an MST edge, so the next
// EmstEdges() can run MemoGFK with those edges already unioned and search
// only the cuts the deleted points opened.
//
// Identity is two-level:
//  * `uid`        — stable for the lifetime of the shard object; the
//                   forest's gid locator refers to shards by uid, so
//                   tombstoning (which moves no points) leaves it valid.
//  * `content_id` — identifies the live *content*; the forest bumps it on
//                   every tombstone. Cross-shard artifact caches key on
//                   content ids, so any live-set change invalidates exactly
//                   the cached cross edges that mention this shard.
//
// Invariant: local point order is ascending in global id (batches arrive
// gid-ascending and merges are gid-ordered merges), so per-shard tie-breaks
// on local ids agree with global-id tie-breaks — required for the shard
// forest's MSTs to match a from-scratch build edge-for-edge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "emst/part_mst.h"
#include "graph/edge.h"
#include "parallel/primitives.h"
#include "spatial/kdtree.h"
#include "util/check.h"

namespace parhc {

template <int D>
class Shard {
 public:
  Shard(uint64_t uid, uint64_t content_id, std::vector<Point<D>> pts,
        std::vector<uint32_t> gids)
      : uid_(uid),
        content_id_(content_id),
        pts_(std::move(pts)),
        gids_(std::move(gids)),
        dead_(pts_.size(), 0) {
    PARHC_CHECK_MSG(!pts_.empty(), "shard must be non-empty");
    PARHC_CHECK(pts_.size() == gids_.size());
    for (size_t i = 1; i < gids_.size(); ++i) {
      PARHC_DCHECK(gids_[i - 1] < gids_[i]);
    }
  }

  /// Snapshot-restore constructor: rebuilds a shard with its tombstone
  /// bitmap (and, when the snapshot carried one, its cached EMST edge
  /// list) exactly as saved. The caller (store load path) has already
  /// validated sizes, gid order, and that at least one point is live.
  Shard(uint64_t uid, uint64_t content_id, std::vector<Point<D>> pts,
        std::vector<uint32_t> gids, std::vector<uint8_t> dead,
        std::vector<WeightedEdge> emst, bool has_emst)
      : uid_(uid),
        content_id_(content_id),
        pts_(std::move(pts)),
        gids_(std::move(gids)),
        dead_(std::move(dead)),
        emst_(std::move(emst)),
        has_emst_(has_emst) {
    PARHC_CHECK_MSG(!pts_.empty(), "shard must be non-empty");
    PARHC_CHECK(pts_.size() == gids_.size() && pts_.size() == dead_.size());
    for (uint8_t d : dead_) dead_count_ += d != 0;
    PARHC_CHECK_MSG(dead_count_ < pts_.size(),
                    "restored shard must have a live point");
  }

  uint64_t uid() const { return uid_; }
  uint64_t content_id() const { return content_id_; }

  size_t total_count() const { return pts_.size(); }
  size_t live_count() const { return pts_.size() - dead_count_; }
  size_t dead_count() const { return dead_count_; }
  double dead_fraction() const {
    return static_cast<double>(dead_count_) / static_cast<double>(pts_.size());
  }
  /// LSM size class: floor(log2(live_count)).
  int size_class() const {
    int c = 0;
    for (size_t n = live_count(); n > 1; n >>= 1) ++c;
    return c;
  }

  /// All points / gids, including tombstoned entries (stable local order).
  const std::vector<Point<D>>& points() const { return pts_; }
  const std::vector<uint32_t>& gids() const { return gids_; }
  bool dead(uint32_t local) const { return dead_[local] != 0; }
  /// The tombstone bitmap (1 byte per point), for snapshot saves.
  const std::vector<uint8_t>& dead_bitmap() const { return dead_; }
  /// The cached EMST edges without triggering a build (valid only when
  /// has_emst()); read-only, for snapshot saves.
  const std::vector<WeightedEdge>& cached_emst() const { return emst_; }

  /// Tombstones one local index, dropping the kd-tree and live arrays. A
  /// built EMST becomes the repair seed, which survives further tombstones
  /// until the next EmstEdges(). The forest bumps `content_id` alongside.
  /// Returns false if already dead.
  bool Tombstone(uint32_t local, uint64_t new_content_id) {
    PARHC_CHECK(local < pts_.size());
    if (dead_[local]) return false;
    dead_[local] = 1;
    ++dead_count_;
    content_id_ = new_content_id;
    tree_.reset();
    if (has_emst_) {
      seed_ = std::move(emst_);
      emst_ = {};
      has_emst_ = false;
    }
    live_pts_.clear();
    live_gids_.clear();
    return true;
  }

  /// Releases the repair seed (global-id space), for the shard that takes
  /// over this one's survivors (forest compaction).
  std::vector<WeightedEdge> TakeEmstSeed() {
    std::vector<WeightedEdge> seed = std::move(seed_);
    seed_ = {};
    return seed;
  }

  /// Installs a repair seed: MST edges, in global-id space, of a point set
  /// that contains this shard's live set (see TakeEmstSeed).
  void SeedEmst(std::vector<WeightedEdge> seed) {
    PARHC_CHECK(!has_emst_);
    seed_ = std::move(seed);
  }

  /// Live points / gids in local (= gid-ascending) order. Aliases the full
  /// arrays when nothing is tombstoned.
  const std::vector<Point<D>>& live_points() {
    EnsureLive();
    return dead_count_ == 0 ? pts_ : live_pts_;
  }
  const std::vector<uint32_t>& live_gids() {
    EnsureLive();
    return dead_count_ == 0 ? gids_ : live_gids_;
  }

  bool has_tree() const { return tree_ != nullptr; }
  bool has_emst() const { return has_emst_; }

  /// The shard's kd-tree over its live points (arena builder, unit leaves),
  /// built on first use. Tree point ids index live_points()/live_gids().
  KdTree<D>& tree() {
    if (!tree_) {
      tree_ = std::make_unique<KdTree<D>>(live_points(), /*leaf_size=*/1);
    }
    return *tree_;
  }

  /// The shard's exact EMST over its live points, edges in global-id space,
  /// built on first use by PartMst. After a delete, MemoGFK on the shard
  /// tree seeded with the surviving repair-seed edges runs instead wherever
  /// it is cheaper: always where PartMst would pick the kd-tree kernel, and
  /// over the dense kernel while the seed leaves few components.
  const std::vector<WeightedEdge>& EmstEdges() {
    if (!has_emst_) {
      std::vector<WeightedEdge> seed = TakeLiveSeed();
      const size_t components = live_count() - seed.size();
      bool repair =
          !seed.empty() &&
          (components <= kRepairBeatsDenseComponents ||
           PartMstKernel(live_count(), D) == PartKernel::kKdTree);
      emst_ = repair ? EmstMemoGfkOnTree(tree(), nullptr, {}, seed)
                     : PartMst(live_points(), nullptr,
                               [this]() -> KdTree<D>& { return tree(); });
      const std::vector<uint32_t>& lg = live_gids();
      for (WeightedEdge& e : emst_) {
        e.u = lg[e.u];
        e.v = lg[e.v];
      }
      has_emst_ = true;
    }
    return emst_;
  }

  /// Releases the live points and gids of this shard (for merging or
  /// compaction); the shard must be discarded afterwards.
  std::pair<std::vector<Point<D>>, std::vector<uint32_t>> TakeLive() {
    EnsureLive();
    if (dead_count_ == 0) {
      return {std::move(pts_), std::move(gids_)};
    }
    return {std::move(live_pts_), std::move(live_gids_)};
  }

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

 private:
  static constexpr uint32_t kNotHere = std::numeric_limits<uint32_t>::max();

  /// Most seed components at which the seeded repair (tree build included)
  /// still beat DenseMst: on 64-d GaussianEmbeddings shards of 1024 points
  /// it ran 1.8-5.2 ms against 5.6-7.4 ms dense up to 9 components, 8.2 ms
  /// at 10 and 99 ms at 17, since every component boundary is a cut the
  /// traversals must search with boxes that barely prune in 64-d.
  static constexpr size_t kRepairBeatsDenseComponents = 8;

  /// Local index of `gid`, or kNotHere. Gids are distinct ascending
  /// integers, so gids_[i] >= gids_[0] + i and gids_[i] <= gids_.back() -
  /// (n - 1 - i): the search window collapses to one slot when the shard's
  /// gids form one contiguous run (every fresh batch).
  uint32_t LocalOf(uint32_t gid) const {
    size_t n = gids_.size();
    if (gid < gids_.front() || gid > gids_.back()) return kNotHere;
    size_t hi = std::min<size_t>(n, size_t{gid} - gids_.front() + 1);
    size_t lo = n - 1 - std::min<size_t>(n - 1, gids_.back() - gid);
    if (lo >= hi) return kNotHere;
    auto it = std::lower_bound(gids_.begin() + lo, gids_.begin() + hi, gid);
    if (it == gids_.begin() + hi || *it != gid) return kNotHere;
    return static_cast<uint32_t>(it - gids_.begin());
  }

  /// Releases the repair seed, mapped to live-local ids (tree point ids)
  /// and restricted to the edges whose endpoints are both live. Local
  /// order is gid order, so a live point's live-local id is its local
  /// index minus the tombstones before it: one prefix sum over the bitmap.
  std::vector<WeightedEdge> TakeLiveSeed() {
    std::vector<WeightedEdge> seed = TakeEmstSeed();
    if (seed.empty()) return seed;
    std::vector<uint32_t> rank(pts_.size());
    ParallelFor(0, rank.size(), [&](size_t i) { rank[i] = dead_[i] == 0; });
    ScanExclusiveAdd(rank);
    auto live_local = [&](uint32_t gid) {
      uint32_t local = LocalOf(gid);
      return local == kNotHere || dead_[local] ? kNotHere : rank[local];
    };
    ParallelFor(0, seed.size(), [&](size_t i) {
      seed[i].u = live_local(seed[i].u);
      seed[i].v = live_local(seed[i].v);
    });
    auto touches_dead = [](const WeightedEdge& e) {
      return e.u == kNotHere || e.v == kNotHere;
    };
    seed.erase(std::remove_if(seed.begin(), seed.end(), touches_dead),
               seed.end());
    return seed;
  }

  void EnsureLive() {
    if (dead_count_ == 0 || !live_pts_.empty()) return;
    live_pts_.reserve(live_count());
    live_gids_.reserve(live_count());
    for (size_t i = 0; i < pts_.size(); ++i) {
      if (!dead_[i]) {
        live_pts_.push_back(pts_[i]);
        live_gids_.push_back(gids_[i]);
      }
    }
  }

  uint64_t uid_;
  uint64_t content_id_;
  std::vector<Point<D>> pts_;
  std::vector<uint32_t> gids_;
  std::vector<uint8_t> dead_;  ///< tombstone bitmap (1 byte per point)
  size_t dead_count_ = 0;

  // Live-set artifacts, dropped on every tombstone (the EMST moves to the
  // repair seed instead).
  std::vector<Point<D>> live_pts_;
  std::vector<uint32_t> live_gids_;
  std::unique_ptr<KdTree<D>> tree_;
  std::vector<WeightedEdge> emst_;
  bool has_emst_ = false;
  /// Gid-space MST edges of an earlier live set (a superset of the current
  /// one), consumed by the next EmstEdges(). Never persisted.
  std::vector<WeightedEdge> seed_;
};

}  // namespace parhc
