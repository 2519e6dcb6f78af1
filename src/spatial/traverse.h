// Generic traversal engine over the flat k-d tree arena.
//
// Every tree walk in the system — WSPD enumeration (Algorithm 1), MemoGFK's
// GetRho / GetPairs (Algorithm 3), BCCP / BCCP*, kNN, and Boruvka's
// nearest-other-component queries — is an instantiation of one of three
// engines below, so the split / prune / parallelization logic lives in
// exactly one place and every visit branches over the arena's contiguous
// structure-of-arrays storage:
//
//  * DualTraverse      — parallel dual-tree visitor over all sibling pairs
//                        (prune / separation / base-case callbacks);
//  * DualMinTraverse   — sequential pruned dual descent toward a minimum,
//                        visiting child pairs closest-first (BCCP family);
//  * SingleTraverse    — sequential pruned single-tree descent, visiting
//                        children closest-first (kNN family).
//
// ForEachLeaf and KdTree::BottomUp complete the set with flat, recursion-free
// sweeps over the arena.
#pragma once

#include <cstdint>
#include <utility>

#include "parallel/scheduler.h"
#include "spatial/kdtree.h"
#include "util/stats.h"

namespace parhc {

namespace internal {

/// Below this combined node size dual traversals stop forking (task grain).
constexpr uint32_t kDualSeqCutoff = 1024;

// Pruned dual descent from one node pair. `prune`, `sep` decide; `base`
// consumes a finished pair: separated (second arg true) or a pair of
// unsplittable leaves (false) — with unit leaves the latter only occurs for
// degenerate duplicate groups. The node with the larger bounding-sphere
// diameter is split (Algorithm 1 lines 8-9); a leaf cannot split, so the
// traversal falls through to the other node.
//
// Returns the node pairs visited. Each task sums its own and the caller
// publishes the total once (PublishVisits), so a sweep that prunes nearly
// every pair is not dominated by contention on one shared counter.
template <int D, typename Prune, typename Sep, typename Base>
uint64_t DualTraversePair(const KdTree<D>& t, uint32_t a, uint32_t b,
                          const Prune& prune, const Sep& sep,
                          const Base& base) {
  if (prune(a, b)) return 1;
  if (sep(a, b)) {
    base(a, b, /*separated=*/true);
    return 1;
  }
  uint32_t x = a, y = b;
  if (t.Diameter(x) < t.Diameter(y)) std::swap(x, y);
  if (t.IsLeaf(x)) std::swap(x, y);
  if (t.IsLeaf(x)) {
    base(a, b, /*separated=*/false);
    return 1;
  }
  uint64_t l = 0, r = 0;
  if (t.NodeSize(x) + t.NodeSize(y) >= kDualSeqCutoff) {
    ParDo([&] { l = DualTraversePair(t, t.Left(x), y, prune, sep, base); },
          [&] { r = DualTraversePair(t, t.Right(x), y, prune, sep, base); });
  } else {
    l = DualTraversePair(t, t.Left(x), y, prune, sep, base);
    r = DualTraversePair(t, t.Right(x), y, prune, sep, base);
  }
  return 1 + l + r;
}

template <int D, typename Prune, typename Sep, typename Base>
uint64_t DualTraverseRec(const KdTree<D>& t, uint32_t node, const Prune& prune,
                         const Sep& sep, const Base& base) {
  if (t.IsLeaf(node)) return 0;
  uint64_t l = 0, r = 0;
  if (t.NodeSize(node) >= kDualSeqCutoff) {
    ParDo([&] { l = DualTraverseRec(t, t.Left(node), prune, sep, base); },
          [&] { r = DualTraverseRec(t, t.Right(node), prune, sep, base); });
  } else {
    l = DualTraverseRec(t, t.Left(node), prune, sep, base);
    r = DualTraverseRec(t, t.Right(node), prune, sep, base);
  }
  uint64_t self =
      DualTraversePair(t, t.Left(node), t.Right(node), prune, sep, base);
  return l + r + self;
}

/// Adds a traversal's visit count to Stats wspd_pairs_visited when the
/// traversal counts (see DualTraverse).
inline void PublishVisits(uint64_t visits, bool count_visits) {
  if (count_visits) {
    Stats::Get().wspd_pairs_visited.fetch_add(visits,
                                              std::memory_order_relaxed);
  }
}

}  // namespace internal

/// Parallel dual-tree traversal of the whole tree against itself: runs the
/// pruned dual descent on the two children of every internal node, which
/// considers every unordered pair of disjoint subtrees exactly once (the
/// WSPD recursion of Algorithm 1). Callbacks may run concurrently from
/// several workers and must be thread-safe:
///   prune(a, b) -> bool     skip this node pair and everything below it;
///   sep(a, b)   -> bool     the pair is well-separated — stop and report;
///   base(a, b, separated)   consume a finished pair (separated, or a pair
///                           of unsplittable duplicate leaves).
/// `count_visits` feeds Stats wspd_pairs_visited (off for bound-only sweeps
/// like GetRho so the metric keeps meaning "pairs enumerated").
template <int D, typename Prune, typename Sep, typename Base>
void DualTraverse(const KdTree<D>& t, const Prune& prune, const Sep& sep,
                  const Base& base, bool count_visits = true) {
  internal::PublishVisits(
      internal::DualTraverseRec(t, t.root(), prune, sep, base), count_visits);
}

/// Pruned dual descent from one node pair (same callbacks as DualTraverse).
template <int D, typename Prune, typename Sep, typename Base>
void DualTraverseFrom(const KdTree<D>& t, uint32_t a, uint32_t b,
                      const Prune& prune, const Sep& sep, const Base& base,
                      bool count_visits = true) {
  internal::PublishVisits(internal::DualTraversePair(t, a, b, prune, sep, base),
                          count_visits);
}

/// Sequential pruned dual descent toward a minimum (the BCCP family):
///   prune(a, b) -> bool        subtree pair cannot improve the best;
///   priority(x, other) -> double   child visit order, lower first;
///   leaf_pair(a, b)            scan base case (both nodes are leaves).
/// The node with the larger diameter is split; its children are visited
/// closest-first so the best value tightens early and prunes the rest.
template <int D, typename Prune, typename Priority, typename LeafPair>
void DualMinTraverse(const KdTree<D>& t, uint32_t a, uint32_t b,
                     const Prune& prune, const Priority& priority,
                     const LeafPair& leaf_pair) {
  if (prune(a, b)) return;
  if (t.IsLeaf(a) && t.IsLeaf(b)) {
    leaf_pair(a, b);
    return;
  }
  bool split_a =
      !t.IsLeaf(a) && (t.IsLeaf(b) || t.Diameter(a) >= t.Diameter(b));
  uint32_t other = split_a ? b : a;
  uint32_t l = t.Left(split_a ? a : b);
  uint32_t r = l + 1;
  if (priority(r, other) < priority(l, other)) std::swap(l, r);
  DualMinTraverse(t, l, other, prune, priority, leaf_pair);
  DualMinTraverse(t, r, other, prune, priority, leaf_pair);
}

namespace internal {

template <int D, typename Priority, typename Prune, typename Leaf>
void SingleTraverseRec(const KdTree<D>& t, uint32_t node, double pri,
                       const Priority& priority, const Prune& prune,
                       const Leaf& leaf) {
  if (prune(node, pri)) return;
  if (t.IsLeaf(node)) {
    leaf(node);
    return;
  }
  uint32_t l = t.Left(node), r = t.Right(node);
  double pl = priority(l), pr = priority(r);
  if (pr < pl) {
    std::swap(l, r);
    std::swap(pl, pr);
  }
  SingleTraverseRec(t, l, pl, priority, prune, leaf);
  SingleTraverseRec(t, r, pr, priority, prune, leaf);
}

}  // namespace internal

/// Sequential pruned single-tree descent (the kNN family):
///   priority(v) -> double    visit order, lower first (e.g. min box dist);
///   prune(v, pri) -> bool    subtree cannot contribute (pri = priority(v));
///   leaf(v)                  scan base case.
/// Children are visited closest-first so the pruning bound tightens early.
/// Per-query traversals are sequential; callers parallelize across queries.
template <int D, typename Priority, typename Prune, typename Leaf>
void SingleTraverse(const KdTree<D>& t, const Priority& priority,
                    const Prune& prune, const Leaf& leaf,
                    uint32_t node = KdTree<D>::kRootNode) {
  internal::SingleTraverseRec(t, node, priority(node), priority, prune, leaf);
}

/// Invokes `fn(v)` on every leaf node — a flat scan over the arena, no
/// recursion. Leaves are visited in allocation order, not point order.
template <int D, typename Fn>
void ForEachLeaf(const KdTree<D>& t, Fn&& fn) {
  uint32_t count = t.node_count();
  for (uint32_t v = 0; v < count; ++v) {
    if (t.IsLeaf(v)) fn(v);
  }
}

}  // namespace parhc
