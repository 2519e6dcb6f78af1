// The library's one-shot paths over a static point set: Emst(MemoGFK),
// HighDimEmst(eps=0) and Hdbscan(minPts=16) + stable clusters.
//
// An untraced pass times the public entry points back to back. A traced
// pass calls each layer's public function separately (KdTree,
// EmstMemoGfkOnTree, AllKnnDistances, HdbscanMstOnTree,
// BuildDendrogramParallel, ExtractStableClusters, HighDimEmst) under
// benchmark-side spans and reads the algorithm counters through StatsEpoch
// and PhaseBreakdown. Passes cycle over the workload's datasets.
#pragma once

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "parhc.h"
#include "spatial/knn.h"
#include "util/stats.h"

namespace perfbench {

inline constexpr int kMinPts = 16;

inline double Weight(const std::vector<parhc::WeightedEdge>& edges) {
  double w = 0;
  for (const parhc::WeightedEdge& e : edges) w += e.w;
  return w;
}

/// Two spanning-tree weights summed in different edge orders agree to
/// rounding only.
inline bool SameWeight(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

template <int D>
using Datasets = std::vector<std::vector<parhc::Point<D>>>;

template <int D>
class StaticPipeline {
 public:
  explicit StaticPipeline(const Datasets<D>& sets) : sets_(sets) {}

  /// One pass over the next dataset; returns its wall time in seconds.
  double Pass(bool trace) {
    Answers a;
    a.dataset = passes_.size() % sets_.size();
    double t0 = Now();
    if (trace) {
      LayerPass(sets_[a.dataset], a);
    } else {
      EndToEndPass(sets_[a.dataset], a);
    }
    passes_.push_back(std::move(a));
    return Now() - t0;
  }

  /// The end-to-end metrics (medians over the passes).
  void ReportEndToEnd(Report& rep) const {
    rep.Add("emst_s", Median(emst_s_), "s");
    rep.Add("emst_partitioned_s", Median(part_s_), "s");
    rep.Add("hdbscan_s", Median(hdbscan_s_), "s");
    rep.Note("static_passes", static_cast<double>(passes_.size()));
  }

  /// The per-layer metrics, plus two measurements of their own: the
  /// parallel speed-up and the dispatched distance kernel.
  void ReportLayers(Report& rep) {
    using namespace parhc;  // NOLINT
    SpanRecorder& rec = SpanRecorder::Get();
    const std::vector<Point<D>>& pts = sets_[0];
    const size_t n = pts.size();

    // Parallel speed-up: the whole EMST in a one-slot worker group versus
    // the full pool (spans off: this is not a layer call).
    rec.Enable(false);
    double t0 = Now();
    double pool_w = Weight(EmstMemoGfk(pts));
    double pool_s = Now() - t0;
    double one_w = 0, one_s = 0;
    {
      TaskArena one(1);
      one.Execute([&] {
        double t1 = Now();
        one_w = Weight(EmstMemoGfk(pts));
        one_s = Now() - t1;
      });
    }
    rep.Check(SameWeight(pool_w, one_w) &&
                  SameWeight(pool_w, passes_[0].emst_weight),
              "EMST weight depends on the worker count");
    rep.Add("parallel.emst_speedup", one_s / pool_s, "x");

    rec.Enable(true);
    rec.NewRun();
    MeasureBatchKernel(pts, 0.2, rep);
    rec.Enable(false);

    const double mst_edges = static_cast<double>(n - 1);
    rep.Add("spatial.kdtree_build_s", Median(tree_s_), "s");
    rep.Add("emst.memogfk_s", Median(memogfk_s_), "s");
    rep.Add("emst.wspd_phase_s", Median(wspd_s_), "s");
    rep.Add("emst.kruskal_phase_s", Median(kruskal_s_), "s");
    rep.Add("emst.wspd_pairs_visited",
            static_cast<double>(emst_c_.wspd_pairs_visited), "count");
    rep.Add("emst.bccp_computed", static_cast<double>(emst_c_.bccp_computed),
            "count");
    rep.Add("emst.bccp_point_distances",
            static_cast<double>(emst_c_.bccp_point_distances), "count");
    rep.Add("emst.bccp_per_mst_edge",
            static_cast<double>(emst_c_.bccp_computed) / mst_edges, "ratio");
    rep.Add("emst.wspd_pairs_peak",
            static_cast<double>(emst_c_.wspd_pairs_peak), "count");
    rep.Add("emst.partitioned_s", Median(part_s_), "s");
    rep.Add("spatial.knn_s", Median(knn_s_), "s");
    rep.Add("hdbscan.mr_mst_s", Median(mr_s_), "s");
    rep.Add("hdbscan.bccp_computed", static_cast<double>(mr_c_.bccp_computed),
            "count");
    rep.Add("hdbscan.bccp_point_distances",
            static_cast<double>(mr_c_.bccp_point_distances), "count");
    rep.Add("dendrogram.build_s", Median(dendro_s_), "s");
    rep.Add("hdbscan.stable_clusters_s", Median(stable_s_), "s");
    rep.Note("static_passes", static_cast<double>(passes_.size()));
  }

  /// Oracle, outside the timed region. In 2D, an independent method: the
  /// Delaunay-triangulation EMST, plus the HDBSCAN* core distances against
  /// the engine's prefix-matrix path. In higher dimensions (no Delaunay),
  /// HighDimEmst(eps=0) must match classic MemoGFK pass by pass. Every
  /// pass must give its dataset's first HDBSCAN* answer.
  void Check(Report& rep) const {
    std::vector<double> oracle;
    if constexpr (D == 2) {
      for (const std::vector<parhc::Point<D>>& pts : sets_) {
        oracle.push_back(Weight(parhc::EmstDelaunay(pts)));
      }
      CheckCoreDistances(rep);
    }
    rep.Note("emst_weight", passes_[0].emst_weight);
    for (const Answers& p : passes_) {
      double want = oracle.empty() ? p.emst_weight : oracle[p.dataset];
      rep.Check(SameWeight(p.emst_weight, want),
                "EMST weight differs from the oracle");
      rep.Check(SameWeight(p.partitioned_weight, want),
                "HighDimEmst(eps=0) weight differs from the oracle");
      const Answers& first = passes_[p.dataset];  // passes cycle datasets
      rep.Check(SameWeight(p.mr_weight, first.mr_weight) &&
                    p.clusters == first.clusters,
                "HDBSCAN* answer changed between passes");
    }
  }

 private:
  static constexpr size_t kMinClusterSize = 50;

  /// What one pass produced, for the oracle.
  struct Answers {
    size_t dataset = 0;
    double emst_weight = 0;
    double partitioned_weight = 0;
    double mr_weight = 0;
    size_t clusters = 0;
    std::vector<double> core_dist;  ///< kept from the first pass only
  };

  static size_t CountClusters(const std::vector<int32_t>& labels) {
    int32_t k = 0;
    for (int32_t l : labels) k = std::max(k, l + 1);
    return static_cast<size_t>(k);
  }

  static std::vector<parhc::WeightedEdge> Partitioned(
      const std::vector<parhc::Point<D>>& pts) {
    parhc::HighDimEmstOptions hopts;
    hopts.eps = 0;
    return parhc::HighDimEmst(pts, hopts);
  }

  void EndToEndPass(const std::vector<parhc::Point<D>>& pts, Answers& a) {
    using namespace parhc;  // NOLINT
    double t0 = Now();
    std::vector<WeightedEdge> mst = Emst(pts, EmstAlgorithm::kMemoGfk);
    emst_s_.push_back(Now() - t0);
    a.emst_weight = Weight(mst);
    t0 = Now();
    std::vector<WeightedEdge> pm = Partitioned(pts);
    part_s_.push_back(Now() - t0);
    a.partitioned_weight = Weight(pm);
    t0 = Now();
    HdbscanResult h = Hdbscan(pts, kMinPts);
    StabilityClusters sc = ExtractStableClusters(h.dendrogram, kMinClusterSize);
    hdbscan_s_.push_back(Now() - t0);
    a.mr_weight = Weight(h.mst);
    a.clusters = CountClusters(sc.label);
    if (passes_.empty()) a.core_dist = std::move(h.core_dist);
  }

  void LayerPass(const std::vector<parhc::Point<D>>& pts, Answers& a) {
    using namespace parhc;  // NOLINT
    const size_t n = pts.size();
    const bool first = passes_.empty();
    {
      ScopedSpan pipe("pipeline.emst");
      std::optional<KdTree<D>> tree;
      double t0 = Now();
      {
        ScopedSpan s("spatial.kdtree_build");
        tree.emplace(pts, /*leaf_size=*/1);
      }
      tree_s_.push_back(Now() - t0);
      PhaseBreakdown ph;
      StatsEpoch epoch(StatsEpoch::kResetPeak);
      t0 = Now();
      std::vector<WeightedEdge> mst;
      {
        ScopedSpan s("emst.memogfk");
        mst = EmstMemoGfkOnTree(*tree, &ph);
      }
      memogfk_s_.push_back(Now() - t0);
      // Counts come from the first pass (dataset 0), so a seed always
      // reports the same dataset's counts whatever the number of passes.
      if (first) emst_c_ = epoch.Delta();
      wspd_s_.push_back(ph.wspd);
      kruskal_s_.push_back(ph.kruskal);
      a.emst_weight = Weight(mst);
    }
    {
      double t0 = Now();
      ScopedSpan s("emst.partitioned");
      a.partitioned_weight = Weight(Partitioned(pts));
      part_s_.push_back(Now() - t0);
    }
    {
      ScopedSpan pipe("pipeline.hdbscan");
      std::optional<KdTree<D>> tree;
      double t0 = Now();
      {
        ScopedSpan s("spatial.kdtree_build");
        tree.emplace(pts, /*leaf_size=*/1);
      }
      tree_s_.push_back(Now() - t0);
      t0 = Now();
      std::vector<double> core;
      {
        ScopedSpan s("spatial.knn");
        std::vector<double> knn = AllKnnDistances(*tree, kMinPts);
        core.resize(n);
        for (size_t i = 0; i < n; ++i) core[i] = knn[i * kMinPts + kMinPts - 1];
      }
      knn_s_.push_back(Now() - t0);
      StatsEpoch epoch;
      t0 = Now();
      std::vector<WeightedEdge> mr;
      {
        ScopedSpan s("hdbscan.mr_mst");
        mr = HdbscanMstOnTree(*tree, core);
      }
      mr_s_.push_back(Now() - t0);
      if (first) mr_c_ = epoch.Delta();
      t0 = Now();
      std::optional<Dendrogram> dendro;
      {
        ScopedSpan s("dendrogram.build");
        dendro.emplace(BuildDendrogramParallel(n, mr, /*source=*/0));
      }
      dendro_s_.push_back(Now() - t0);
      t0 = Now();
      StabilityClusters sc;
      {
        ScopedSpan s("hdbscan.stable_clusters");
        sc = ExtractStableClusters(*dendro, kMinClusterSize);
      }
      stable_s_.push_back(Now() - t0);
      a.mr_weight = Weight(mr);
      a.clusters = CountClusters(sc.label);
      if (first) a.core_dist = std::move(core);
    }
  }

  /// GFLOP/s of the dispatched batch kernel over the dataset's own rows
  /// (every row against a block of rows), single-threaded, plus its
  /// computed bytes per flop: each distance reads one d-double row and
  /// writes one double, for 3d flops (subtract, multiply, add). Below
  /// kSimdMinDim the library's own paths do not call this kernel.
  static void MeasureBatchKernel(const std::vector<parhc::Point<D>>& pts,
                                 double budget_s, Report& rep) {
    const size_t n = pts.size();
    const double* rows = pts[0].x.data();
    std::vector<double> out(n);
    double flops = 0, sink = 0;
    double t0 = Now();
    size_t q = 0;
    {
      ScopedSpan span("geometry.batch_kernel");
      do {
        parhc::simd::BatchSquaredDistancesN(pts[q % n].x.data(), rows, n, D,
                                            D, out.data());
        sink += out[(q + 1) % n];
        flops += 3.0 * D * static_cast<double>(n);
        ++q;
      } while (Now() - t0 < budget_s || q < 8);
    }
    double secs = Now() - t0;
    rep.Add("geometry.batch_kernel_gflops", flops / secs / 1e9, "GFLOP/s");
    rep.Add("geometry.batch_kernel_bytes_per_flop",
            (8.0 * D + 8.0) / (3.0 * D), "B/flop");
    rep.Note("kernel_distance_sum", sink);  // keeps the calls live
  }

  /// HDBSCAN* core distances must equal the minPts column of the wider
  /// kNN prefix matrix — the clustering engine's prefix-matrix path.
  void CheckCoreDistances(Report& rep) const {
    constexpr size_t kWide = 2 * kMinPts;
    const std::vector<parhc::Point<D>>& pts = sets_[0];
    const std::vector<double>& core = passes_[0].core_dist;
    parhc::KdTree<D> tree(pts, /*leaf_size=*/1);
    std::vector<double> knn = parhc::AllKnnDistances(tree, kWide);
    size_t wrong = 0;
    for (size_t i = 0; i < pts.size(); ++i) {
      if (knn[i * kWide + (kMinPts - 1)] != core[i]) ++wrong;
    }
    rep.Attempt(1);
    rep.Failures(wrong ? 1 : 0, std::to_string(wrong) +
                                    " core distances differ from the kNN "
                                    "prefix matrix");
  }

  const Datasets<D>& sets_;
  std::vector<Answers> passes_;
  std::vector<double> emst_s_, part_s_, hdbscan_s_;
  std::vector<double> tree_s_, memogfk_s_, wspd_s_, kruskal_s_, knn_s_, mr_s_,
      dendro_s_, stable_s_;
  parhc::AlgoCounterSnapshot emst_c_, mr_c_;
};

}  // namespace perfbench
