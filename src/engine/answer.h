// The answer shaper shared by every query backend: the immutable artifact
// DAG (engine/artifacts.h), the batch-dynamic shard forest
// (dynamic/artifacts.h) and the router's merged cache (cluster/router.cc).
// Each backend only builds artifacts. Which requests are valid, which
// error an invalid one gets (and in what order the checks run), and how
// cached artifacts become an EngineResponse are decided here, once — so
// the three backends answer byte-identically by construction.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "dendrogram/cluster_extraction.h"
#include "engine/artifact_util.h"
#include "engine/request.h"
#include "hdbscan/stability.h"

namespace parhc {

/// kEmst / kSingleLinkage read the EMST; every other query type reads a
/// per-minPts clustering.
inline bool IsEmstFamily(QueryType type) {
  return type == QueryType::kEmst || type == QueryType::kSingleLinkage;
}

/// The neighbor-count error, shared with ClusteringEngine::KnnForQueries.
inline constexpr char kKOutOfRange[] = "k must be in [1, n]";

/// Checks `req` against a dataset of `n` live points. Returns nullptr when
/// the query may run, else the error message. `eps_emst` says whether the
/// backend serves the partitioned `emst <name> eps <e>` path (static
/// datasets only).
inline const char* ValidateQuery(const EngineRequest& req, size_t n,
                                 bool eps_emst) {
  if (n == 0) return "dataset is empty";
  if (req.type == QueryType::kEmst) {
    return req.emst_eps >= 0 && !eps_emst
               ? "eps EMST is supported on static datasets only"
               : nullptr;
  }
  if (req.type == QueryType::kSingleLinkage) {
    return req.k < 1 || req.k > n ? kKOutOfRange : nullptr;
  }
  if (req.min_pts < 1 || static_cast<size_t>(req.min_pts) > n) {
    return "min_pts must be in [1, n]";
  }
  if (req.type == QueryType::kStableClusters && req.min_cluster_size < 2) {
    return "min_cluster_size must be >= 2";
  }
  return nullptr;
}

/// Answers an EMST-family request from a cached EMST (whose single-linkage
/// dendrogram must be built for kSingleLinkage). `point_ids` maps dense
/// indices to global ids (null for static datasets).
inline void FillEmstResponse(
    const EngineRequest& req, const EmstEntry& e,
    std::shared_ptr<const std::vector<uint32_t>> point_ids,
    EngineResponse* out) {
  out->mst = e.mst;
  out->mst_weight = e.mst_weight;
  out->point_ids = std::move(point_ids);
  if (req.type == QueryType::kSingleLinkage) {
    out->dendrogram = e.dendrogram;
    out->labels = KClusters(*e.dendrogram, req.k);
    SummarizeLabels(out->labels, out);
  }
  out->ok = true;
}

/// Answers an HDBSCAN*-family request from a cached clustering (dendrogram
/// built; reachability plot built for kReachability).
inline void FillClusteringResponse(
    const EngineRequest& req, const ClusteringArtifacts& e,
    std::shared_ptr<const std::vector<uint32_t>> point_ids,
    EngineResponse* out) {
  out->core_dist = e.core_dist;
  out->point_ids = std::move(point_ids);
  switch (req.type) {
    case QueryType::kHdbscan:
      out->mst = e.mst;
      out->mst_weight = e.mst_weight;
      out->dendrogram = e.dendrogram;
      break;
    case QueryType::kDbscanStarAt:
      out->labels = DbscanStarLabels(*e.dendrogram, *e.core_dist, req.eps);
      SummarizeLabels(out->labels, out);
      break;
    case QueryType::kReachability:
      out->plot = e.plot;
      break;
    case QueryType::kStableClusters: {
      StabilityClusters sc =
          ExtractStableClusters(*e.dendrogram, req.min_cluster_size);
      out->labels = std::move(sc.label);
      out->stability = std::move(sc.stability);
      SummarizeLabels(out->labels, out);
      break;
    }
    default:
      break;
  }
  out->ok = true;
}

}  // namespace parhc
