// Writes beside reads on one batch-dynamic dataset, over the wire.
//
// Set-up starts a server, creates a dynamic dataset, sends the base points
// as kOpInsertPoints frames and warms `emst` and `hdbscan 16`. Each round,
// over one connection: insert 1% of the base as one frame -> `emst` ->
// `hdbscan 16` -> delete 3 random live base gids and the batch inserted two
// rounds before -> `emst`. Every reply must be the expected `ok` line; at
// the end the forest EMST must equal a from-scratch MemoGFK over the live
// points.
//
// The two-batch window keeps the live set the same size, so every round
// does the same work whatever the round number: the new batch's shard
// arrives beside the previous batch's; deleting the batch before that
// empties its shard, and the shard forest compacts and merges the rest.
// Without the window the forest's merge cascade would make a round's cost
// follow the round number like a binary counter, and the figures would
// depend on how many rounds a run gets through.
//
// Untraced rounds give ingest_pts_per_s and per-round medians of the
// insert, EMST and HDBSCAN* round trips. Traced rounds also
// mirror the round on a twin dataset through ClusteringEngine::InsertBatch
// / DeleteBatch / Run, whose built/reused artifact keys give the
// shard-forest reuse counts.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "harness.h"
#include "net/frame.h"
#include "parhc.h"
#include "static_pipeline.h"
#include "wire.h"

namespace perfbench {

template <int D>
class Churn {
 public:
  using Points = std::vector<parhc::Point<D>>;

  /// A server with `base` loaded over the wire and its EMST and HDBSCAN*
  /// warm; with `twin`, the same base also goes straight into the engine.
  Churn(const Points& base, bool twin, uint64_t seed, Report& rep)
      : rep_(rep),
        batch_(std::max<size_t>(1, base.size() / 100)),
        rng_(seed * 0x2545f4914f6cdd1dull + 3),
        host_(std::make_unique<ServerHost>(rep)),
        conn_(host_->port()),
        twin_(twin) {
    base_.Insert(base);
    Expect(Call("dyn " + std::string(kName) + " " + std::to_string(D) + "\n"),
           "dyn");
    for (size_t b = 0; b < base.size(); b += kBaseFrame) {
      Expect(Call(InsertFrame(kName, base, b,
                              std::min(base.size(), b + kBaseFrame))),
             "base insert frame");
    }
    Expect(Call(emst_line_), "warm emst");
    Expect(Call(hdb_line_), "warm hdbscan");
    if (twin) {
      parhc::ClusteringEngine& e = host_->engine();
      rep.Check(e.registry().TryAddDynamic(kTwin, D).empty(), "twin dataset");
      rep.Check(e.InsertBatch(kTwin, Rows(base)).empty(), "twin base insert");
      parhc::EngineRequest req;
      req.dataset = kTwin;
      req.type = parhc::QueryType::kEmst;
      rep.Check(e.Run(req).ok, "twin warm emst");
      req.type = parhc::QueryType::kHdbscan;
      req.min_pts = kMinPts;
      rep.Check(e.Run(req).ok, "twin warm hdbscan");
    }
  }

  size_t batch() const { return batch_; }

  /// One round with `pts` as the inserted batch; returns its wall time in
  /// seconds (the twin mirror of a traced round excluded).
  double Round(const Points& pts) {
    // Round inputs, prepared outside the timed region.
    const std::string frame = InsertFrame(kName, pts, 0, pts.size());
    const uint32_t first_gid = static_cast<uint32_t>(base_.by_gid.size());
    base_.by_gid.insert(base_.by_gid.end(), pts.begin(), pts.end());
    window_.push_back(
        {first_gid, first_gid + static_cast<uint32_t>(pts.size())});
    std::vector<uint32_t> doomed = base_.TakeRandom(kDeletesPerRound, rng_);
    if (window_.size() > kWindow) {
      for (uint32_t g = window_.front().first; g < window_.front().second;
           ++g) {
        doomed.push_back(g);
      }
      window_.pop_front();
    }
    std::string del_line = std::string("delete ") + kName;
    for (uint32_t g : doomed) del_line += " " + std::to_string(g);
    del_line += "\n";
    char want_insert[96];
    snprintf(want_insert, sizeof want_insert,
             "ok insert %s n=%zu gids=[%u,%zu)\n", kName, pts.size(),
             first_gid, first_gid + pts.size());
    const std::string want_delete = std::string("ok delete ") + kName +
                                    " deleted=" +
                                    std::to_string(doomed.size()) + "\n";

    std::string reply;
    double t0 = Now();
    {
      ScopedSpan s("net.insert_frame");
      reply = conn_.Call(frame);
    }
    double t1 = Now();
    rep_.Check(reply == want_insert, "insert frame: " + reply);
    insert_ms_.push_back((t1 - t0) * 1e3);
    {
      ScopedSpan s("net.emst");
      Expect(reply = conn_.Call(emst_line_), "emst after insert");
    }
    double t2 = Now();
    emst_ins_ms_.push_back((t2 - t1) * 1e3);
    {
      ScopedSpan s("net.hdbscan");
      Expect(reply = conn_.Call(hdb_line_), "hdbscan after insert");
    }
    double t3 = Now();
    hdb_ms_.push_back((t3 - t2) * 1e3);
    {
      ScopedSpan s("net.delete");
      reply = conn_.Call(del_line);
    }
    rep_.Check(reply == want_delete, "delete: " + reply);
    double t4 = Now();
    {
      ScopedSpan s("net.emst");
      Expect(reply = conn_.Call(emst_line_), "emst after delete");
    }
    double t5 = Now();
    emst_del_ms_.push_back((t5 - t4) * 1e3);
    busy_s_ += t5 - t0;
    inserted_ += pts.size();
    if (twin_) Mirror(pts, doomed, (t1 - t0) * 1e3);
    return t5 - t0;
  }

  void ReportEndToEnd(Report& rep) const {
    rep.Add("ingest_pts_per_s", static_cast<double>(inserted_) / busy_s_,
            "1/s");
    rep.Add("insert_p50_ms", Median(insert_ms_), "ms");
    rep.Add("emst_after_insert_ms", Median(emst_ins_ms_), "ms");
    rep.Add("emst_after_delete_ms", Median(emst_del_ms_), "ms");
    rep.Add("hdbscan_after_insert_ms", Median(hdb_ms_), "ms");
    rep.Note("churn_rounds", static_cast<double>(insert_ms_.size()));
  }

  void ReportLayers(Report& rep) const {
    const double rounds = static_cast<double>(insert_ms_.size());
    rep.Add("dynamic.insert_ms", Median(twin_s_.insert_ms), "ms");
    rep.Add("dynamic.delete_ms", Median(twin_s_.delete_ms), "ms");
    rep.Add("net.insert_frame_ms", Median(twin_s_.frame_ms), "ms");
    rep.Add("dynamic.artifact_reuse_ratio", Median(twin_s_.reuse), "ratio");
    rep.Add("dynamic.shards", Median(twin_s_.shards), "count");
    rep.Add("dynamic.semst_rebuilds_after_delete",
            Median(twin_s_.semst_rebuilds), "count");
    rep.Add("dynamic.knn_rebuilds",
            static_cast<double>(twin_s_.knn_rebuilds) / rounds, "per_round");
    rep.Note("churn_rounds", rounds);
  }

  /// Oracle: the forest's EMST over the live set equals a from-scratch
  /// MemoGFK over the same points.
  void Check(Report& rep) {
    parhc::EngineRequest req;
    req.dataset = kName;
    req.type = parhc::QueryType::kEmst;
    parhc::EngineResponse final_emst = host_->engine().Run(req);
    double oracle = Weight(parhc::EmstMemoGfk(LivePoints()));
    rep.Note("churn_emst_weight", oracle);
    rep.Check(final_emst.ok && SameWeight(final_emst.mst_weight, oracle),
              "forest EMST differs from a from-scratch MemoGFK");
  }

 private:
  static constexpr const char* kName = "churn";
  static constexpr const char* kTwin = "twin";
  static constexpr size_t kBaseFrame = 20000;  ///< base points per frame
  static constexpr size_t kDeletesPerRound = 3;
  static constexpr size_t kWindow = 2;  ///< round batches kept live

  /// The points inserted so far, by global id, and which base points are
  /// still live.
  struct BaseSet {
    Points by_gid;
    std::vector<uint32_t> live;

    void Insert(const Points& pts) {
      for (const parhc::Point<D>& p : pts) {
        live.push_back(static_cast<uint32_t>(by_gid.size()));
        by_gid.push_back(p);
      }
    }
    /// Removes and returns `k` random live gids.
    std::vector<uint32_t> TakeRandom(size_t k, std::mt19937_64& rng) {
      std::vector<uint32_t> out;
      for (size_t i = 0; i < k && !live.empty(); ++i) {
        size_t j = rng() % live.size();
        out.push_back(live[j]);
        live[j] = live.back();
        live.pop_back();
      }
      std::sort(out.begin(), out.end());
      return out;
    }
  };

  /// The live base points and the window's batches.
  Points LivePoints() const {
    std::vector<uint32_t> ids = base_.live;
    for (const auto& [begin, end] : window_) {
      for (uint32_t g = begin; g < end; ++g) ids.push_back(g);
    }
    std::sort(ids.begin(), ids.end());
    Points out;
    for (uint32_t g : ids) out.push_back(base_.by_gid[g]);
    return out;
  }

  /// Per-round samples of the traced run's direct calls.
  struct TwinSamples {
    std::vector<double> insert_ms, delete_ms, frame_ms, reuse, shards,
        semst_rebuilds;
    size_t knn_rebuilds = 0;
  };

  static std::string InsertFrame(const std::string& name, const Points& pts,
                                 size_t begin, size_t end) {
    std::string p;
    parhc::net::PutU16(&p, static_cast<uint16_t>(name.size()));
    p += name;
    parhc::net::PutU16(&p, D);
    parhc::net::PutU32(&p, static_cast<uint32_t>(end - begin));
    for (size_t i = begin; i < end; ++i) {
      for (int d = 0; d < D; ++d) parhc::net::PutF64(&p, pts[i][d]);
    }
    return parhc::net::EncodeFrame(parhc::net::kOpInsertPoints, p);
  }

  static std::vector<std::vector<double>> Rows(const Points& pts) {
    std::vector<std::vector<double>> rows;
    for (const parhc::Point<D>& p : pts) {
      rows.emplace_back(p.x.begin(), p.x.end());
    }
    return rows;
  }

  static size_t CountKeys(const std::vector<std::string>& keys,
                          const char* prefix) {
    size_t n = 0;
    for (const std::string& k : keys) n += k.rfind(prefix, 0) == 0;
    return n;
  }

  std::string Call(const std::string& request) { return conn_.Call(request); }

  void Expect(const std::string& reply, const std::string& what) {
    rep_.Check(reply.rfind("ok ", 0) == 0, what + ": " + reply);
  }

  /// Mirrors a round on the twin through the engine's public calls.
  void Mirror(const Points& pts, const std::vector<uint32_t>& doomed,
              double frame_ms) {
    parhc::ClusteringEngine& engine = host_->engine();
    parhc::EngineRequest req;
    req.dataset = kTwin;
    double d0 = Now();
    {
      ScopedSpan s("dynamic.insert");
      rep_.Check(engine.InsertBatch(kTwin, Rows(pts)).empty(), "twin insert");
    }
    double d1 = Now();
    twin_s_.insert_ms.push_back((d1 - d0) * 1e3);
    twin_s_.frame_ms.push_back(frame_ms - (d1 - d0) * 1e3);
    req.type = parhc::QueryType::kEmst;
    parhc::EngineResponse r;
    {
      ScopedSpan s("engine.run");
      r = engine.Run(req);
    }
    rep_.Check(r.ok, "twin emst after insert");
    double built = static_cast<double>(r.built.size());
    double reused = static_cast<double>(r.reused.size());
    twin_s_.reuse.push_back(reused / std::max(1.0, built + reused));
    twin_s_.shards.push_back(static_cast<double>(
        CountKeys(r.built, "semst@") + CountKeys(r.reused, "semst@")));
    req.type = parhc::QueryType::kHdbscan;
    req.min_pts = kMinPts;
    {
      ScopedSpan s("engine.run");
      r = engine.Run(req);
    }
    rep_.Check(r.ok, "twin hdbscan after insert");
    twin_s_.knn_rebuilds += CountKeys(r.built, "knn@") > 0;
    double d2 = Now();
    {
      ScopedSpan s("dynamic.delete");
      size_t deleted = 0;
      rep_.Check(engine.DeleteBatch(kTwin, doomed, &deleted).empty() &&
                     deleted == doomed.size(),
                 "twin delete");
    }
    twin_s_.delete_ms.push_back((Now() - d2) * 1e3);
    req.type = parhc::QueryType::kEmst;
    {
      ScopedSpan s("engine.run");
      r = engine.Run(req);
    }
    rep_.Check(r.ok, "twin emst after delete");
    twin_s_.semst_rebuilds.push_back(
        static_cast<double>(CountKeys(r.built, "semst@")));
  }

  Report& rep_;
  const size_t batch_;
  std::mt19937_64 rng_;
  std::unique_ptr<ServerHost> host_;
  Conn conn_;
  const bool twin_;
  const std::string emst_line_ = std::string("emst ") + kName + "\n";
  const std::string hdb_line_ = std::string("hdbscan ") + kName + " " +
                                std::to_string(kMinPts) + "\n";
  BaseSet base_;
  std::deque<std::pair<uint32_t, uint32_t>> window_;  ///< live batch gids
  std::vector<double> insert_ms_, emst_ins_ms_, emst_del_ms_, hdb_ms_;
  double busy_s_ = 0;
  size_t inserted_ = 0;
  TwinSamples twin_s_;
};

}  // namespace perfbench
