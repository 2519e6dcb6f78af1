// Multi-node sharded serving: the router tier.
//
// A Router fronts N parhc_netserver workers and speaks the same wire
// protocol on both sides, so any client of a single-node server can point
// at a router unchanged. It owns only routing, placement and merging; the
// rest of the query path is shared with the single-node engine:
//
//  * Wire grammar: query verbs, insert coordinates, delete gids and the
//    kOpInsertPoints / kOpGetLabels payloads parse through net/protocol.h
//    (ParseQuery, ParseInsertCoords, ParseDeleteGids, DecodeInsertPoints,
//    DecodeGetLabels) — the same functions ProtocolSession calls.
//  * Reply codecs: every worker reply (points, edges, kNN rows) decodes,
//    and every client reply (labels, kNN rows) encodes, through the
//    net/frame.h codec pairs; worker fan-outs go through one FanOut.
//  * Answer shaper: merged answers are validated and filled by
//    engine/answer.h, and core distances, dendrograms, reachability plots
//    and the per-minPts LRU come from engine/artifact_util.h — the code
//    the dynamic backend runs.
//
// Datasets live in one of two modes:
//
//  * Replicated (created by `gen` / `load`): the creation line is
//    broadcast to every worker — generators and loaders are deterministic,
//    so all replicas hold identical data — and reads round-robin across
//    healthy workers, scaling read throughput with the replica count.
//
//  * Sharded (created by `dyn` / `geninsert`): each ingested point gets a
//    global id from the router's watermark (the same contiguous sequence a
//    single-node dynamic dataset would assign) and is placed on worker
//    SplitMix64(gid) % N (cluster/placement.h). Queries run a distributed
//    build: per-worker partial artifacts (points / kNN rows / per-slice
//    MSTs via the kOp* frame verbs) fan out with bounded concurrency and
//    merge under the distance-decomposition rule (cluster/merge.h), so
//    EMST / HDBSCAN* / kNN answers are bit-identical to a single-node
//    engine over the union — same MST edge set, same Kruskal edge order,
//    same dendrogram, same labels (tests/cluster_test.cc holds this).
//    Response lines differ only in the built=/reused= introspection keys
//    (the router traces its own artifact scheme; a single-node dynamic
//    backend's keys embed LSM content ids no other process can know).
//
// Failure semantics: health checks eject dead upstreams (reads skip them;
// sharded operations whose owners are down fail loudly). A recovered
// worker is re-seeded: replicated datasets replay their creation lines
// (idempotent — the registry replaces by name); sharded slices are
// verified against the placement map via a point export and, when lost,
// restored from the last `save` snapshot if no mutation happened since,
// else the dataset is marked degraded until an operator restores it.
// Partial mutations (a worker failing mid-insert) also degrade the
// dataset rather than serving silently wrong answers.
//
// Trace ids propagate across hops: the router appends " trace=<id>" to
// forwarded lines and wraps every upstream round trip in a "hop:<addr>"
// span, so one client request yields a single trace spanning router and
// workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/merge.h"
#include "cluster/placement.h"
#include "cluster/upstream.h"
#include "engine/artifact_util.h"
#include "engine/executor.h"
#include "net/protocol.h"
#include "net/server.h"

namespace parhc {
namespace cluster {

struct RouterOptions {
  int upstream_timeout_ms = 30000;
  /// Bound on concurrent upstream round trips per fan-out (0 = all
  /// workers at once).
  size_t fanout = 0;
  int health_interval_ms = 1000;
  /// Tests drive HealthPass deterministically instead.
  bool start_health_thread = true;
};

class Router {
 public:
  Router(std::vector<std::string> upstream_addrs, RouterOptions opts = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects and handshakes every upstream (strict: all must be up and
  /// speak net::kProtocolVersion with role "engine"), then starts the
  /// health thread. Returns "" on success.
  std::string Start();
  void Stop();

  /// Executes one wire message with the given front-end options (the
  /// session's show_timing / stats_source / obs).
  net::ProtocolResult Handle(const net::WireMessage& msg,
                             const net::ProtocolOptions& opts);

  UpstreamPool& pool() { return pool_; }

  /// Registers the router's metric sources (per-upstream counters,
  /// dataset gauge) — RouterSessionFactory::RegisterMetrics.
  void RegisterMetrics(obs::Observability& obs);

  /// One health pass at `now_ms` (test hook; the health thread calls this
  /// periodically): retries dead upstreams with doubling backoff and
  /// re-seeds recovered ones.
  void HealthPassNow(uint64_t now_ms);

 private:
  /// Merged-artifact cache of one sharded dataset — the router-tier mirror
  /// of the dynamic backend's global tier, invalidated wholesale when the
  /// dataset's epoch moves.
  struct Merged {
    uint64_t epoch = 0;
    bool mirror_ok = false;
    std::shared_ptr<const std::vector<uint32_t>> dense_gids;  ///< dense->gid
    std::vector<double> coords;  ///< dense-order rows
    std::vector<std::vector<uint32_t>> worker_dense;  ///< worker->dense ids
    /// Worker->ascending live worker-local gids, parallel to worker_dense
    /// (remaps worker MST edge endpoints to dense indices).
    std::vector<std::vector<uint32_t>> worker_local;
    std::unique_ptr<MergerBase> merger;
    bool knn_ok = false;
    size_t knn_k = 0;
    std::vector<double> knn_sq;  ///< n x knn_k sorted squared distances
    ClusteringCache clusterings;
    EmstEntry emst;
  };

  struct Dataset {
    enum class Mode { kReplicated, kSharded };
    Mode mode = Mode::kReplicated;
    std::string name;  ///< registry name (fan-out payloads need it)
    int dim = 0;
    uint64_t order = 0;       ///< creation order (re-seed replay order)
    std::string seed_line;    ///< replicated: the creating gen/load line
    /// Replicated datasets loaded from snapshots may be batch-dynamic on
    /// the workers; the router refuses to forward mutations to them (a
    /// single replica would diverge).
    bool mutable_on_workers = false;
    size_t static_n = 0;      ///< replicated: n reported at creation

    // Sharded state (guarded by mu).
    std::mutex mu;            ///< serializes sharded operations
    ShardMap map;
    size_t live_n = 0;
    uint64_t epoch = 0;       ///< bumped by every successful mutation
    std::string last_save_dir;
    bool dirty_since_save = true;
    std::string degraded;     ///< non-empty: every sharded op errs with this
    std::unique_ptr<Merged> merged;
  };

  // -- verb handlers (router.cc) --
  net::ProtocolResult DispatchLine(const std::string& line,
                                   const net::ProtocolOptions& opts);
  net::ProtocolResult HandleFrame(uint8_t opcode, const std::string& payload,
                                  const net::ProtocolOptions& opts);
  /// Sends `line` to every healthy upstream; replies[i] holds worker i's
  /// raw reply bytes ("" for skipped or failed workers).
  std::vector<std::string> FanLine(const std::string& line);
  std::string Broadcast(const std::string& line, const std::string& verb);
  std::string ForwardRead(const std::string& line, const std::string& verb);
  std::string ForwardFrame(const net::WireMessage& req,
                           const std::string& verb);
  std::string ShardedInsert(Dataset& ds, const std::string& name,
                            const std::vector<std::vector<double>>& rows,
                            const char* verb);
  std::string ShardedDelete(Dataset& ds, const std::string& name,
                            const std::vector<uint32_t>& gids);
  std::string ShardedSave(Dataset& ds, const std::string& name,
                          const std::string& dir);
  std::string ShardedLoad(const std::string& name, const std::string& dir);
  /// Answers `req` over sharded dataset `ds` under its lock, on the build
  /// executor.
  EngineResponse RunSharded(Dataset& ds, const EngineRequest& req);
  void AnswerSharded(Dataset& ds, const EngineRequest& req,
                     EngineResponse* out);
  /// The one router->worker fan-out of the merged pipeline: sends
  /// *reqs[w] to every worker w with a non-null entry (bounded
  /// concurrency), expects a `reply_opcode` frame back and hands its
  /// payload to accept(w, payload), which runs concurrently across
  /// workers and returns "" or a complaint. Returns "" when every worker
  /// answered, else the first failing worker's error in worker order:
  /// "worker <addr> failed during <phase>", the worker's own text reply
  /// (*worker_text set), "unexpected frame reply", or "worker <addr>
  /// <complaint>".
  std::string FanOut(
      const std::vector<const net::WireMessage*>& reqs, uint8_t reply_opcode,
      const char* phase,
      const std::function<std::string(size_t, const std::string&)>& accept,
      bool* worker_text = nullptr);
  /// FanOut of kOpKnnQuery frames for `count` points at width k; appends
  /// each target's rows to *rows (inputs of MergeKnnRows).
  std::string FanKnn(const std::vector<const net::WireMessage*>& reqs,
                     uint32_t count, uint32_t k,
                     std::vector<std::vector<double>>* rows,
                     bool* worker_text = nullptr);
  /// Distance-decomposition merge: FanOut of per-slice MST requests,
  /// kOpEdgesReply endpoints remapped to dense indices, plus the `cross`
  /// candidates, through one Kruskal.
  bool MergeSliceMsts(Dataset& ds,
                      const std::vector<const net::WireMessage*>& reqs,
                      const char* phase,
                      const std::function<std::vector<WeightedEdge>()>& cross,
                      std::vector<WeightedEdge>* mst, std::string* fail);
  bool EnsureMirror(Dataset& ds, EngineResponse* out, std::string* fail);
  bool EnsureKnn(Dataset& ds, size_t k, EngineResponse* out,
                 std::string* fail);
  ClusteringEntry* Hdbscan(Dataset& ds, int min_pts, bool need_plot,
                           EngineResponse* out, std::string* fail);
  bool EnsureEmst(Dataset& ds, EngineResponse* out, std::string* fail);
  void Reseed(size_t worker);
  void ReseedSharded(size_t worker, Dataset& ds);
  std::string ClusterStatsText() const;
  std::string RouterCountersText() const;

  std::shared_ptr<Dataset> FindDataset(const std::string& name);

  RouterOptions opts_;
  UpstreamPool pool_;
  BuildExecutor executor_;

  mutable std::shared_mutex mu_;  ///< guards datasets_ (brief lookups only)
  std::map<std::string, std::shared_ptr<Dataset>> datasets_;
  uint64_t next_order_ = 0;

  std::thread health_;
  std::atomic<bool> stop_{false};

  std::atomic<uint64_t> forwards_{0};  ///< verbatim round-robin forwards
  std::atomic<uint64_t> fanouts_{0};   ///< broadcast / sharded fan-outs
  std::atomic<uint64_t> merges_{0};    ///< merged artifact builds
};

/// One accepted connection on the router's NetServer.
class RouterSession : public net::SessionHandler {
 public:
  RouterSession(Router& router, net::ProtocolOptions opts)
      : router_(router), opts_(opts) {}

  net::ProtocolResult Handle(const net::WireMessage& msg) override;

 private:
  Router& router_;
  net::ProtocolOptions opts_;
};

class RouterSessionFactory : public net::SessionFactory {
 public:
  explicit RouterSessionFactory(Router& router) : router_(router) {}

  std::shared_ptr<net::SessionHandler> NewSession(
      const net::SessionContext& ctx) override {
    net::ProtocolOptions opts;
    opts.show_timing = ctx.show_timing;
    opts.stats_source = ctx.stats_source;
    opts.obs = ctx.obs;
    return std::make_shared<RouterSession>(router_, opts);
  }

  void RegisterMetrics(obs::Observability& obs) override {
    router_.RegisterMetrics(obs);
  }

 private:
  Router& router_;
};

}  // namespace cluster
}  // namespace parhc
