// Router-tier verb implementations (see router.h for the architecture and
// exactness/failure contracts).
//
// Requests are parsed by the single-node wire grammar (net/protocol.h),
// reply frames go through the frame.h codecs, and merged answers are
// validated and shaped by engine/answer.h: a client sees the same bytes
// whether it talks to one worker or to a router fronting many — except
// the built=/reused= keys, which name the router's own merged artifacts.
#include "cluster/router.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "engine/answer.h"
#include "obs/trace.h"
#include "store/manifest.h"

namespace parhc {
namespace cluster {

namespace {

using net::StrPrintf;

uint64_t NowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Worker subdirectory for worker `w` under a sharded save/load dir.
std::string WorkerDir(const std::string& dir, size_t w) {
  return dir + "/w" + std::to_string(w);
}

/// Dense index of a worker-local gid via the slice's ascending-local
/// array (edge endpoints arrive as worker-local gids; slices are small
/// enough that a binary search per endpoint is in the noise next to the
/// network round trip).
bool DenseOfLocal(const std::vector<uint32_t>& worker_local,
                  const std::vector<uint32_t>& worker_dense, uint32_t local,
                  uint32_t* dense) {
  auto it = std::lower_bound(worker_local.begin(), worker_local.end(), local);
  if (it == worker_local.end() || *it != local) return false;
  *dense = worker_dense[static_cast<size_t>(it - worker_local.begin())];
  return true;
}

/// A router->worker frame whose payload starts with the dataset name
/// (u16 length + bytes), followed by `tail`.
net::WireMessage NameFrame(uint8_t opcode, const std::string& name,
                           const std::string& tail = "") {
  net::WireMessage msg;
  msg.binary = true;
  msg.opcode = opcode;
  net::PutU16(&msg.payload, static_cast<uint16_t>(name.size()));
  msg.payload += name;
  msg.payload += tail;
  return msg;
}

/// `req` for every worker whose slice is non-empty, null for the rest
/// (the target list Router::FanOut takes).
template <typename Slice>
std::vector<const net::WireMessage*> ToLiveSlices(
    const std::vector<Slice>& slices, const net::WireMessage& req) {
  std::vector<const net::WireMessage*> targets(slices.size(), nullptr);
  for (size_t w = 0; w < slices.size(); ++w) {
    if (!slices[w].empty()) targets[w] = &req;
  }
  return targets;
}

}  // namespace

Router::Router(std::vector<std::string> upstream_addrs, RouterOptions opts)
    : opts_(opts),
      pool_(std::move(upstream_addrs), opts.upstream_timeout_ms, opts.fanout) {}

Router::~Router() { Stop(); }

std::string Router::Start() {
  std::string err = pool_.ConnectAll();
  if (!err.empty()) return err;
  if (opts_.start_health_thread) {
    stop_.store(false, std::memory_order_release);
    health_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts_.health_interval_ms));
        if (stop_.load(std::memory_order_acquire)) break;
        HealthPassNow(NowMs());
      }
    });
  }
  return "";
}

void Router::Stop() {
  stop_.store(true, std::memory_order_release);
  if (health_.joinable()) health_.join();
}

void Router::HealthPassNow(uint64_t now_ms) {
  for (size_t w : pool_.HealthPass(now_ms)) Reseed(w);
}

std::shared_ptr<Router::Dataset> Router::FindDataset(const std::string& name) {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = datasets_.find(name);
  return it == datasets_.end() ? nullptr : it->second;
}

// ---- upstream fan-out / forwarding primitives ---------------------------

std::vector<std::string> Router::FanLine(const std::string& line) {
  fanouts_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::string> replies(pool_.size());
  pool_.ForEach([&](size_t i, Upstream& up) {
    if (!up.healthy()) return;
    net::WireMessage req;
    req.text = line;
    net::WireMessage reply;
    std::string raw;
    if (up.Roundtrip(req, &reply, &raw)) replies[i] = raw;
  });
  return replies;
}

std::string Router::Broadcast(const std::string& line,
                              const std::string& verb) {
  for (const std::string& r : FanLine(line)) {
    if (!r.empty()) return r;
  }
  return StrPrintf("err %s: no healthy upstream\n", verb.c_str());
}

std::string Router::ForwardRead(const std::string& line,
                                const std::string& verb) {
  net::WireMessage req;
  req.text = line;
  return ForwardFrame(req, verb);
}

std::string Router::ForwardFrame(const net::WireMessage& req,
                                 const std::string& verb) {
  forwards_.fetch_add(1, std::memory_order_relaxed);
  for (size_t attempt = 0; attempt < pool_.size(); ++attempt) {
    Upstream* up = pool_.NextHealthy();
    if (up == nullptr) break;
    net::WireMessage reply;
    std::string raw;
    if (up->Roundtrip(req, &reply, &raw)) return raw;
  }
  return StrPrintf("err %s: no healthy upstream\n", verb.c_str());
}

// ---- sharded mutations --------------------------------------------------

std::string Router::ShardedInsert(Dataset& ds, const std::string& name,
                                  const std::vector<std::vector<double>>& rows,
                                  const char* verb) {
  if (!ds.degraded.empty()) {
    return StrPrintf("err %s %s: %s\n", verb, name.c_str(),
                     ds.degraded.c_str());
  }
  size_t w_count = pool_.size();
  uint32_t first = ds.map.next_gid;
  // Owners are derived from the un-advanced watermark; the map only
  // mutates after every owner acknowledged its sub-batch.
  std::vector<std::vector<double>> flat(w_count);
  std::vector<size_t> counts(w_count, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    size_t w = OwnerOfGid(first + static_cast<uint32_t>(i), w_count);
    ++counts[w];
    flat[w].insert(flat[w].end(), rows[i].begin(), rows[i].end());
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (counts[w] != 0 && !pool_.at(w).healthy()) {
      return StrPrintf("err %s %s: worker %s is unhealthy\n", verb,
                       name.c_str(), pool_.at(w).addr().c_str());
    }
  }
  std::vector<uint32_t> wfirst(w_count, 0);
  std::vector<uint8_t> ok(w_count, 1);
  std::vector<std::string> errs(w_count);
  std::atomic<bool> io_fail{false};
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (counts[w] == 0) return;
    std::string payload;
    net::PutU16(&payload, static_cast<uint16_t>(name.size()));
    payload += name;
    net::PutU16(&payload, static_cast<uint16_t>(ds.dim));
    net::PutU32(&payload, static_cast<uint32_t>(counts[w]));
    for (double v : flat[w]) net::PutF64(&payload, v);
    net::WireMessage req;
    req.binary = true;
    req.opcode = net::kOpInsertPoints;
    req.payload = std::move(payload);
    net::WireMessage reply;
    if (!up.Roundtrip(req, &reply, nullptr)) {
      ok[w] = 0;
      io_fail.store(true, std::memory_order_relaxed);
      errs[w] = "worker " + up.addr() + " failed mid-insert";
      return;
    }
    unsigned long n = 0;
    unsigned a = 0, b = 0;
    if (reply.binary ||
        sscanf(reply.text.c_str(), "ok insert %*s n=%lu gids=[%u,%u)", &n, &a,
               &b) != 3 ||
        n != counts[w]) {
      ok[w] = 0;
      errs[w] = reply.binary ? "unexpected frame reply" : reply.text;
      return;
    }
    wfirst[w] = a;
  });
  size_t mutated = 0, failed = 0;
  std::string first_err;
  for (size_t w = 0; w < w_count; ++w) {
    if (counts[w] == 0) continue;
    if (ok[w]) {
      ++mutated;
    } else {
      ++failed;
      if (first_err.empty()) first_err = errs[w];
    }
  }
  if (failed != 0) {
    // A clean refusal with no other worker mutated leaves the cluster
    // consistent; anything else (I/O loss mid-batch, mixed outcomes)
    // leaves worker state unknowable — stop serving wrong answers.
    if (mutated != 0 || io_fail.load(std::memory_order_relaxed)) {
      ds.degraded = "partial insert failure (" + first_err +
                    "); restore from a snapshot";
      ds.epoch++;
    }
    return StrPrintf("err %s %s: %s\n", verb, name.c_str(), first_err.c_str());
  }
  ds.map.Allocate(rows.size());
  std::vector<uint32_t> next_local = wfirst;
  for (uint32_t g = first; g < first + static_cast<uint32_t>(rows.size());
       ++g) {
    ds.map.local[g] = next_local[ds.map.owner[g]]++;
  }
  ds.live_n += rows.size();
  ds.epoch++;
  ds.dirty_since_save = true;
  return StrPrintf("ok %s %s n=%zu gids=[%u,%u)\n", verb, name.c_str(),
                   rows.size(), first,
                   first + static_cast<uint32_t>(rows.size()));
}

std::string Router::ShardedDelete(Dataset& ds, const std::string& name,
                                  const std::vector<uint32_t>& gids) {
  if (!ds.degraded.empty()) {
    return StrPrintf("err delete %s: %s\n", name.c_str(), ds.degraded.c_str());
  }
  size_t w_count = pool_.size();
  std::vector<std::vector<uint32_t>> locals(w_count);
  std::set<uint32_t> pending;
  for (uint32_t g : gids) {
    if (g >= ds.map.next_gid || ds.map.dead[g]) continue;
    if (!pending.insert(g).second) continue;  // duplicate in this request
    locals[ds.map.owner[g]].push_back(ds.map.local[g]);
  }
  // Unknown or already-dead ids are skipped, like the single-node
  // DeleteIds contract.
  if (pending.empty()) {
    return StrPrintf("ok delete %s deleted=0\n", name.c_str());
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (!locals[w].empty() && !pool_.at(w).healthy()) {
      return StrPrintf("err delete %s: worker %s is unhealthy\n", name.c_str(),
                       pool_.at(w).addr().c_str());
    }
  }
  std::vector<uint8_t> ok(w_count, 1);
  std::vector<std::string> errs(w_count);
  std::atomic<bool> io_fail{false};
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (locals[w].empty()) return;
    std::string line = "delete " + name;
    for (uint32_t l : locals[w]) line += ' ' + std::to_string(l);
    std::string reply;
    if (!up.SendLine(line, &reply)) {
      ok[w] = 0;
      io_fail.store(true, std::memory_order_relaxed);
      errs[w] = "worker " + up.addr() + " failed mid-delete";
      return;
    }
    unsigned long deleted = 0;
    if (sscanf(reply.c_str(), "ok delete %*s deleted=%lu", &deleted) != 1 ||
        deleted != locals[w].size()) {
      ok[w] = 0;
      errs[w] = reply;
    }
  });
  size_t mutated = 0, failed = 0;
  std::string first_err;
  for (size_t w = 0; w < w_count; ++w) {
    if (locals[w].empty()) continue;
    if (ok[w]) {
      ++mutated;
    } else {
      ++failed;
      if (first_err.empty()) first_err = errs[w];
    }
  }
  if (failed != 0) {
    if (mutated != 0 || io_fail.load(std::memory_order_relaxed)) {
      ds.degraded = "partial delete failure (" + first_err +
                    "); restore from a snapshot";
      ds.epoch++;
    }
    return StrPrintf("err delete %s: %s\n", name.c_str(), first_err.c_str());
  }
  for (uint32_t g : pending) ds.map.dead[g] = 1;
  ds.live_n -= pending.size();
  ds.epoch++;
  ds.dirty_since_save = true;
  return StrPrintf("ok delete %s deleted=%zu\n", name.c_str(), pending.size());
}

std::string Router::ShardedSave(Dataset& ds, const std::string& name,
                                const std::string& dir) {
  if (!ds.degraded.empty()) {
    return StrPrintf("err save %s: %s\n", name.c_str(), ds.degraded.c_str());
  }
  if (pool_.HealthyCount() != pool_.size()) {
    return StrPrintf("err save %s: need all %zu workers healthy\n",
                     name.c_str(), pool_.size());
  }
  std::vector<uint8_t> ok(pool_.size(), 0);
  std::vector<std::string> errs(pool_.size());
  pool_.ForEach([&](size_t w, Upstream& up) {
    std::string reply;
    if (!up.SendLine("save " + name + ' ' + WorkerDir(dir, w), &reply)) {
      errs[w] = "worker " + up.addr() + " failed during save";
      return;
    }
    if (reply.rfind("ok save ", 0) != 0) {
      errs[w] = reply;
      return;
    }
    ok[w] = 1;
  });
  for (size_t w = 0; w < pool_.size(); ++w) {
    if (!ok[w]) {
      return StrPrintf("err save %s: %s\n", name.c_str(), errs[w].c_str());
    }
  }
  EnsureDatasetDir(dir);
  SaveShardMap(dir + "/cluster.map", static_cast<uint32_t>(ds.dim), ds.map);
  ds.last_save_dir = dir;
  ds.dirty_since_save = false;
  return StrPrintf("ok save %s dir=%s\n", name.c_str(), dir.c_str());
}

std::string Router::ShardedLoad(const std::string& name,
                                const std::string& dir) {
  uint32_t dim = 0;
  ShardMap map;
  try {
    map = LoadShardMap(dir + "/cluster.map", &dim);
  } catch (const std::exception& e) {
    return StrPrintf("err load %s: %s\n", name.c_str(), e.what());
  }
  if (map.workers != pool_.size()) {
    return StrPrintf("err load %s: cluster map expects %u workers, have %zu\n",
                     name.c_str(), map.workers, pool_.size());
  }
  if (pool_.HealthyCount() != pool_.size()) {
    return StrPrintf("err load %s: need all %zu workers healthy\n",
                     name.c_str(), pool_.size());
  }
  std::vector<uint8_t> ok(pool_.size(), 0);
  std::vector<std::string> errs(pool_.size());
  pool_.ForEach([&](size_t w, Upstream& up) {
    std::string reply;
    if (!up.SendLine("load " + name + " snap " + WorkerDir(dir, w), &reply)) {
      errs[w] = "worker " + up.addr() + " failed during load";
      return;
    }
    if (reply.rfind("ok load ", 0) != 0) {
      errs[w] = reply;
      return;
    }
    ok[w] = 1;
  });
  for (size_t w = 0; w < pool_.size(); ++w) {
    if (!ok[w]) {
      return StrPrintf("err load %s: %s\n", name.c_str(), errs[w].c_str());
    }
  }
  auto ds = std::make_shared<Dataset>();
  ds->mode = Dataset::Mode::kSharded;
  ds->name = name;
  ds->dim = static_cast<int>(dim);
  ds->map = std::move(map);
  ds->live_n = ds->map.LiveCount();
  ds->epoch = 1;
  ds->last_save_dir = dir;
  ds->dirty_since_save = false;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ds->order = next_order_++;
    datasets_[name] = ds;
  }
  return StrPrintf("ok load %s dim=%d n=%zu warm\n", name.c_str(), ds->dim,
                   ds->live_n);
}

// ---- merged query pipeline (sharded datasets) ---------------------------

std::string Router::FanOut(
    const std::vector<const net::WireMessage*>& reqs, uint8_t reply_opcode,
    const char* phase,
    const std::function<std::string(size_t, const std::string&)>& accept,
    bool* worker_text) {
  std::vector<std::string> errs(pool_.size());
  std::vector<uint8_t> verbatim(pool_.size(), 0);
  pool_.ForEach([&](size_t w, Upstream& up) {
    if (reqs[w] == nullptr) return;
    net::WireMessage reply;
    if (!up.Roundtrip(*reqs[w], &reply, nullptr)) {
      errs[w] = "worker " + up.addr() + " failed during " + phase;
    } else if (!reply.binary) {
      errs[w] = reply.text;
      verbatim[w] = 1;
    } else if (reply.opcode != reply_opcode) {
      errs[w] = "unexpected frame reply";
    } else if (std::string bad = accept(w, reply.payload); !bad.empty()) {
      errs[w] = "worker " + up.addr() + ' ' + bad;
    }
  });
  for (size_t w = 0; w < errs.size(); ++w) {
    if (errs[w].empty()) continue;
    if (worker_text != nullptr) *worker_text = verbatim[w] != 0;
    return errs[w];
  }
  return "";
}

std::string Router::FanKnn(const std::vector<const net::WireMessage*>& reqs,
                           uint32_t count, uint32_t k,
                           std::vector<std::vector<double>>* rows,
                           bool* worker_text) {
  std::vector<std::vector<double>> per(pool_.size());
  std::string err = FanOut(
      reqs, net::kOpKnnReply, "kNN fan-out",
      [&](size_t w, const std::string& payload) -> std::string {
        net::KnnReply r;
        if (!net::DecodeKnnReply(payload, &r) || r.count != count ||
            r.k != k) {
          return "sent a malformed kNN reply";
        }
        per[w] = std::move(r.rows);
        return "";
      },
      worker_text);
  for (size_t w = 0; w < per.size(); ++w) {
    if (reqs[w] != nullptr) rows->push_back(std::move(per[w]));
  }
  return err;
}

bool Router::MergeSliceMsts(
    Dataset& ds, const std::vector<const net::WireMessage*>& reqs,
    const char* phase,
    const std::function<std::vector<WeightedEdge>()>& cross,
    std::vector<WeightedEdge>* mst, std::string* fail) {
  Merged& m = *ds.merged;
  std::vector<std::vector<WeightedEdge>> parts(pool_.size());
  *fail = FanOut(
      reqs, net::kOpEdgesReply, phase,
      [&](size_t w, const std::string& payload) -> std::string {
        if (!net::DecodeEdgesReply(payload, &parts[w])) {
          return "sent a malformed edges reply";
        }
        for (WeightedEdge& e : parts[w]) {
          if (!DenseOfLocal(m.worker_local[w], m.worker_dense[w], e.u,
                            &e.u) ||
              !DenseOfLocal(m.worker_local[w], m.worker_dense[w], e.v,
                            &e.v)) {
            return "returned an unknown edge id";
          }
        }
        return "";
      });
  if (!fail->empty()) return false;
  std::vector<WeightedEdge> candidates = cross();
  for (const std::vector<WeightedEdge>& part : parts) {
    candidates.insert(candidates.end(), part.begin(), part.end());
  }
  *mst = KruskalMerge(ds.live_n, std::move(candidates));
  return true;
}

bool Router::EnsureMirror(Dataset& ds, EngineResponse* out,
                          std::string* fail) {
  if (ds.merged && ds.merged->epoch == ds.epoch && ds.merged->mirror_ok) {
    TraceArtifact(out, /*built=*/false, "mirror");
    return true;
  }
  auto merged = std::make_unique<Merged>();
  merged->epoch = ds.epoch;
  size_t w_count = pool_.size();
  size_t n = ds.live_n;
  int dim = ds.dim;

  // Expected slice of every worker, straight from the placement map: pairs
  // (worker-local gid, global gid) pushed in ascending-global order. Local
  // gids grow monotonically with global gids per worker, so this is also
  // ascending-local — the order ExportLive replies in.
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> expect(w_count);
  std::vector<uint32_t> dense_of(ds.map.next_gid, 0);
  auto dense_gids = std::make_shared<std::vector<uint32_t>>();
  dense_gids->reserve(n);
  for (uint32_t g = 0; g < ds.map.next_gid; ++g) {
    if (ds.map.dead[g]) continue;
    dense_of[g] = static_cast<uint32_t>(dense_gids->size());
    dense_gids->push_back(g);
    expect[ds.map.owner[g]].push_back({ds.map.local[g], g});
  }
  for (size_t w = 0; w < w_count; ++w) {
    if (!expect[w].empty() && !pool_.at(w).healthy()) {
      *fail = "worker " + pool_.at(w).addr() + " is unhealthy";
      return false;
    }
  }

  merged->coords.assign(n * static_cast<size_t>(dim), 0.0);
  merged->worker_dense.assign(w_count, {});
  merged->worker_local.assign(w_count, {});
  std::vector<WorkerSlice> slices(w_count);
  net::WireMessage req = NameFrame(net::kOpExportPoints, ds.name);
  *fail = FanOut(
      ToLiveSlices(expect, req), net::kOpPointsReply, "point export",
      [&](size_t w, const std::string& payload) -> std::string {
        net::PointsReply pts;
        if (!net::DecodePointsReply(payload, &pts)) {
          return "sent a malformed points reply";
        }
        size_t count = pts.gids.size();
        bool match = pts.dim == dim && count == expect[w].size();
        for (size_t l = 0; match && l < count; ++l) {
          match = pts.gids[l] == expect[w][l].first;
        }
        if (!match) return "slice does not match the placement map";
        std::vector<uint32_t>& wd = merged->worker_dense[w];
        wd.resize(count);
        for (size_t l = 0; l < count; ++l) {
          wd[l] = dense_of[expect[w][l].second];
          std::memcpy(&merged->coords[static_cast<size_t>(wd[l]) * dim],
                      &pts.coords[l * dim],
                      sizeof(double) * static_cast<size_t>(dim));
        }
        merged->worker_local[w] = std::move(pts.gids);
        slices[w].dense = wd;
        slices[w].coords = std::move(pts.coords);
        return "";
      });
  if (!fail->empty()) return false;
  merged->dense_gids = std::move(dense_gids);
  merged->merger = MakeMerger(dim);
  if (!merged->merger) {
    *fail = "unsupported dataset dimension " + std::to_string(dim);
    return false;
  }
  merged->merger->SetWorkers(slices);
  merged->mirror_ok = true;
  ds.merged = std::move(merged);
  TraceArtifact(out, /*built=*/true, "mirror");
  return true;
}

bool Router::EnsureKnn(Dataset& ds, size_t k, EngineResponse* out,
                       std::string* fail) {
  Merged& m = *ds.merged;
  if (m.knn_ok && m.knn_k >= k) {
    TraceArtifact(out, /*built=*/false, "knn@" + std::to_string(m.knn_k));
    return true;
  }
  size_t n = ds.live_n;
  size_t K = std::min(std::max(k, m.knn_k), n);
  std::string tail;
  net::PutU32(&tail, static_cast<uint32_t>(K));
  net::PutU16(&tail, static_cast<uint16_t>(ds.dim));
  net::PutU32(&tail, static_cast<uint32_t>(n));
  for (double v : m.coords) net::PutF64(&tail, v);
  net::WireMessage req = NameFrame(net::kOpKnnQuery, ds.name, tail);
  std::vector<std::vector<double>> worker_rows;
  *fail = FanKnn(ToLiveSlices(m.worker_dense, req), static_cast<uint32_t>(n),
                 static_cast<uint32_t>(K), &worker_rows);
  if (!fail->empty()) return false;
  m.knn_sq = MergeKnnRows(n, K, worker_rows);
  m.knn_k = K;
  m.knn_ok = true;
  TraceArtifact(out, /*built=*/true, "knn@" + std::to_string(K));
  return true;
}

ClusteringEntry* Router::Hdbscan(Dataset& ds, int min_pts, bool need_plot,
                                 EngineResponse* out, std::string* fail) {
  Merged& m = *ds.merged;
  auto build_mst = [&]() -> std::unique_ptr<ClusteringEntry> {
    auto cd = m.clusterings.CoreDist(
        min_pts, ds.live_n, /*allow_build=*/true, out,
        [&](size_t* stride) -> const std::vector<double>* {
          if (!EnsureKnn(ds, static_cast<size_t>(min_pts), out, fail)) {
            return nullptr;
          }
          *stride = m.knn_k;
          return &m.knn_sq;
        });
    if (!cd) return nullptr;
    // Per-worker MR-MST under the *globally* merged core distances, in
    // the worker's ascending-gid order.
    std::vector<net::WireMessage> reqs(pool_.size());
    std::vector<const net::WireMessage*> targets(pool_.size(), nullptr);
    for (size_t w = 0; w < pool_.size(); ++w) {
      if (m.worker_dense[w].empty()) continue;
      std::string tail;
      net::PutU32(&tail, static_cast<uint32_t>(m.worker_dense[w].size()));
      for (uint32_t dense : m.worker_dense[w]) net::PutF64(&tail, (*cd)[dense]);
      reqs[w] = NameFrame(net::kOpShardMrMst, ds.name, tail);
      targets[w] = &reqs[w];
    }
    std::vector<WeightedEdge> mst;
    if (!MergeSliceMsts(
            ds, targets, "MR-MST fan-out",
            [&] { return m.merger->CrossMrEdges(*cd); }, &mst, fail)) {
      return nullptr;
    }
    return NewClusteringEntry(cd, std::move(mst));
  };
  return m.clusterings.Get(min_pts, ds.live_n, need_plot,
                           /*allow_build=*/true, out, build_mst);
}

bool Router::EnsureEmst(Dataset& ds, EngineResponse* out, std::string* fail) {
  Merged& m = *ds.merged;
  bool build = !m.emst.mst;
  if (build) {
    net::WireMessage req = NameFrame(net::kOpExportMst, ds.name);
    std::vector<WeightedEdge> mst;
    if (!MergeSliceMsts(
            ds, ToLiveSlices(m.worker_dense, req), "EMST fan-out",
            [&] { return m.merger->CrossEmstEdges(); }, &mst, fail)) {
      return false;
    }
    m.emst.mst_weight = TotalEdgeWeight(mst);
    m.emst.mst =
        std::make_shared<const std::vector<WeightedEdge>>(std::move(mst));
  }
  TraceArtifact(out, build, "forest-emst");
  return true;
}

void Router::AnswerSharded(Dataset& ds, const EngineRequest& req,
                           EngineResponse* out) {
  if (!ds.degraded.empty()) {
    out->error = ds.degraded;
    return;
  }
  if (const char* err = ValidateQuery(req, ds.live_n, /*eps_emst=*/false)) {
    out->error = err;
    return;
  }
  std::string fail;
  if (!EnsureMirror(ds, out, &fail)) {
    out->error = fail;
    return;
  }
  Merged& m = *ds.merged;
  if (IsEmstFamily(req.type)) {
    if (!EnsureEmst(ds, out, &fail)) {
      out->error = fail;
      return;
    }
    if (req.type == QueryType::kSingleLinkage) {
      EnsureDendrogram(&m.emst.dendrogram, ds.live_n, *m.emst.mst,
                       "sl-dendro", /*allow_build=*/true, out);
    }
    FillEmstResponse(req, m.emst, m.dense_gids, out);
    return;
  }
  ClusteringEntry* e = Hdbscan(ds, req.min_pts,
                               req.type == QueryType::kReachability, out,
                               &fail);
  if (e == nullptr) {
    out->error = fail;
    return;
  }
  FillClusteringResponse(req, *e, m.dense_gids, out);
}

EngineResponse Router::RunSharded(Dataset& ds, const EngineRequest& req) {
  merges_.fetch_add(1, std::memory_order_relaxed);
  uint64_t t0 = obs::NowNs();
  EngineResponse r;
  {
    std::lock_guard<std::mutex> lock(ds.mu);
    // The whole merged pipeline (kd-tree builds, cross traversals,
    // Kruskal, dendrograms) issues parallel scheduler work, so it runs
    // inside a worker group like any engine build.
    executor_.RunBuild([&] {
      AnswerSharded(ds, req, &r);
      return 0;
    });
  }
  r.seconds = static_cast<double>(obs::NowNs() - t0) * 1e-9;
  return r;
}

// ---- recovery -----------------------------------------------------------

void Router::Reseed(size_t worker) {
  // Replay order is creation order: later seed lines may reference
  // datasets earlier ones created.
  std::vector<std::pair<uint64_t, std::pair<std::string,
                                            std::shared_ptr<Dataset>>>> all;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    for (auto& kv : datasets_) {
      all.push_back({kv.second->order, {kv.first, kv.second}});
    }
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  Upstream& up = pool_.at(worker);
  for (auto& item : all) {
    Dataset& ds = *item.second.second;
    if (ds.mode == Dataset::Mode::kReplicated) {
      // The registry replaces by name, so replay is idempotent whether the
      // worker lost the dataset (process restart) or kept it (transient
      // network failure).
      std::string reply;
      up.SendLine(ds.seed_line, &reply);
    } else {
      std::lock_guard<std::mutex> lock(ds.mu);
      ReseedSharded(worker, ds);
    }
  }
}

void Router::ReseedSharded(size_t worker, Dataset& ds) {
  Upstream& up = pool_.at(worker);
  const std::string& name = ds.name;
  std::vector<uint32_t> expected;
  for (uint32_t g = 0; g < ds.map.next_gid; ++g) {
    if (!ds.map.dead[g] && ds.map.owner[g] == worker) {
      expected.push_back(ds.map.local[g]);
    }
  }
  // Read-only probe: never recreate a sharded dataset with `dyn` while it
  // may still hold points — the registry would atomically replace it.
  net::WireMessage reply;
  if (!up.Roundtrip(NameFrame(net::kOpExportPoints, name), &reply,
                    nullptr)) {
    return;  // next pass retries
  }
  if (reply.binary && reply.opcode == net::kOpPointsReply) {
    net::PointsReply pts;
    if (net::DecodePointsReply(reply.payload, &pts) &&
        pts.gids == expected) {
      return;  // transient outage; the slice survived
    }
    ds.degraded = "worker " + up.addr() + " slice diverged from the " +
                  "placement map; restore from a snapshot";
    return;
  }
  // The worker lost the dataset (restart). Restore what we can prove.
  if (expected.empty()) {
    std::string ignored;
    up.SendLine("dyn " + name + ' ' + std::to_string(ds.dim), &ignored);
    return;
  }
  if (!ds.dirty_since_save && !ds.last_save_dir.empty()) {
    std::string r1, r2;
    up.SendLine("drop " + name, &r1);
    if (up.SendLine(
            "load " + name + " snap " + WorkerDir(ds.last_save_dir, worker),
            &r2) &&
        r2.rfind("ok load ", 0) == 0) {
      return;
    }
  }
  ds.degraded = "worker " + up.addr() + " lost its slice of " + name +
                " with unsynced mutations; restore from a snapshot";
}

// ---- observability ------------------------------------------------------

std::string Router::RouterCountersText() const {
  return StrPrintf(
      "router_forwards=%llu router_fanouts=%llu router_merges=%llu "
      "upstreams=%zu upstreams_healthy=%zu",
      static_cast<unsigned long long>(
          forwards_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(
          fanouts_.load(std::memory_order_relaxed)),
      static_cast<unsigned long long>(merges_.load(std::memory_order_relaxed)),
      pool_.size(), pool_.HealthyCount());
}

std::string Router::ClusterStatsText() const {
  std::string out;
  for (size_t i = 0; i < pool_.size(); ++i) {
    const Upstream& up = pool_.at(i);
    const UpstreamCounters& c = up.counters();
    out += StrPrintf(
        "upstream %s healthy=%d requests=%llu errors=%llu reconnects=%llu "
        "bytes_out=%llu bytes_in=%llu\n",
        up.addr().c_str(), up.healthy() ? 1 : 0,
        static_cast<unsigned long long>(
            c.requests.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.errors.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.reconnects.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.bytes_out.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(
            c.bytes_in.load(std::memory_order_relaxed)));
  }
  size_t n_datasets;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    n_datasets = datasets_.size();
  }
  out += StrPrintf("ok cluster workers=%zu healthy=%zu datasets=%zu\n",
                   pool_.size(), pool_.HealthyCount(), n_datasets);
  return out;
}

void Router::RegisterMetrics(obs::Observability& obs) {
  obs.metrics.AddSource([this](obs::MetricsBuilder& b) {
    b.Gauge("parhc_router_upstreams", "Configured upstream workers.",
            static_cast<double>(pool_.size()));
    b.Gauge("parhc_router_upstreams_healthy",
            "Upstream workers currently passing health checks.",
            static_cast<double>(pool_.HealthyCount()));
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      b.Gauge("parhc_router_datasets", "Datasets tracked by the router.",
              static_cast<double>(datasets_.size()));
    }
    b.Counter("parhc_router_forwards_total",
              "Requests forwarded verbatim to one upstream.",
              static_cast<double>(forwards_.load(std::memory_order_relaxed)));
    b.Counter("parhc_router_fanouts_total",
              "Requests fanned out to multiple upstreams.",
              static_cast<double>(fanouts_.load(std::memory_order_relaxed)));
    b.Counter("parhc_router_merges_total",
              "Distributed artifact merges executed.",
              static_cast<double>(merges_.load(std::memory_order_relaxed)));
    for (size_t i = 0; i < pool_.size(); ++i) {
      const Upstream& up = pool_.at(i);
      const UpstreamCounters& c = up.counters();
      obs::MetricsBuilder::Labels labels{{"upstream", up.addr()}};
      b.Counter("parhc_router_upstream_requests_total",
                "Round trips attempted per upstream.",
                static_cast<double>(
                    c.requests.load(std::memory_order_relaxed)),
                labels);
      b.Counter("parhc_router_upstream_errors_total",
                "Failed round trips per upstream.",
                static_cast<double>(c.errors.load(std::memory_order_relaxed)),
                labels);
      b.Counter(
          "parhc_router_upstream_reconnects_total",
          "Successful reconnects per upstream.",
          static_cast<double>(c.reconnects.load(std::memory_order_relaxed)),
          labels);
    }
  });
}

// ---- dispatch -----------------------------------------------------------

net::ProtocolResult Router::Handle(const net::WireMessage& msg,
                                   const net::ProtocolOptions& opts) {
  if (msg.binary) return HandleFrame(msg.opcode, msg.payload, opts);
  return net::DispatchTraced(msg.text, [&](const std::string& line) {
    return DispatchLine(line, opts);
  });
}

net::ProtocolResult Router::DispatchLine(const std::string& line,
                                         const net::ProtocolOptions& opts) {
  net::ProtocolResult res;
  if (line.empty() || line[0] == '#') return res;
  std::istringstream ss(line);
  std::string cmd;
  ss >> cmd;
  try {
    if (cmd == "quit" || cmd == "exit") {
      res.quit = true;
    } else if (cmd == "help") {
      res.out = net::ProtocolHelpText();
    } else if (cmd == "hello") {
      res.out = net::HelloLine("router");
    } else if (cmd == "stats") {
      res.out = "ok stats ";
      if (opts.stats_source) {
        res.out += opts.stats_source->Stats().Format();
        res.out += ' ';
      }
      res.out += RouterCountersText();
      res.out += ' ';
      res.out += executor_.stats().Format();
      res.out += '\n';
    } else if (cmd == "cluster") {
      res.out = ClusterStatsText();
    } else if (cmd == "list") {
      std::shared_lock<std::shared_mutex> lock(mu_);
      for (const auto& kv : datasets_) {
        const Dataset& ds = *kv.second;
        bool sharded = ds.mode == Dataset::Mode::kSharded;
        res.out += StrPrintf("dataset %s dim=%d n=%zu mode=%s\n",
                             kv.first.c_str(), ds.dim,
                             sharded ? ds.live_n : ds.static_n,
                             sharded ? "sharded" : "replicated");
      }
      res.out += "ok list\n";
    } else if (cmd == "gen") {
      std::string name, kind;
      int dim = 0;
      size_t n = 0;
      ss >> name >> dim >> kind >> n;
      std::string reply = Broadcast(line, cmd);
      if (reply.rfind("ok gen ", 0) == 0 && !name.empty()) {
        auto ds = std::make_shared<Dataset>();
        ds->mode = Dataset::Mode::kReplicated;
        ds->name = name;
        ds->dim = dim;
        ds->static_n = n;
        ds->seed_line = line;
        std::unique_lock<std::shared_mutex> lock(mu_);
        ds->order = next_order_++;
        datasets_[name] = ds;
      }
      res.out = reply;
    } else if (cmd == "load") {
      std::string name, fmt, path;
      ss >> name >> fmt >> path;
      if (fmt == "snap" &&
          std::ifstream(path + "/cluster.map").good()) {
        res.out = ShardedLoad(name, path);
        return res;
      }
      std::string reply = Broadcast(line, cmd);
      int dim = 0;
      unsigned long n = 0;
      if (sscanf(reply.c_str(), "ok load %*s dim=%d n=%lu", &dim, &n) == 2 &&
          !name.empty()) {
        auto ds = std::make_shared<Dataset>();
        ds->mode = Dataset::Mode::kReplicated;
        ds->name = name;
        ds->dim = dim;
        ds->static_n = n;
        ds->seed_line = line;
        // A snapshot may hold a batch-dynamic dataset; forwarding a
        // mutation to one replica would silently desynchronize the rest,
        // so such datasets are read-only through the router.
        ds->mutable_on_workers = fmt == "snap";
        std::unique_lock<std::shared_mutex> lock(mu_);
        ds->order = next_order_++;
        datasets_[name] = ds;
      }
      res.out = reply;
    } else if (cmd == "dyn") {
      std::string name;
      int dim = 0;
      ss >> name >> dim;
      if (ss.fail() || name.empty()) {
        res.out = "err dyn: usage: dyn <name> <dim>\n";
        return res;
      }
      if (pool_.HealthyCount() != pool_.size()) {
        res.out = StrPrintf(
            "err dyn %s: need all %zu workers healthy to create a sharded "
            "dataset\n",
            name.c_str(), pool_.size());
        return res;
      }
      std::vector<std::string> replies = FanLine(line);
      for (const std::string& r : replies) {
        if (r.rfind("ok dyn ", 0) != 0) {
          res.out = r.empty()
                        ? StrPrintf("err dyn %s: a worker dropped out during "
                                    "creation\n",
                                    name.c_str())
                        : r;
          return res;
        }
      }
      auto ds = std::make_shared<Dataset>();
      ds->mode = Dataset::Mode::kSharded;
      ds->name = name;
      ds->dim = dim;
      ds->map.workers = static_cast<uint32_t>(pool_.size());
      {
        std::unique_lock<std::shared_mutex> lock(mu_);
        ds->order = next_order_++;
        datasets_[name] = ds;
      }
      res.out = StrPrintf("ok dyn %s dim=%d\n", name.c_str(), dim);
    } else if (cmd == "save") {
      std::string name, dir;
      ss >> name >> dir;
      if (name.empty() || dir.empty()) {
        res.out = "err save: usage: save <name> <dir>\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (ds && ds->mode == Dataset::Mode::kSharded) {
        std::lock_guard<std::mutex> lock(ds->mu);
        res.out = ShardedSave(*ds, name, dir);
      } else {
        // Replicated (or unknown — the worker answers with the exact
        // single-node error): any one replica holds the full dataset.
        res.out = ForwardRead(line, cmd);
      }
    } else if (cmd == "insert") {
      std::string name;
      ss >> name;
      auto ds = FindDataset(name);
      if (!ds) {
        res.out = ForwardRead(line, cmd);
        return res;
      }
      if (ds->mode == Dataset::Mode::kReplicated) {
        if (ds->mutable_on_workers) {
          res.out = StrPrintf(
              "err insert %s: replicated dataset is read-only via the "
              "router\n",
              name.c_str());
        } else {
          // Static replicas refuse mutations with the single-node
          // immutable-dataset error and stay unchanged — forward for the
          // exact bytes.
          res.out = ForwardRead(line, cmd);
        }
        return res;
      }
      std::vector<std::vector<double>> rows;
      res.out = net::ParseInsertCoords(name, ds->dim, ss, &rows);
      if (!res.out.empty()) return res;
      std::lock_guard<std::mutex> lock(ds->mu);
      res.out = ShardedInsert(*ds, name, rows, "insert");
    } else if (cmd == "geninsert") {
      std::string name, kind;
      int dim = 0;
      size_t n = 0;
      uint64_t seed = 1;
      ss >> name >> dim >> kind >> n;
      if (!(ss >> seed)) seed = 1;
      if (name.empty() || n == 0 || !DatasetRegistry::SupportedDim(dim)) {
        res.out = "err geninsert: usage/unsupported dim\n";
        return res;
      }
      auto ds = FindDataset(name);
      if (ds && ds->mode == Dataset::Mode::kReplicated) {
        res.out = ds->mutable_on_workers
                      ? StrPrintf("err geninsert %s: replicated dataset is "
                                  "read-only via the router\n",
                                  name.c_str())
                      : ForwardRead(line, cmd);
        return res;
      }
      if (ds && ds->dim != dim) {
        res.out = StrPrintf("err geninsert %s: dim %d != dataset dim %d\n",
                            name.c_str(), dim, ds->dim);
        return res;
      }
      // The generators are seed-deterministic, so running them on the
      // router yields bit-identical rows to a single-node `geninsert`;
      // shipping them as binary frames preserves every double exactly.
      std::vector<std::vector<double>> rows = executor_.RunBuild(
          [&] { return net::GenerateRows(dim, kind, n, seed); });
      if (rows.empty()) {
        res.out = StrPrintf("err geninsert: unknown kind %s\n", kind.c_str());
        return res;
      }
      if (!ds) {
        net::ProtocolResult create =
            DispatchLine("dyn " + name + ' ' + std::to_string(dim), opts);
        if (create.out.rfind("ok dyn ", 0) != 0) {
          res.out = create.out;
          return res;
        }
        ds = FindDataset(name);
        if (!ds) {
          res.out = StrPrintf("err geninsert %s: creation raced with a "
                              "drop\n",
                              name.c_str());
          return res;
        }
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      res.out = ShardedInsert(*ds, name, rows, "geninsert");
    } else if (cmd == "delete") {
      std::string name;
      ss >> name;
      std::vector<uint32_t> gids;
      res.out = net::ParseDeleteGids(name, ss, &gids);
      if (!res.out.empty()) return res;
      auto ds = FindDataset(name);
      if (!ds) {
        res.out = ForwardRead(line, cmd);
      } else if (ds->mode == Dataset::Mode::kReplicated) {
        res.out = ds->mutable_on_workers
                      ? StrPrintf("err delete %s: replicated dataset is "
                                  "read-only via the router\n",
                                  name.c_str())
                      : ForwardRead(line, cmd);
      } else {
        std::lock_guard<std::mutex> lock(ds->mu);
        res.out = ShardedDelete(*ds, name, gids);
      }
    } else if (cmd == "drop") {
      std::string name;
      ss >> name;
      std::string reply = Broadcast(line, cmd);
      {
        std::unique_lock<std::shared_mutex> lock(mu_);
        datasets_.erase(name);
      }
      res.out = reply;
    } else if (net::IsQueryVerb(cmd)) {
      EngineRequest req;
      res.out = net::ParseQuery(cmd, ss, &req);
      if (!res.out.empty()) return res;
      auto ds = FindDataset(req.dataset);
      if (ds && ds->mode == Dataset::Mode::kSharded) {
        res.out = net::FormatQueryResponse(cmd, req.dataset,
                                           RunSharded(*ds, req),
                                           opts.show_timing);
      } else {
        // Replicated (round-robin across replicas) or unknown (the worker
        // answers with the exact single-node unknown-dataset error).
        res.out = ForwardRead(line, cmd);
      }
    } else if (!net::HandleObservabilityVerb(cmd, ss, opts, &res.out)) {
      res.out = StrPrintf("err unknown command: %s (try help)\n", cmd.c_str());
    }
  } catch (const std::exception& e) {
    res.out = StrPrintf("err %s: %s\n", cmd.c_str(), e.what());
  }
  return res;
}

net::ProtocolResult Router::HandleFrame(uint8_t opcode,
                                        const std::string& payload,
                                        const net::ProtocolOptions& opts) {
  net::ProtocolResult res;
  try {
    net::PayloadReader rd(payload);
    net::WireMessage fwd;
    fwd.binary = true;
    fwd.opcode = opcode;
    fwd.payload = payload;
    if (opcode == net::kOpInsertPoints) {
      net::InsertPointsRequest ins;
      res.out = net::DecodeInsertPoints(payload, &ins);
      if (!res.out.empty()) return res;
      auto ds = FindDataset(ins.name);
      if (!ds) {
        res.out = ForwardFrame(fwd, "insert");
      } else if (ds->mode == Dataset::Mode::kReplicated) {
        res.out = ds->mutable_on_workers
                      ? StrPrintf("err insert %s: replicated dataset is "
                                  "read-only via the router\n",
                                  ins.name.c_str())
                      : ForwardFrame(fwd, "insert");
      } else if (ds->dim != ins.dim) {
        res.out = StrPrintf("err insert %s: frame dim %d != dataset dim %d\n",
                            ins.name.c_str(), ins.dim, ds->dim);
      } else {
        std::lock_guard<std::mutex> lock(ds->mu);
        res.out = ShardedInsert(*ds, ins.name, ins.rows, "insert");
      }
    } else if (opcode == net::kOpGetLabels) {
      EngineRequest req;
      res.out = net::DecodeGetLabels(payload, &req);
      if (!res.out.empty()) return res;
      auto ds = FindDataset(req.dataset);
      res.out = !ds || ds->mode == Dataset::Mode::kReplicated
                    ? ForwardFrame(fwd, "labels")
                    : net::FormatLabelsResponse(req.dataset,
                                                RunSharded(*ds, req));
    } else if (opcode == net::kOpKnnQuery) {
      std::string name = rd.GetBytes(rd.GetU16());
      uint32_t k = rd.GetU32();
      int qdim = static_cast<int>(rd.GetU16());
      uint32_t count = rd.GetU32();
      bool well_formed =
          rd.ok() && !name.empty() &&
          rd.remaining() ==
              static_cast<size_t>(count) * qdim * sizeof(double);
      auto ds = well_formed ? FindDataset(name) : nullptr;
      if (!ds || ds->mode == Dataset::Mode::kReplicated) {
        res.out = ForwardFrame(fwd, "knn");
        return res;
      }
      std::lock_guard<std::mutex> lock(ds->mu);
      if (!ds->degraded.empty()) {
        res.out = StrPrintf("err knn %s: %s\n", name.c_str(),
                            ds->degraded.c_str());
        return res;
      }
      if (ds->live_n == 0) {
        // Every worker holds the (empty) dataset; any one answers exactly
        // what a single node would.
        res.out = ForwardFrame(fwd, "knn");
        return res;
      }
      // The client payload is already in worker form, so the identical
      // frame fans out to every worker holding a live slice; each answers
      // with its k nearest per query point (rows sorted, +inf padded) and
      // the k-way merge of those rows is exactly the k nearest over the
      // union — no mirror needed for client-facing kNN.
      std::vector<uint32_t> live_per(pool_.size(), 0);
      for (uint32_t g = 0; g < ds->map.next_gid; ++g) {
        if (!ds->map.dead[g]) ++live_per[ds->map.owner[g]];
      }
      for (size_t w = 0; w < pool_.size(); ++w) {
        if (live_per[w] != 0 && !pool_.at(w).healthy()) {
          res.out = StrPrintf("err knn %s: worker %s is unhealthy\n",
                              name.c_str(), pool_.at(w).addr().c_str());
          return res;
        }
      }
      fanouts_.fetch_add(1, std::memory_order_relaxed);
      merges_.fetch_add(1, std::memory_order_relaxed);
      std::vector<const net::WireMessage*> targets(pool_.size(), nullptr);
      for (size_t w = 0; w < pool_.size(); ++w) {
        if (live_per[w] != 0) targets[w] = &fwd;
      }
      std::vector<std::vector<double>> worker_rows;
      bool worker_text = false;
      std::string err = FanKnn(targets, count, k, &worker_rows, &worker_text);
      if (!err.empty()) {
        // Worker-side text errors (k out of range, dim mismatch) pass
        // through verbatim so the router matches single-node bytes.
        res.out = worker_text ? err + '\n'
                              : StrPrintf("err knn %s: %s\n", name.c_str(),
                                          err.c_str());
        return res;
      }
      std::vector<double> merged_rows;
      executor_.RunBuild([&] {
        merged_rows = MergeKnnRows(count, k, worker_rows);
        return 0;
      });
      res.out = net::EncodeKnnReply(count, k, merged_rows);
    } else if (opcode == net::kOpExportPoints || opcode == net::kOpExportMst ||
               opcode == net::kOpShardMrMst) {
      std::string name = rd.GetBytes(rd.GetU16());
      const char* what = opcode == net::kOpShardMrMst ? "mrmst" : "export";
      auto ds = rd.ok() && !name.empty() ? FindDataset(name) : nullptr;
      if (ds && ds->mode == Dataset::Mode::kSharded) {
        // The export surface exists for router→worker fan-out; a sharded
        // dataset has no single worker that could answer it.
        res.out = StrPrintf(
            "err %s %s: not supported on sharded datasets via the router\n",
            what, name.c_str());
      } else {
        res.out = ForwardFrame(fwd, what);
      }
    } else {
      res.out = StrPrintf("err frame: unknown opcode 0x%02x\n", opcode);
    }
  } catch (const std::exception& e) {
    res.out = StrPrintf("err frame: %s\n", e.what());
  }
  (void)opts;
  return res;
}

net::ProtocolResult RouterSession::Handle(const net::WireMessage& msg) {
  return router_.Handle(msg, opts_);
}

}  // namespace cluster
}  // namespace parhc
