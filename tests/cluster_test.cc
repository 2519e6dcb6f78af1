// Tests for the multi-node serving tier (src/cluster/): the hello
// handshake, the placement map, and — the load-bearing invariant — that a
// router fronting several real workers answers EMST / HDBSCAN* / label
// queries over a sharded dataset bit-identically to one single-node
// engine over the union, across interleaved insert/delete batches and a
// worker restart restored from a snapshot. Runs under TSan in CI with the
// other concurrency tests.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/placement.h"
#include "cluster/router.h"
#include "cluster/upstream.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/trace.h"
#include "parhc.h"

namespace parhc {
namespace {

using cluster::Router;
using cluster::RouterOptions;
using cluster::ShardMap;
using cluster::Upstream;

/// One in-process engine-backed worker server on a loopback port.
struct Worker {
  explicit Worker(uint16_t port = 0) {
    net::NetServerOptions opts;
    opts.port = port;
    opts.workers = 2;
    opts.show_timing = false;
    engine = std::make_unique<ClusteringEngine>();
    server = std::make_unique<net::NetServer>(*engine, opts);
    EXPECT_EQ(server->Start(), "");
    loop = std::thread([this] { server->Run(); });
  }

  ~Worker() { Stop(); }

  void Stop() {
    if (!server) return;
    server->Shutdown();
    loop.join();
    server.reset();
    engine.reset();
  }

  uint16_t port() const { return server->port(); }
  std::string addr() const {
    return "127.0.0.1:" + std::to_string(port());
  }

  std::unique_ptr<ClusteringEngine> engine;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;
};

net::ProtocolOptions NoTiming() {
  net::ProtocolOptions popts;
  popts.show_timing = false;
  return popts;
}

RouterOptions NoHealth() {
  RouterOptions ropts;
  ropts.start_health_thread = false;
  return ropts;
}

std::string Ask(Router& router, const std::string& line) {
  net::WireMessage msg;
  msg.text = line;
  return router.Handle(msg, NoTiming()).out;
}

/// Drops the built=/reused= introspection tokens: the router traces its
/// own merged-artifact scheme, so those keys legitimately differ from a
/// single-node backend's. Everything else must match byte for byte.
std::string StripArtifacts(const std::string& line) {
  std::istringstream ss(line);
  std::string tok, out;
  while (ss >> tok) {
    if (tok.rfind("built=", 0) == 0 || tok.rfind("reused=", 0) == 0) {
      continue;
    }
    if (!out.empty()) out += ' ';
    out += tok;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Placement map

TEST(Placement, OwnerOfGidIsDeterministicAndInRange) {
  for (uint32_t g = 0; g < 1000; ++g) {
    size_t o = cluster::OwnerOfGid(g, 3);
    EXPECT_LT(o, 3u);
    EXPECT_EQ(o, cluster::OwnerOfGid(g, 3));  // stable
  }
  // Not degenerate: 1000 gids over 3 workers hit every worker.
  std::set<size_t> seen;
  for (uint32_t g = 0; g < 1000; ++g) seen.insert(cluster::OwnerOfGid(g, 3));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Placement, ShardMapSaveLoadRoundTrip) {
  ShardMap map;
  map.workers = 3;
  map.Allocate(100);
  std::vector<uint32_t> next_local(3, 0);
  for (uint32_t g = 0; g < 100; ++g) {
    map.local[g] = next_local[map.owner[g]]++;
  }
  map.dead[7] = 1;
  map.dead[42] = 1;
  EXPECT_EQ(map.LiveCount(), 98u);

  std::string path = ::testing::TempDir() + "/shard_map_test.map";
  cluster::SaveShardMap(path, /*dim=*/5, map);
  uint32_t dim = 0;
  ShardMap loaded = cluster::LoadShardMap(path, &dim);
  std::remove(path.c_str());

  EXPECT_EQ(dim, 5u);
  EXPECT_EQ(loaded.next_gid, map.next_gid);
  EXPECT_EQ(loaded.workers, map.workers);
  EXPECT_EQ(loaded.owner, map.owner);
  EXPECT_EQ(loaded.local, map.local);
  EXPECT_EQ(loaded.dead, map.dead);
  EXPECT_EQ(loaded.LiveCount(), 98u);
}

// ---------------------------------------------------------------------------
// Handshake

TEST(Upstream, HelloHandshakeVerifiesProtocolAndRole) {
  Worker w;
  Upstream up(w.addr(), /*timeout_ms=*/5000);
  EXPECT_EQ(up.Connect(), "");
  EXPECT_TRUE(up.healthy());
  // The worker advertises its compiled-in dimension caps.
  EXPECT_FALSE(up.dims().empty());
  bool has2 = false;
  for (int d : up.dims()) has2 |= (d == 2);
  EXPECT_TRUE(has2);

  // A router fronting this worker identifies itself as role=router with
  // the same protocol version.
  Router router({w.addr()}, NoHealth());
  EXPECT_EQ(router.Start(), "");
  std::string hello = Ask(router, "hello");
  EXPECT_EQ(hello.rfind("ok hello proto=" +
                            std::to_string(net::kProtocolVersion) +
                            " role=router dims=",
                        0),
            0u)
      << hello;
}

TEST(Upstream, ConnectToDeadPortFailsAndRouterStartIsStrict) {
  Upstream up("127.0.0.1:1", /*timeout_ms=*/500);
  EXPECT_NE(up.Connect(), "");
  EXPECT_FALSE(up.healthy());
  Worker w;
  Router router({w.addr(), "127.0.0.1:1"},
                NoHealth());
  EXPECT_NE(router.Start(), "");  // all workers must be up at startup
}

// ---------------------------------------------------------------------------
// Replicated datasets

TEST(Router, ReplicatedReadsFanOutAndBitMatchSingleNode) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()},
                NoHealth());
  ASSERT_EQ(router.Start(), "");

  ClusteringEngine ref_engine;
  net::ProtocolSession ref(ref_engine, NoTiming());

  std::vector<std::string> script = {
      "gen rep 2 uniform 300 7", "emst rep",       "hdbscan rep 8",
      "dbscan rep 8 0.05",       "clusters rep 8 6", "slink rep 4",
      "emst nosuch",
  };
  // Reads round-robin, so each worker's warm/cold artifact state differs
  // from the single reference session's — the built=/reused= keys are the
  // only tokens allowed to diverge.
  for (const std::string& line : script) {
    EXPECT_EQ(StripArtifacts(Ask(router, line)),
              StripArtifacts(ref.HandleLine(line).out))
        << line;
  }
  // Reads round-robin: both upstreams served some of the 7 requests (the
  // gen broadcast alone touches both).
  EXPECT_GT(router.pool().at(0).counters().requests.load(), 1u);
  EXPECT_GT(router.pool().at(1).counters().requests.load(), 1u);

  // The cluster verb surfaces per-upstream counters.
  std::string cl = Ask(router, "cluster");
  EXPECT_NE(cl.find("upstream " + w1.addr() + " healthy=1"),
            std::string::npos)
      << cl;
  EXPECT_NE(cl.find("ok cluster workers=2 healthy=2 datasets=1"),
            std::string::npos)
      << cl;

  // Router-side list shows the serving mode.
  EXPECT_EQ(Ask(router, "list"),
            "dataset rep dim=2 n=300 mode=replicated\nok list\n");
}

// ---------------------------------------------------------------------------
// Sharded oracle

struct Oracle {
  Oracle(Router& router, net::ProtocolSession& ref)
      : router(router), ref(ref) {}

  /// Runs one line on both sides; mutations must match exactly, queries
  /// modulo the built=/reused= keys.
  void Check(const std::string& line) {
    std::string got = Ask(router, line);
    std::string want = ref.HandleLine(line).out;
    EXPECT_EQ(StripArtifacts(got), StripArtifacts(want)) << line;
  }

  Router& router;
  net::ProtocolSession& ref;
};

/// DBSCAN* labels via the binary frame path on both sides — exact int
/// comparison, which transitively pins the merged core distances (labels
/// flip if any core distance differs in even one bit).
void CheckLabelsFrame(Router& router, ClusteringEngine& ref_engine,
                      const std::string& name, int min_pts, double eps) {
  std::string payload;
  net::PutU16(&payload, static_cast<uint16_t>(name.size()));
  payload += name;
  payload += '\0';  // kind 0 = dbscan
  net::PutU32(&payload, static_cast<uint32_t>(min_pts));
  net::PutF64(&payload, eps);
  net::WireMessage msg;
  msg.binary = true;
  msg.opcode = net::kOpGetLabels;
  msg.payload = payload;
  std::string out = router.Handle(msg, NoTiming()).out;
  ASSERT_GT(out.size(), net::kFrameHeaderBytes);
  ASSERT_EQ(static_cast<uint8_t>(out[0]), net::kFrameMagic) << out;
  ASSERT_EQ(static_cast<uint8_t>(out[1]), net::kOpLabelsReply);
  std::vector<int32_t> labels;
  ASSERT_TRUE(
      net::DecodeLabelsReply(out.substr(net::kFrameHeaderBytes), &labels));

  EngineRequest req;
  req.type = QueryType::kDbscanStarAt;
  req.dataset = name;
  req.min_pts = min_pts;
  req.eps = eps;
  EngineResponse r = ref_engine.Run(req);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(labels, r.labels);
}

/// Client-facing kNN via the binary frame path: the router fans the query
/// frame to every owning worker and k-way merges the rows; the reply must
/// byte-match the single-node session (same opcode, count, k, and every
/// squared distance bit-for-bit).
void CheckKnnFrame(Router& router, net::ProtocolSession& ref,
                   const std::string& name, uint32_t k,
                   const std::vector<double>& queries, int dim) {
  std::string payload;
  net::PutU16(&payload, static_cast<uint16_t>(name.size()));
  payload += name;
  net::PutU32(&payload, k);
  net::PutU16(&payload, static_cast<uint16_t>(dim));
  net::PutU32(&payload, static_cast<uint32_t>(queries.size() / dim));
  for (double v : queries) net::PutF64(&payload, v);
  net::WireMessage msg;
  msg.binary = true;
  msg.opcode = net::kOpKnnQuery;
  msg.payload = payload;
  std::string got = router.Handle(msg, NoTiming()).out;
  std::string want = ref.Handle(msg).out;
  ASSERT_GT(want.size(), net::kFrameHeaderBytes);
  ASSERT_EQ(static_cast<uint8_t>(want[1]), net::kOpKnnReply);
  EXPECT_EQ(got, want) << name << " k=" << k;
}

TEST(Router, ShardedAnswersBitMatchSingleNodeAcrossMutationsAndRestart) {
  Worker w1, w3;
  auto w2 = std::make_unique<Worker>();
  std::vector<std::string> addrs = {w1.addr(), w2->addr(), w3.addr()};
  Router router(addrs, NoHealth());
  ASSERT_EQ(router.Start(), "");

  ClusteringEngine ref_engine;
  net::ProtocolSession ref(ref_engine, NoTiming());
  Oracle oracle(router, ref);

  oracle.Check("dyn s 2");

  std::mt19937 rng(20210621);
  std::set<uint32_t> live;
  uint32_t next_gid = 0;
  std::string snap_dir = ::testing::TempDir() + "/cluster_restart_snap";

  for (int round = 0; round < 6; ++round) {
    // Insert a batch (seed-deterministic on both sides; the router ships
    // the rows to the owners as bit-exact binary frames).
    size_t n = 25 + static_cast<size_t>(rng() % 30);
    const char* kind = (round % 2 == 0) ? "uniform" : "varden";
    oracle.Check("geninsert s 2 " + std::string(kind) + " " +
                 std::to_string(n) + " " + std::to_string(round + 1));
    for (size_t i = 0; i < n; ++i) live.insert(next_gid++);

    // Delete a few random live points (same gids on both sides).
    if (round > 0) {
      size_t kills = 1 + rng() % 6;
      std::string line = "delete s";
      for (size_t k = 0; k < kills && !live.empty(); ++k) {
        auto it = live.begin();
        std::advance(it, rng() % live.size());
        line += ' ' + std::to_string(*it);
        live.erase(it);
      }
      oracle.Check(line);
    }

    int m = 2 + static_cast<int>(rng() % 6);
    oracle.Check("emst s");
    oracle.Check("slink s 3");
    oracle.Check("hdbscan s " + std::to_string(m));
    oracle.Check("dbscan s " + std::to_string(m) + " 0.1");
    oracle.Check("clusters s " + std::to_string(m) + " 4");
    oracle.Check("reach s " + std::to_string(m));
    CheckLabelsFrame(router, ref_engine, "s", m, 0.08);
    std::vector<double> queries;
    for (int q = 0; q < 3 * 2; ++q) {
      queries.push_back((rng() % 1000) / 1000.0);
    }
    CheckKnnFrame(router, ref, "s", static_cast<uint32_t>(m), queries, 2);

    if (round == 3) {
      // Snapshot the cluster, kill worker 2, restart it empty on the same
      // port, and let the health pass restore its slice from the snapshot.
      std::string saved = Ask(router, "save s " + snap_dir);
      ASSERT_EQ(saved, "ok save s dir=" + snap_dir + "\n") << saved;
      ASSERT_TRUE(std::ifstream(snap_dir + "/cluster.map").good());

      uint16_t port = w2->port();
      w2->Stop();
      router.HealthPassNow(1000);  // ping fails -> marked down
      EXPECT_EQ(router.pool().HealthyCount(), 2u);
      // A query that must touch the dead owner fails loudly. (An
      // artifact already merged at this epoch may still serve — m=50
      // exceeds every kNN width built so far, forcing a fresh fan-out.)
      std::string down = Ask(router, "hdbscan s 50");
      EXPECT_EQ(down.rfind("err hdbscan s: worker ", 0), 0u) << down;

      w2 = std::make_unique<Worker>(port);  // fresh engine, same address
      router.HealthPassNow(5000);  // backoff expired -> reconnect + reseed
      EXPECT_EQ(router.pool().HealthyCount(), 3u);
    }
  }

  // Mixed single-point text inserts after everything above.
  oracle.Check("insert s 0.125 0.25 0.5 0.75");
  live.insert(next_gid++);
  live.insert(next_gid++);
  oracle.Check("emst s");
  oracle.Check("hdbscan s 4");

  // Error paths stay aligned too.
  oracle.Check("insert s 1.0");            // not a multiple of dim
  oracle.Check("delete s 999999");         // unknown gids -> deleted=0
  oracle.Check("slink s 0");               // k out of range
  oracle.Check("hdbscan s 100000");        // min_pts out of range
  oracle.Check("emst s eps 0.5");          // eps EMST is static-only

  EXPECT_EQ(Ask(router, "drop s"), ref.HandleLine("drop s").out);
}

TEST(Router, ShardedSaveLoadServesWarmAcrossRouterRestart) {
  Worker w1, w2;
  std::string snap_dir = ::testing::TempDir() + "/cluster_reload_snap";
  std::string before;
  {
    Router router({w1.addr(), w2.addr()},
                  NoHealth());
    ASSERT_EQ(router.Start(), "");
    ASSERT_EQ(Ask(router, "dyn p 2"), "ok dyn p dim=2\n");
    ASSERT_EQ(Ask(router, "geninsert p 2 uniform 80 3").substr(0, 2), "ok");
    ASSERT_EQ(Ask(router, "delete p 5 6 7"), "ok delete p deleted=3\n");
    before = StripArtifacts(Ask(router, "hdbscan p 4"));
    ASSERT_EQ(Ask(router, "save p " + snap_dir),
              "ok save p dir=" + snap_dir + "\n");
  }
  // A brand-new router (the workers kept their slices) reloads the
  // sharding map and serves identical answers.
  Router router2({w1.addr(), w2.addr()},
                 NoHealth());
  ASSERT_EQ(router2.Start(), "");
  ASSERT_EQ(Ask(router2, "load p snap " + snap_dir),
            "ok load p dim=2 n=77 warm\n");
  EXPECT_EQ(StripArtifacts(Ask(router2, "hdbscan p 4")), before);
  EXPECT_EQ(Ask(router2, "list"),
            "dataset p dim=2 n=77 mode=sharded\nok list\n");
}

// ---------------------------------------------------------------------------
// Query validation parity

net::WireMessage Line(const std::string& text) {
  net::WireMessage msg;
  msg.text = text;
  return msg;
}

/// kOpGetLabels request: kind 0 = DBSCAN* at `eps`, kind 1 = stable
/// clusters at `min_cluster_size`.
net::WireMessage LabelsFrame(const std::string& name, uint8_t kind,
                             uint32_t min_pts, double eps,
                             uint64_t min_cluster_size) {
  net::WireMessage msg;
  msg.binary = true;
  msg.opcode = net::kOpGetLabels;
  net::PutU16(&msg.payload, static_cast<uint16_t>(name.size()));
  msg.payload += name;
  msg.payload += static_cast<char>(kind);
  net::PutU32(&msg.payload, min_pts);
  if (kind == 0) {
    net::PutF64(&msg.payload, eps);
  } else {
    net::PutU64(&msg.payload, min_cluster_size);
  }
  return msg;
}

// Every invalid query gets the same err line whichever backend answers it:
// a static dataset and a dynamic one on a single node, and a sharded one
// behind a router (whose merged answers never reach a worker's validator).
TEST(Router, InvalidQueriesErrIdenticallyOnStaticDynamicAndShardedDatasets) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()}, NoHealth());
  ASSERT_EQ(router.Start(), "");
  ClusteringEngine engine;
  net::ProtocolSession single(engine, NoTiming());
  using Ask = std::function<std::string(const net::WireMessage&)>;
  Ask on_single = [&](const net::WireMessage& m) {
    return single.Handle(m).out;
  };
  Ask on_router = [&](const net::WireMessage& m) {
    return router.Handle(m, NoTiming()).out;
  };

  struct Path {
    std::string name;
    Ask ask;
    bool is_static;
  };
  // 40 points each, plus an emptied dynamic and an emptied sharded one.
  const std::vector<Path> sized = {{"st", on_single, true},
                                   {"dy", on_single, false},
                                   {"sh", on_router, false}};
  const std::vector<Path> emptied = {{"de", on_single, false},
                                     {"se", on_router, false}};
  ASSERT_EQ(on_single(Line("gen st 2 uniform 40 1")).substr(0, 3), "ok ");
  ASSERT_EQ(on_single(Line("geninsert dy 2 uniform 40 1")).substr(0, 3),
            "ok ");
  ASSERT_EQ(on_router(Line("geninsert sh 2 uniform 40 1")).substr(0, 3),
            "ok ");
  for (const Path& p : emptied) {
    const std::string& n = p.name;
    ASSERT_EQ(p.ask(Line("dyn " + n + " 2")), "ok dyn " + n + " dim=2\n");
    ASSERT_EQ(p.ask(Line("insert " + n + " 0.5 0.5")).substr(0, 3), "ok ");
    ASSERT_EQ(p.ask(Line("delete " + n + " 0")),
              "ok delete " + n + " deleted=1\n");
  }

  for (const Path& p : sized) {
    const std::string& n = p.name;
    auto check = [&](const std::string& q, const std::string& want) {
      EXPECT_EQ(p.ask(Line(q)), want) << n << ": " << q;
    };
    const std::string k_range = ": k must be in [1, n]\n";
    const std::string m_range = ": min_pts must be in [1, n]\n";
    const std::string mcs = ": min_cluster_size must be >= 2\n";
    check("slink " + n + " 0", "err slink " + n + k_range);
    check("slink " + n + " 41", "err slink " + n + k_range);
    check("hdbscan " + n + " 0", "err hdbscan " + n + m_range);
    check("hdbscan " + n + " 41", "err hdbscan " + n + m_range);
    check("reach " + n + " 0", "err reach " + n + m_range);
    check("reach " + n + " 41", "err reach " + n + m_range);
    check("dbscan " + n + " 41 0.1", "err dbscan " + n + m_range);
    check("clusters " + n + " 4 1", "err clusters " + n + mcs);
    check("clusters " + n + " 0 1", "err clusters " + n + m_range);
    check("hdbscan " + n + " x",
          "err hdbscan: missing or malformed arguments (try help)\n");
    check("dbscan " + n + " 4",
          "err dbscan: missing or malformed arguments (try help)\n");
    check("slink", "err slink: missing or malformed arguments (try help)\n");
    check("emst " + n + " eps", "err emst: usage: emst <name> [eps <e>]\n");
    if (!p.is_static) {
      check("emst " + n + " eps 0.5",
            "err emst " + n +
                ": eps EMST is supported on static datasets only\n");
    }
    EXPECT_EQ(p.ask(LabelsFrame(n, 0, 0, 0.1, 0)), "err labels " + n + m_range)
        << n;
    EXPECT_EQ(p.ask(LabelsFrame(n, 0, 41, 0.1, 0)),
              "err labels " + n + m_range)
        << n;
    EXPECT_EQ(p.ask(LabelsFrame(n, 1, 0, 0, 1)), "err labels " + n + m_range)
        << n;
    EXPECT_EQ(p.ask(LabelsFrame(n, 1, 4, 0, 1)), "err labels " + n + mcs)
        << n;
    net::WireMessage truncated = LabelsFrame(n, 1, 4, 0, 5);
    truncated.payload.pop_back();
    EXPECT_EQ(p.ask(truncated), "err labels: malformed frame payload\n") << n;
  }

  // On an emptied dataset emptiness is reported before any other check.
  for (const Path& p : emptied) {
    const std::string& n = p.name;
    const std::vector<std::string> queries = {
        "emst " + n,           "emst " + n + " eps 0.5",
        "slink " + n + " 0",   "hdbscan " + n + " 4",
        "reach " + n + " 0",   "dbscan " + n + " 4 0.1",
        "clusters " + n + " 0 1"};
    for (const std::string& q : queries) {
      const std::string verb = q.substr(0, q.find(' '));
      EXPECT_EQ(p.ask(Line(q)),
                "err " + verb + " " + n + ": dataset is empty\n")
          << q;
    }
    EXPECT_EQ(p.ask(LabelsFrame(n, 1, 4, 0, 1)),
              "err labels " + n + ": dataset is empty\n")
        << n;
  }
}

// A worker's own text error to a fanned-out kNN frame reaches the client
// as the complete line a single node sends.
TEST(Router, ShardedKnnWorkerErrorsMatchSingleNodeLines) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()}, NoHealth());
  ASSERT_EQ(router.Start(), "");
  ClusteringEngine engine;
  net::ProtocolSession single(engine, NoTiming());
  const std::string make = "geninsert s 2 uniform 30 1";
  ASSERT_EQ(Ask(router, make), single.HandleLine(make).out);
  struct Case {
    uint32_t k;
    int dim;
  };
  for (Case c : {Case{0, 2}, Case{2, 3}}) {
    const uint32_t k = c.k;
    const int dim = c.dim;
    net::WireMessage msg;
    msg.binary = true;
    msg.opcode = net::kOpKnnQuery;
    net::PutU16(&msg.payload, 1);
    msg.payload += 's';
    net::PutU32(&msg.payload, k);
    net::PutU16(&msg.payload, static_cast<uint16_t>(dim));
    net::PutU32(&msg.payload, 1);
    for (int d = 0; d < dim; ++d) net::PutF64(&msg.payload, 0.5);
    std::string want = single.Handle(msg).out;
    ASSERT_EQ(want.rfind("err knn", 0), 0u) << want;
    EXPECT_EQ(router.Handle(msg, NoTiming()).out, want)
        << "k=" << k << " dim=" << dim;
  }
}

// ---------------------------------------------------------------------------
// Trace propagation across hops

TEST(Router, HopSpansNestInsideTheRequestSpan) {
  Worker w1, w2;
  Router router({w1.addr(), w2.addr()},
                NoHealth());
  ASSERT_EQ(router.Start(), "");

  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Clear();
  tracer.Enable();
  ASSERT_EQ(Ask(router, "gen tr 2 uniform 200 1").substr(0, 2), "ok");
  ASSERT_EQ(Ask(router, "emst tr").substr(0, 2), "ok");
  tracer.Disable();

  std::string path = ::testing::TempDir() + "/cluster_trace_dump.json";
  ASSERT_EQ(Ask(router, "trace dump " + path).rfind("ok trace dump ", 0),
            0u);
  std::ifstream f(path, std::ios::binary);
  ASSERT_TRUE(f.good());
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  tracer.Clear();

  // Pull (name, ts, dur, trace) out of the Chrome trace_event stream.
  struct Ev {
    std::string name;
    double ts = 0, dur = 0;
    unsigned long long trace = 0;
  };
  std::vector<Ev> events;
  size_t pos = 0;
  const std::string kName = "{\"name\":\"";
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    Ev e;
    size_t nb = pos + kName.size();
    size_t ne = json.find("\",\"cat\":\"", nb);
    ASSERT_NE(ne, std::string::npos);
    e.name = json.substr(nb, ne - nb);
    size_t body = json.find("\"ts\":", ne);
    ASSERT_NE(body, std::string::npos);
    ASSERT_EQ(std::sscanf(json.c_str() + body,
                          "\"ts\":%lf,\"dur\":%lf,\"pid\":%*d,\"tid\":%*d,"
                          "\"args\":{\"trace\":%llu}}",
                          &e.ts, &e.dur, &e.trace),
              3)
        << e.name;
    events.push_back(std::move(e));
    pos = ne;
  }

  // Each of the two requests minted one trace; every hop:<addr> span must
  // join its request's trace and nest inside the request:<verb> root by
  // time containment — that is the cross-hop propagation contract.
  std::map<unsigned long long, std::vector<const Ev*>> by_trace;
  for (const Ev& e : events) {
    if (e.trace != 0) by_trace[e.trace].push_back(&e);
  }
  constexpr double kEpsUs = 0.002;
  int hops_checked = 0;
  for (const auto& [trace_id, spans] : by_trace) {
    // The in-process workers share the process-global tracer, so each
    // trace also holds the WORKER-side request:* spans the propagated id
    // produced; the router's root is the outermost (longest) one.
    const Ev* root = nullptr;
    for (const Ev* e : spans) {
      if (e->name.rfind("request:", 0) == 0 &&
          (root == nullptr || e->dur > root->dur)) {
        root = e;
      }
    }
    ASSERT_NE(root, nullptr) << "orphan spans for trace " << trace_id;
    for (const Ev* e : spans) {
      if (e->name.rfind("hop:", 0) != 0) continue;
      EXPECT_GE(e->ts + kEpsUs, root->ts) << e->name;
      EXPECT_LE(e->ts + e->dur, root->ts + root->dur + kEpsUs) << e->name;
      ++hops_checked;
    }
  }
  // gen broadcasts to both workers; emst reads from one: >= 3 hops.
  EXPECT_GE(hops_checked, 3);
}

}  // namespace
}  // namespace parhc
