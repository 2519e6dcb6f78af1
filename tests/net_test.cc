// Tests for the networked serving layer (src/net/): wire framing,
// the fair bounded scheduler, and the TCP server end to end.
//
// The loopback integration tests drive real sockets against an in-process
// NetServer and hold every response byte-identical to a single-threaded
// replay of the same commands through the shared protocol core (which is
// exactly what the stdin REPL executes). They run under TSan in CI
// together with the engine/store/dynamic concurrency tests.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "net/scheduler.h"
#include "net/server.h"
#include "net/stats.h"
#include "obs/trace.h"
#include "parhc.h"

namespace parhc {
namespace {

using net::FrameSplitter;
using net::WireMessage;

// ---------------------------------------------------------------------------
// Framing

std::vector<WireMessage> DrainAll(FrameSplitter& s) {
  std::vector<WireMessage> out;
  WireMessage m;
  while (s.Next(&m)) out.push_back(m);
  return out;
}

TEST(FrameSplitter, SplitsLinesAcrossArbitraryChunks) {
  const std::string stream = "hello world\r\nsecond line\nthird";
  // Feed byte by byte: the worst split-write case.
  FrameSplitter s(/*allow_binary=*/true);
  std::vector<WireMessage> msgs;
  for (char c : stream) {
    s.Feed(&c, 1);
    for (auto& m : DrainAll(s)) msgs.push_back(m);
  }
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[0].text, "hello world");  // '\r' stripped
  EXPECT_EQ(msgs[1].text, "second line");
  s.FlushEof();  // final line without '\n' still arrives
  auto rest = DrainAll(s);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].text, "third");
  EXPECT_TRUE(s.error().empty());
}

TEST(FrameSplitter, BinaryFrameRoundTripInterleavedWithText) {
  std::string payload = "\x00\x01\xff payload \n with newline";
  std::string stream = "textverb a b\n";
  stream += net::EncodeFrame(net::kOpInsertPoints, payload);
  stream += "after frame\n";

  FrameSplitter s(/*allow_binary=*/true);
  // Feed in 3-byte chunks: frames must reassemble across splits.
  for (size_t i = 0; i < stream.size(); i += 3) {
    s.Feed(stream.substr(i, 3));
  }
  auto msgs = DrainAll(s);
  ASSERT_EQ(msgs.size(), 3u);
  EXPECT_FALSE(msgs[0].binary);
  EXPECT_EQ(msgs[0].text, "textverb a b");
  ASSERT_TRUE(msgs[1].binary);
  EXPECT_EQ(msgs[1].opcode, net::kOpInsertPoints);
  EXPECT_EQ(msgs[1].payload, payload);
  EXPECT_FALSE(msgs[2].binary);
  EXPECT_EQ(msgs[2].text, "after frame");
}

TEST(FrameSplitter, OversizedFrameIsAConnectionFatalError) {
  std::string stream;
  stream.push_back(static_cast<char>(net::kFrameMagic));
  stream.push_back(static_cast<char>(net::kOpInsertPoints));
  net::PutU32(&stream, static_cast<uint32_t>(net::kMaxFramePayload + 1));
  FrameSplitter s(/*allow_binary=*/true);
  s.Feed(stream);
  WireMessage m;
  EXPECT_FALSE(s.Next(&m));
  EXPECT_NE(s.error().find("exceeds"), std::string::npos);
  // Latches: no further messages come out.
  s.Feed("emst x\n");
  EXPECT_FALSE(s.Next(&m));
}

TEST(FrameSplitter, TruncatedFrameAtEofIsAnError) {
  std::string frame = net::EncodeFrame(net::kOpGetLabels, "abcdef");
  FrameSplitter s(/*allow_binary=*/true);
  s.Feed(frame.substr(0, frame.size() - 2));
  WireMessage m;
  EXPECT_FALSE(s.Next(&m));
  EXPECT_TRUE(s.error().empty());  // just incomplete, not an error yet
  s.FlushEof();
  EXPECT_FALSE(s.Next(&m));
  EXPECT_NE(s.error().find("truncated"), std::string::npos);
}

TEST(FrameSplitter, LineCapIsConfigurableAndUnlimitedForTheRepl) {
  // TCP-style cap: a line past max_line_bytes is a latched error.
  FrameSplitter capped(/*allow_binary=*/true, /*max_line_bytes=*/16);
  capped.Feed(std::string(17, 'x') + "\n");
  WireMessage m;
  EXPECT_FALSE(capped.Next(&m));
  EXPECT_NE(capped.error().find("exceeds"), std::string::npos);

  // REPL-style unlimited: a multi-megabyte insert line (longer than the
  // TCP kMaxLineBytes) parses fine, as with the pre-refactor getline.
  FrameSplitter repl(/*allow_binary=*/false,
                     std::numeric_limits<size_t>::max());
  std::string big(net::kMaxLineBytes + 100, 'y');
  repl.Feed(big + "\n");
  ASSERT_TRUE(repl.Next(&m));
  EXPECT_EQ(m.text, big);
  EXPECT_TRUE(repl.error().empty());
}

TEST(FrameSplitter, TextModeTreatsMagicByteAsLineData) {
  FrameSplitter s(/*allow_binary=*/false);
  std::string line = "\x01 not a frame\n";
  s.Feed(line);
  WireMessage m;
  ASSERT_TRUE(s.Next(&m));
  EXPECT_FALSE(m.binary);
  EXPECT_EQ(m.text, "\x01 not a frame");
}

TEST(PayloadReader, BoundsCheckedReads) {
  std::string p;
  net::PutU16(&p, 7);
  net::PutU32(&p, 0xdeadbeef);
  net::PutF64(&p, 2.5);
  net::PayloadReader rd(p);
  EXPECT_EQ(rd.GetU16(), 7);
  EXPECT_EQ(rd.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(rd.GetF64(), 2.5);
  EXPECT_TRUE(rd.ok());
  EXPECT_EQ(rd.remaining(), 0u);
  rd.GetU64();  // overrun
  EXPECT_FALSE(rd.ok());
}

TEST(LatencyHistogram, QuantilesInterpolateWithinBuckets) {
  net::LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(3);   // bucket [2,4) → bound 3
  h.Record(1000);                             // bucket [512,1024) → 1023
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.QuantileUs(0.5), 3u);
  // Rank 99 is still in the 3µs bucket; only the very last sample (the
  // 1000µs outlier) reports its bucket's upper bound.
  EXPECT_EQ(h.QuantileUs(0.99), 3u);
  EXPECT_EQ(h.QuantileUs(1.0), 1023u);
}

// ---------------------------------------------------------------------------
// Scheduler

struct CollectedCompletion {
  uint64_t conn;
  uint64_t seq;
  std::string bytes;
  bool shed;
};

struct Collector {
  std::mutex mu;
  std::vector<CollectedCompletion> done;
  net::QueryScheduler::Completion Fn() {
    return [this](uint64_t c, uint64_t s, std::string b, bool sh) {
      std::lock_guard<std::mutex> lock(mu);
      done.push_back({c, s, std::move(b), sh});
    };
  }
};

/// Spins until the scheduler has picked up a job (the gate-blocked tests
/// must not race their follow-up submissions against worker startup).
void WaitForInflight(const net::QueryScheduler& sched) {
  for (int i = 0; i < 5000 && sched.inflight_now() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(sched.inflight_now(), 1u);
}

TEST(QueryScheduler, PerConnectionResponsesCompleteInRequestOrder) {
  Collector col;
  net::QueryScheduler::Options opts;
  opts.workers = 4;
  opts.max_queued = 1000;
  net::QueryScheduler sched(opts, col.Fn());
  for (int i = 0; i < 50; ++i) {
    sched.Submit(1, "busy", [i] {
      // Later jobs are faster: only the one-in-flight rule keeps order.
      std::this_thread::sleep_for(std::chrono::microseconds(500 - i * 10));
      return std::to_string(i);
    });
  }
  sched.Drain();
  ASSERT_EQ(col.done.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(col.done[i].seq, static_cast<uint64_t>(i));
    EXPECT_EQ(col.done[i].bytes, std::to_string(i));
    EXPECT_FALSE(col.done[i].shed);
  }
  EXPECT_EQ(sched.served(), 50u);
  EXPECT_EQ(sched.shed(), 0u);
}

TEST(QueryScheduler, RoundRobinIsFairAcrossConnections) {
  Collector col;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  net::QueryScheduler::Options opts;
  opts.workers = 1;  // deterministic dispatch order
  opts.max_queued = 1000;
  net::QueryScheduler sched(opts, col.Fn());
  sched.Submit(1, "busy", [opened] {
    opened.wait();
    return std::string("A0");
  });
  WaitForInflight(sched);
  // While A0 blocks the only worker: A floods, then B arrives.
  for (int i = 1; i <= 5; ++i) {
    sched.Submit(1, "busy", [i] { return "A" + std::to_string(i); });
  }
  for (int i = 0; i < 2; ++i) {
    sched.Submit(2, "busy", [i] { return "B" + std::to_string(i); });
  }
  gate.set_value();
  sched.Drain();
  ASSERT_EQ(col.done.size(), 8u);
  auto pos = [&](const std::string& b) {
    for (size_t i = 0; i < col.done.size(); ++i) {
      if (col.done[i].bytes == b) return i;
    }
    return size_t{999};
  };
  // B's two requests must not wait behind A's whole backlog.
  EXPECT_LT(pos("B0"), pos("A2"));
  EXPECT_LT(pos("B1"), pos("A3"));
}

TEST(QueryScheduler, OverloadShedsInOrderWithBusyReplies) {
  Collector col;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  net::QueryScheduler::Options opts;
  opts.workers = 1;
  opts.max_queued = 2;  // j0 in flight, j1+j2 queued, j3+j4 shed
  net::QueryScheduler sched(opts, col.Fn());
  for (int i = 0; i < 5; ++i) {
    sched.Submit(7, "err busy job" + std::to_string(i), [opened, i] {
      if (i == 0) opened.wait();
      return "ok job" + std::to_string(i);
    });
    if (i == 0) WaitForInflight(sched);  // j1..j4 queue behind j0
  }
  gate.set_value();
  sched.Drain();
  ASSERT_EQ(col.done.size(), 5u);
  std::vector<bool> shed_want = {false, false, false, true, true};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(col.done[i].seq, static_cast<uint64_t>(i));
    EXPECT_EQ(col.done[i].shed, shed_want[i]) << i;
    EXPECT_EQ(col.done[i].bytes,
              (shed_want[i] ? "err busy job" : "ok job") +
                  std::to_string(i));
  }
  EXPECT_EQ(sched.served(), 3u);
  EXPECT_EQ(sched.shed(), 2u);
}

TEST(QueryScheduler, CloseConnDropsQueuedWork) {
  Collector col;
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  net::QueryScheduler::Options opts;
  opts.workers = 1;
  opts.max_queued = 100;
  net::QueryScheduler sched(opts, col.Fn());
  std::atomic<int> ran{0};
  sched.Submit(1, "busy", [opened, &ran] {
    opened.wait();
    ++ran;
    return std::string("first");
  });
  WaitForInflight(sched);  // first job is running when CloseConn drops
                           // the rest
  for (int i = 0; i < 5; ++i) {
    sched.Submit(1, "busy", [&ran] {
      ++ran;
      return std::string("later");
    });
  }
  sched.CloseConn(1);
  gate.set_value();
  sched.Drain();
  sched.Stop();
  // The in-flight job finished; the queued five were dropped.
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(col.done.size(), 1u);
}

// ---------------------------------------------------------------------------
// Loopback TCP helpers

class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof addr) == 0;
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    size_t off = 0;
    while (off < bytes.size()) {
      ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, 0);
      ASSERT_GT(n, 0);
      off += static_cast<size_t>(n);
    }
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Blocking read of one '\n'-terminated line (returned with the '\n').
  /// Empty on EOF.
  std::string ReadLine() {
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl + 1);
        buf_.erase(0, nl + 1);
        return line;
      }
      if (!FillBuf()) {
        std::string rest = std::move(buf_);
        buf_.clear();
        return rest;  // EOF: possibly a final partial line
      }
    }
  }

  /// Blocking read of one complete binary frame; false on EOF/garbage.
  bool ReadFrame(uint8_t* opcode, std::string* payload) {
    while (buf_.size() < net::kFrameHeaderBytes) {
      if (!FillBuf()) return false;
    }
    if (static_cast<uint8_t>(buf_[0]) != net::kFrameMagic) return false;
    uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[2 + i]))
             << (8 * i);
    }
    while (buf_.size() < net::kFrameHeaderBytes + len) {
      if (!FillBuf()) return false;
    }
    *opcode = static_cast<uint8_t>(buf_[1]);
    payload->assign(buf_, net::kFrameHeaderBytes, len);
    buf_.erase(0, net::kFrameHeaderBytes + len);
    return true;
  }

  /// Reads until EOF, returning everything (including buffered bytes).
  std::string ReadAll() {
    while (FillBuf()) {
    }
    std::string all = std::move(buf_);
    buf_.clear();
    return all;
  }

 private:
  bool FillBuf() {
    char tmp[16384];
    ssize_t n = ::read(fd_, tmp, sizeof tmp);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  bool connected_ = false;
  std::string buf_;
};

struct ServerFixture {
  explicit ServerFixture(net::NetServerOptions opts = DefaultOpts()) {
    server = std::make_unique<net::NetServer>(engine, opts);
    std::string err = server->Start();
    EXPECT_EQ(err, "");
    loop = std::thread([this] { server->Run(); });
  }

  ~ServerFixture() {
    server->Shutdown();
    loop.join();
  }

  static net::NetServerOptions DefaultOpts() {
    net::NetServerOptions opts;
    opts.port = 0;
    opts.workers = 4;
    opts.show_timing = false;  // transcripts compared across runs
    return opts;
  }

  ClusteringEngine engine;
  std::unique_ptr<net::NetServer> server;
  std::thread loop;
};

/// The per-client command script for the mixed-load integration test.
/// Each client works on its own datasets, so its expected transcript is
/// independent of the 31 other clients interleaving with it.
std::vector<std::string> ClientScript(int i) {
  std::string d = "d" + std::to_string(i);
  std::string s = "s" + std::to_string(i);
  size_t n = 200 + static_cast<size_t>(i);
  return {
      "gen " + d + " 2 uniform " + std::to_string(n) + " " +
          std::to_string(i + 1),
      "hdbscan " + d + " 8",
      "hdbscan " + d + " 8",
      "dbscan " + d + " 8 0.05",
      "clusters " + d + " 8 10",
      "emst " + d,
      "slink " + d + " 3",
      "dyn " + s + " 2",
      "insert " + s + " 0.5 0.5 1.5 1.5 2.5 2.5 3.5 3.5",
      "emst " + s,
      "delete " + s + " 1",
      "emst " + s,
      "geninsert " + s + " 2 varden 30 " + std::to_string(i + 3),
      "hdbscan " + s + " 4",
      "frobnicate " + d,
      "emst nosuch" + std::to_string(i),
  };
}

/// Single-threaded reference: the same commands through the shared
/// protocol core (== the REPL path) on a fresh engine.
std::vector<std::string> ReferenceAnswers(
    const std::vector<std::string>& lines) {
  ClusteringEngine engine;
  net::ProtocolOptions popts;
  popts.show_timing = false;
  net::ProtocolSession session(engine, popts);
  std::vector<std::string> out;
  for (const std::string& line : lines) {
    out.push_back(session.HandleLine(line).out);
  }
  return out;
}

// A NaN or +-Inf coordinate is refused where it comes in (binary insert
// frame, csv and bin loads) with a typed err line, and the dataset keeps
// answering: before, the next emst aborted the process.
TEST(ProtocolSession, NonFiniteCoordinatesAreRejectedAtIngress) {
  ClusteringEngine engine;
  net::ProtocolOptions popts;
  popts.show_timing = false;
  net::ProtocolSession session(engine, popts);
  ASSERT_EQ(session.HandleLine("dyn d 2").out, "ok dyn d dim=2\n");
  ASSERT_EQ(session.HandleLine("insert d 0 0 1 1 2 2.5").out,
            "ok insert d n=3 gids=[0,3)\n");
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    std::string payload;
    net::PutU16(&payload, 1);
    payload += "d";
    net::PutU16(&payload, 2);
    net::PutU32(&payload, 2);
    for (double v : {3.0, 3.0, 4.0, bad}) net::PutF64(&payload, v);
    EXPECT_EQ(session.HandleFrame(net::kOpInsertPoints, payload).out,
              "err insert d: non-finite coordinate in row 1\n");
  }
  std::string emst = session.HandleLine("emst d").out;
  EXPECT_EQ(emst.rfind("ok emst d mst_edges=2 ", 0), 0u) << emst;
  EXPECT_EQ(session.HandleLine("insert d 5 5").out,
            "ok insert d n=1 gids=[3,4)\n");

  const std::string csv = ::testing::TempDir() + "/nonfinite.csv";
  {
    std::ofstream f(csv);
    f << "0,0\n# comment\n1,nan\n";
  }
  EXPECT_EQ(session.HandleLine("load c csv " + csv).out,
            "err load: " + csv + " line 3: non-finite coordinate\n");
  const std::string bin = ::testing::TempDir() + "/nonfinite.bin";
  WritePointsBin(bin, std::vector<std::vector<double>>{{0, 0}, {1, -inf}});
  EXPECT_EQ(session.HandleLine("load b bin " + bin).out,
            "err load: " + bin + " row 1: non-finite coordinate\n");
  EXPECT_EQ(session.HandleLine("list").out.find("dataset c"),
            std::string::npos);
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

// ---------------------------------------------------------------------------
// Loopback integration

void RunMixedLoadIntegration(bool use_poll) {
  auto opts = ServerFixture::DefaultOpts();
  opts.use_poll = use_poll;
  ServerFixture fx(opts);

  constexpr int kClients = 32;
  std::vector<std::vector<std::string>> transcripts(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&fx, &transcripts, i] {
      TestClient client(fx.server->port());
      ASSERT_TRUE(client.connected());
      std::vector<std::string> script = ClientScript(i);
      // Phase 1: strict request/response.
      for (const std::string& line : script) {
        client.Send(line + "\n");
        transcripts[i].push_back(client.ReadLine());
      }
      // Phase 2: the whole script pipelined in one write; responses must
      // come back complete and in order.
      std::string all;
      for (const std::string& line : script) all += line + "\n";
      client.Send(all);
      for (size_t k = 0; k < script.size(); ++k) {
        transcripts[i].push_back(client.ReadLine());
      }
      client.Send("quit\n");
      EXPECT_EQ(client.ReadAll(), "");  // server closes after quit
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kClients; ++i) {
    std::vector<std::string> script = ClientScript(i);
    // The reference replays both phases back to back on one session, so
    // stateful verbs (dyn/insert/geninsert gid counters, artifact cache
    // traces) line up exactly.
    std::vector<std::string> both = script;
    both.insert(both.end(), script.begin(), script.end());
    std::vector<std::string> want = ReferenceAnswers(both);
    ASSERT_EQ(transcripts[i].size(), want.size());
    for (size_t k = 0; k < want.size(); ++k) {
      EXPECT_EQ(transcripts[i][k], want[k])
          << "client " << i << " response " << k;
    }
  }

  net::ServerStatsSnapshot stats = fx.server->Stats();
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.protocol_errors, 0u);
  EXPECT_EQ(stats.served, static_cast<uint64_t>(kClients) * 2 *
                              ClientScript(0).size());
}

TEST(NetServer, MixedLoad32ClientsBitMatchesReplEpoll) {
  RunMixedLoadIntegration(/*use_poll=*/false);
}

TEST(NetServer, MixedLoad32ClientsBitMatchesReplPollFallback) {
  RunMixedLoadIntegration(/*use_poll=*/true);
}

TEST(NetServer, BinaryInsertAndLabelFrames) {
  ServerFixture fx;
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());

  client.Send("dyn b 2\n");
  EXPECT_EQ(client.ReadLine(), "ok dyn b dim=2\n");

  // Two clusters of four points each, as one binary bulk-insert frame.
  std::vector<double> coords;
  for (int c = 0; c < 2; ++c) {
    for (int k = 0; k < 4; ++k) {
      coords.push_back(c * 100.0 + k * 0.1);
      coords.push_back(c * 100.0 + k * 0.1);
    }
  }
  std::string payload;
  net::PutU16(&payload, 1);
  payload += "b";
  net::PutU16(&payload, 2);
  net::PutU32(&payload, 8);
  for (double v : coords) net::PutF64(&payload, v);
  client.Send(net::EncodeFrame(net::kOpInsertPoints, payload));
  EXPECT_EQ(client.ReadLine(), "ok insert b n=8 gids=[0,8)\n");

  // Labels request: DBSCAN* at (minPts=2, eps=1.0) → the two clusters.
  std::string lp;
  net::PutU16(&lp, 1);
  lp += "b";
  lp += '\0';  // kind 0 = dbscan
  net::PutU32(&lp, 2);
  net::PutF64(&lp, 1.0);
  client.Send(net::EncodeFrame(net::kOpGetLabels, lp));
  uint8_t opcode = 0;
  std::string reply;
  ASSERT_TRUE(client.ReadFrame(&opcode, &reply));
  EXPECT_EQ(opcode, net::kOpLabelsReply);
  std::vector<int32_t> labels;
  ASSERT_TRUE(net::DecodeLabelsReply(reply, &labels));
  ASSERT_EQ(labels.size(), 8u);

  // Must bit-match the engine answered directly.
  ClusteringEngine ref;
  ref.registry().TryAddDynamic("b", 2);
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < coords.size(); i += 2) {
    rows.push_back({coords[i], coords[i + 1]});
  }
  ref.InsertBatch("b", rows);
  EngineRequest req;
  req.type = QueryType::kDbscanStarAt;
  req.dataset = "b";
  req.min_pts = 2;
  req.eps = 1.0;
  EngineResponse r = ref.Run(req);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(labels, r.labels);

  // Unknown opcode answers a text err line, connection stays up.
  client.Send(net::EncodeFrame(0x7f, "xx"));
  EXPECT_EQ(client.ReadLine(), "err frame: unknown opcode 0x7f\n");
}

TEST(NetServer, MalformedFrameClosesConnectionWithProtocolError) {
  ServerFixture fx;
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  std::string bad;
  bad.push_back(static_cast<char>(net::kFrameMagic));
  bad.push_back(static_cast<char>(net::kOpInsertPoints));
  net::PutU32(&bad, static_cast<uint32_t>(net::kMaxFramePayload + 7));
  client.Send(bad);
  std::string line = client.ReadLine();
  EXPECT_NE(line.find("err protocol:"), std::string::npos) << line;
  EXPECT_EQ(client.ReadAll(), "");  // then EOF
  // Wait for the server to retire the connection before sampling stats.
  for (int i = 0; i < 100; ++i) {
    if (fx.server->Stats().protocol_errors > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(fx.server->Stats().protocol_errors, 1u);
}

TEST(NetServer, FinalLineWithoutNewlineIsAnsweredOverTcp) {
  ServerFixture fx;
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  client.Send("emst nosuch");  // no '\n'
  client.ShutdownWrite();      // EOF reaches the server
  EXPECT_EQ(client.ReadLine(),
            "err emst nosuch: unknown dataset: nosuch\n");
  EXPECT_EQ(client.ReadAll(), "");
}

TEST(NetServer, StatsVerbReportsServerAndEngineCounters) {
  ServerFixture fx;
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  client.Send("gen st 2 uniform 100 1\nemst st\nstats\n");
  EXPECT_EQ(client.ReadLine(), "ok gen st dim=2 n=100 kind=uniform\n");
  client.ReadLine();  // emst answer
  std::string stats = client.ReadLine();
  EXPECT_NE(stats.find("ok stats conns=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("served=2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("p99_us="), std::string::npos) << stats;
  EXPECT_NE(stats.find("engine_queries=1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("engine_builds=1"), std::string::npos) << stats;
  // Build-executor counters (the engine's parallel artifact executor).
  EXPECT_NE(stats.find("workers="), std::string::npos) << stats;
  EXPECT_NE(stats.find("builds_total="), std::string::npos) << stats;
  EXPECT_NE(stats.find("concurrent_builds=0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("peak_builds="), std::string::npos) << stats;
}

// Reads one `metrics` reply: exposition lines up to the trailing
// "ok metrics" marker, returned as one string (marker excluded).
std::string ReadMetricsReply(TestClient& client) {
  std::string body;
  for (;;) {
    std::string line = client.ReadLine();
    if (line.empty() || line == "ok metrics\n") break;
    body += line;
  }
  return body;
}

// Scraping the metrics verb while other clients keep the serving path hot
// must be data-race-free (this test is in the TSan CI job's target list)
// and every scrape must be a complete, well-formed exposition.
TEST(NetServer, MetricsScrapeWhileServingIsRaceFree) {
  ServerFixture fx;
  std::atomic<bool> stop{false};
  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t) {
    load.emplace_back([&fx, &stop, t] {
      TestClient client(fx.server->port());
      ASSERT_TRUE(client.connected());
      std::string d = "m" + std::to_string(t);
      client.Send("gen " + d + " 2 uniform 300 " + std::to_string(t + 1) +
                  "\n");
      client.ReadLine();
      int m = 4;
      while (!stop.load(std::memory_order_relaxed)) {
        client.Send("hdbscan " + d + " " + std::to_string(4 + (m++ % 8)) +
                    "\n");
        ASSERT_NE(client.ReadLine().find("ok hdbscan"), std::string::npos);
      }
    });
  }
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&fx] {
      TestClient client(fx.server->port());
      ASSERT_TRUE(client.connected());
      for (int i = 0; i < 25; ++i) {
        client.Send("metrics\n");
        std::string body = ReadMetricsReply(client);
        EXPECT_NE(body.find("# TYPE parhc_server_served_total counter"),
                  std::string::npos);
        EXPECT_NE(body.find("parhc_engine_queries_total"),
                  std::string::npos);
        EXPECT_NE(body.find("parhc_server_request_latency_us_bucket"),
                  std::string::npos);
        // JSON mode is a single line ending in the closing brace.
        client.Send("metrics json\n");
        std::string json = client.ReadLine();
        EXPECT_EQ(json.rfind("{\"metrics\":[", 0), 0u) << json;
        EXPECT_EQ(json.substr(json.size() - 3), "]}\n");
      }
    });
  }
  for (auto& t : scrapers) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : load) t.join();

  // Quiesced: the per-verb counters must account for every served
  // response (the invariant ci/check_metrics.py asserts over the wire).
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  client.Send("metrics\n");
  std::string body = ReadMetricsReply(client);
  uint64_t served = 0, by_verb = 0;
  std::istringstream lines(body);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("parhc_server_served_total ", 0) == 0) {
      served = std::stoull(line.substr(line.rfind(' ') + 1));
    } else if (line.rfind("parhc_server_requests_total{", 0) == 0) {
      by_verb += std::stoull(line.substr(line.rfind(' ') + 1));
    }
  }
  // The final scrape itself was served but counted after the reply was
  // rendered, so allow the snapshot to trail by that one in-flight verb.
  EXPECT_GE(by_verb + 1, served);
  EXPECT_LE(by_verb, served);
  EXPECT_GT(served, 0u);
}

// --- Trace dump schema + nesting -----------------------------------------

struct TraceEvent {
  std::string name;
  std::string cat;
  double ts = 0;   // µs
  double dur = 0;  // µs
  int pid = 0;
  int tid = 0;
  unsigned long long trace = 0;
};

/// Minimal parser for the exact Chrome trace_event JSON the tracer emits
/// (schema validation: any drift in the field layout fails the sscanf).
std::vector<TraceEvent> ParseTraceDump(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  std::string json((std::istreambuf_iterator<char>(f)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", 0),
            0u);
  std::vector<TraceEvent> events;
  size_t pos = 0;
  const std::string kName = "{\"name\":\"";
  while ((pos = json.find(kName, pos)) != std::string::npos) {
    TraceEvent e;
    size_t name_begin = pos + kName.size();
    size_t name_end = json.find("\",\"cat\":\"", name_begin);
    EXPECT_NE(name_end, std::string::npos);
    e.name = json.substr(name_begin, name_end - name_begin);
    size_t cat_begin = name_end + 9;
    size_t cat_end = json.find("\",\"ph\":\"X\",", cat_begin);
    EXPECT_NE(cat_end, std::string::npos);
    e.cat = json.substr(cat_begin, cat_end - cat_begin);
    int matched = std::sscanf(
        json.c_str() + cat_end,
        "\",\"ph\":\"X\",\"ts\":%lf,\"dur\":%lf,\"pid\":%d,\"tid\":%d,"
        "\"args\":{\"trace\":%llu}}",
        &e.ts, &e.dur, &e.pid, &e.tid, &e.trace);
    EXPECT_EQ(matched, 5) << e.name;
    events.push_back(std::move(e));
    pos = name_end;
  }
  return events;
}

// End-to-end tracing over TCP: `--trace`-style startup, a few traced
// requests, `trace dump`, then automated validation that every span
// carries the schema fields and that each request's `queue` span nests
// (by time containment) inside its `request:<verb>` span.
TEST(NetServer, TraceDumpSpansNestByTimeContainment) {
  auto opts = ServerFixture::DefaultOpts();
  opts.trace = true;
  ServerFixture fx(opts);
  obs::Tracer::Get().Clear();  // drop spans from earlier tests

  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  client.Send("gen tr 2 uniform 400 7\n");
  ASSERT_NE(client.ReadLine().find("ok gen tr"), std::string::npos);
  client.Send("emst tr\nhdbscan tr 8\nemst tr\n");
  for (int i = 0; i < 3; ++i) {
    ASSERT_NE(client.ReadLine().find("ok "), std::string::npos);
  }
  std::string path = ::testing::TempDir() + "/net_trace_dump.json";
  client.Send("trace dump " + path + "\n");
  std::string reply = client.ReadLine();
  ASSERT_EQ(reply.rfind("ok trace dump ", 0), 0u) << reply;

  std::vector<TraceEvent> events = ParseTraceDump(path);
  std::remove(path.c_str());
  ASSERT_GE(events.size(), 8u);  // 4 requests × (request + queue) minimum

  std::map<unsigned long long, std::vector<const TraceEvent*>> by_trace;
  for (const TraceEvent& e : events) {
    EXPECT_FALSE(e.name.empty());
    EXPECT_TRUE(e.cat == "net" || e.cat == "engine" || e.cat == "algo")
        << e.name << " cat=" << e.cat;
    EXPECT_EQ(e.pid, 1);
    EXPECT_GE(e.tid, 1);
    EXPECT_GE(e.dur, 0.0);
    if (e.trace != 0) by_trace[e.trace].push_back(&e);
  }

  // Every traced request: exactly one request:<verb> root, and every
  // other span of that trace fits inside it on the shared clock.
  constexpr double kEpsUs = 0.002;  // dump truncates ns to fixed point
  int requests_seen = 0, children_checked = 0;
  for (const auto& [trace_id, spans] : by_trace) {
    const TraceEvent* root = nullptr;
    for (const TraceEvent* e : spans) {
      if (e->name.rfind("request:", 0) == 0) {
        EXPECT_EQ(root, nullptr) << "two roots for trace " << trace_id;
        root = e;
      }
    }
    ASSERT_NE(root, nullptr) << "orphan spans for trace " << trace_id;
    ++requests_seen;
    for (const TraceEvent* e : spans) {
      if (e == root) continue;
      EXPECT_GE(e->ts + kEpsUs, root->ts)
          << e->name << " starts before its " << root->name;
      EXPECT_LE(e->ts + e->dur, root->ts + root->dur + kEpsUs)
          << e->name << " ends after its " << root->name;
      ++children_checked;
    }
  }
  EXPECT_GE(requests_seen, 4);
  EXPECT_GE(children_checked, 4);  // at least the queue spans

  obs::Tracer::Get().Disable();
  obs::Tracer::Get().Clear();
}

TEST(NetServer, IdleConnectionsAreClosed) {
  auto opts = ServerFixture::DefaultOpts();
  opts.idle_timeout_ms = 150;
  ServerFixture fx(opts);
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(client.ReadAll(), "");  // server closes us
  auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(30));
  EXPECT_EQ(fx.server->Stats().idle_closed, 1u);
}

TEST(NetServer, GracefulDrainAnswersEverythingAccepted) {
  auto opts = ServerFixture::DefaultOpts();
  opts.workers = 1;  // keep a backlog at shutdown time
  // The assertion is the drain *guarantee* (everything accepted gets
  // answered), not the deadline: under sanitizer builds the queued
  // builds can outlast the 5 s default, which would legitimately force-
  // close the tail.
  opts.drain_timeout_ms = 300000;
  ServerFixture fx(opts);
  TestClient client(fx.server->port());
  ASSERT_TRUE(client.connected());
  client.Send("gen dr 2 uniform 3000 1\n");
  EXPECT_EQ(client.ReadLine(), "ok gen dr dim=2 n=3000 kind=uniform\n");
  // Pipeline 20 distinct-minPts queries (each builds artifacts → slow
  // enough that some are still queued when the drain starts).
  std::string burst;
  constexpr int kQueries = 20;
  for (int m = 0; m < kQueries; ++m) {
    burst += "hdbscan dr " + std::to_string(4 + m) + "\n";
  }
  client.Send(burst);
  // Give the event loop ample time to parse and submit the burst (the
  // submission path does not wait on the busy worker), then drain.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  fx.server->Shutdown();
  int answered = 0;
  for (;;) {
    std::string line = client.ReadLine();
    if (line.empty()) break;  // EOF after drain
    EXPECT_NE(line.find("ok hdbscan dr"), std::string::npos) << line;
    ++answered;
  }
  EXPECT_EQ(answered, kQueries);
  // ~ServerFixture joins Run(); reaching here without hanging is the
  // drain-completes guarantee.
}

}  // namespace
}  // namespace parhc
