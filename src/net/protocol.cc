// Verb implementations of the serving protocol (see protocol.h).
//
// Ported verbatim from the pre-PR examples/parhc_server.cpp REPL loop:
// every response is formatted with the same format strings so the REPL's
// batch output stays byte-identical (tests/protocol_golden_test.cc pins
// this against a transcript captured from the original implementation).
#include "net/protocol.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/generators.h"
#include "data/io.h"
#include "obs/trace.h"
#include "obs/verb_counters.h"

namespace parhc {
namespace net {

std::string StrPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  char buf[512];
  int n = vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < 0) return {};
  if (static_cast<size_t>(n) < sizeof buf) return std::string(buf, n);
  std::string big(static_cast<size_t>(n) + 1, '\0');
  va_start(ap, fmt);
  vsnprintf(&big[0], big.size(), fmt, ap);
  va_end(ap);
  big.resize(static_cast<size_t>(n));
  return big;
}

namespace {

std::string JoinKeys(const std::vector<std::string>& keys) {
  std::string out = "[";
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) out += ',';
    out += keys[i];
  }
  return out + "]";
}

template <int D>
std::vector<Point<D>> GenTyped(const std::string& kind, size_t n,
                               uint64_t seed) {
  if (kind == "uniform") return UniformFill<D>(n, seed);
  if (kind == "varden") return SeedSpreaderVarden<D>(n, seed);
  if (kind == "levy") return SkewedLevy<D>(n, seed);
  if (kind == "gauss") return ClusteredGaussians<D>(n, seed);
  if (kind == "embed") return GaussianEmbeddings<D>(n, seed);
  return {};
}

template <int D>
std::vector<std::vector<double>> RowsFrom(const std::vector<Point<D>>& pts) {
  std::vector<std::vector<double>> rows(pts.size(), std::vector<double>(D));
  for (size_t i = 0; i < pts.size(); ++i) {
    for (int d = 0; d < D; ++d) rows[i][d] = pts[i][d];
  }
  return rows;
}

bool Generate(DatasetRegistry& reg, const std::string& name, int dim,
              const std::string& kind, size_t n, uint64_t seed) {
  if (kind != "uniform" && kind != "varden" && kind != "levy" &&
      kind != "gauss" && kind != "embed") {
    return false;
  }
  switch (dim) {
#define PARHC_GEN_CASE(D)                    \
  case D:                                    \
    reg.Add(name, GenTyped<D>(kind, n, seed)); \
    return true;
    PARHC_FOR_EACH_DIM(PARHC_GEN_CASE)
#undef PARHC_GEN_CASE
    default: return false;
  }
}

// `stats` is deliberately absent below: the REPL's batch output (including
// `help`) is pinned byte-for-byte to the pre-refactor implementation by
// tests/protocol_golden_test.cc. The verb is documented in README
// "Network serving" and protocol.h. `hello` and `cluster` are likewise
// absent for the same reason.
std::string HelpText() {
  return
      "commands:\n"
      "  gen <name> <dim> <uniform|varden|levy|gauss|embed> <n> [seed]\n"
      "  load <name> <csv|bin|snap> <path>\n"
      "  save <name> <dir>\n"
      "  dyn <name> <dim>\n"
      "  insert <name> <coords...>\n"
      "  geninsert <name> <dim> <kind> <n> [seed]\n"
      "  delete <name> <gid> [gid ...]\n"
      "  list | drop <name>\n"
      "  emst <name> [eps <e>]\n"
      "  slink <name> <k>\n"
      "  hdbscan <name> <minPts>\n"
      "  dbscan <name> <minPts> <eps>\n"
      "  reach <name> <minPts>\n"
      "  clusters <name> <minPts> <minClusterSize>\n"
      "  help | quit\n";
}

}  // namespace

std::vector<std::vector<double>> GenerateRows(int dim,
                                              const std::string& kind,
                                              size_t n, uint64_t seed) {
  switch (dim) {
#define PARHC_GEN_CASE(D) \
  case D:                 \
    return RowsFrom(GenTyped<D>(kind, n, seed));
    PARHC_FOR_EACH_DIM(PARHC_GEN_CASE)
#undef PARHC_GEN_CASE
    default: return {};
  }
}

std::string ProtocolDims() {
  std::string out;
#define PARHC_DIM_ITEM(D)            \
  if (!out.empty()) out += ',';      \
  out += std::to_string(D);
  PARHC_FOR_EACH_DIM(PARHC_DIM_ITEM)
#undef PARHC_DIM_ITEM
  return out;
}

std::string HelloLine(const char* role) {
  return StrPrintf("ok hello proto=%d role=%s dims=%s\n", kProtocolVersion,
                   role, ProtocolDims().c_str());
}

std::string ProtocolHelpText() { return HelpText(); }

uint64_t ExtractTraceSuffix(std::string* line) {
  size_t pos = line->rfind(" trace=");
  if (pos == std::string::npos) return 0;
  size_t digits = pos + 7;
  if (digits >= line->size() || line->size() - digits > 20) return 0;
  uint64_t id = 0;
  for (size_t i = digits; i < line->size(); ++i) {
    char c = (*line)[i];
    if (c < '0' || c > '9') return 0;  // not the final token: keep the line
    id = id * 10 + static_cast<uint64_t>(c - '0');
  }
  if (id == 0) return 0;
  line->erase(pos);
  return id;
}

// Hot path under pipelined load: snprintf into a stack buffer, no
// ostringstream. `%.6g` is byte-identical to `ostream << double` at the
// default precision (what the original REPL printed through
// ostringstream) — pinned by tests/protocol_golden_test.cc.
std::string FormatQueryResponse(const std::string& what,
                                const std::string& name,
                                const EngineResponse& r, bool show_timing) {
  if (!r.ok) {
    return StrPrintf("err %s %s: %s\n", what.c_str(), name.c_str(),
                     r.error.c_str());
  }
  char body[256];
  body[0] = '\0';
  size_t off = 0;
  auto put = [&body, &off](const char* fmt, auto... args) {
    if (off >= sizeof body) return;
    int n = snprintf(body + off, sizeof body - off, fmt, args...);
    if (n > 0) off = std::min(off + static_cast<size_t>(n), sizeof body);
  };
  if (r.mst) {
    put(" mst_edges=%zu mst_weight=%.6g", r.mst->size(), r.mst_weight);
  }
  if (r.approx_eps >= 0) {
    // High-dim EMST path: surface the approximation contract (eps bound,
    // decomposition width, how many cross pairs took the eps shortcut).
    put(" eps=%.6g partitions=%d cross_pruned=%zu", r.approx_eps,
        r.partitions, r.cross_pruned);
  }
  if (!r.labels.empty()) {
    put(" clusters=%d noise=%zu", r.num_clusters, r.num_noise);
  }
  if (r.plot) put(" plot_points=%zu", r.plot->order.size());
  if (r.dendrogram && !r.plot && r.labels.empty()) {
    put(" dendro_root_height=%.6g",
        r.dendrogram->num_points() > 1
            ? r.dendrogram->Height(r.dendrogram->root())
            : 0.0);
  }
  char tail[32];
  tail[0] = '\0';
  if (show_timing) snprintf(tail, sizeof tail, " secs=%.4f", r.seconds);
  return StrPrintf("ok %s %s%s built=%s reused=%s%s\n", what.c_str(),
                   name.c_str(), body, JoinKeys(r.built).c_str(),
                   JoinKeys(r.reused).c_str(), tail);
}

bool IsQueryVerb(const std::string& cmd) {
  return cmd == "emst" || cmd == "slink" || cmd == "hdbscan" ||
         cmd == "dbscan" || cmd == "reach" || cmd == "clusters";
}

std::string ParseQuery(const std::string& cmd, std::istream& ss,
                       EngineRequest* req) {
  ss >> req->dataset;
  if (cmd == "emst") {
    req->type = QueryType::kEmst;
    std::string sub;
    if (ss >> sub) {
      // Optional `eps <e>` suffix routes to the partitioned
      // high-dimensional path (emst/emst_highdim.h); eps 0 is the exact
      // distance decomposition.
      if (sub != "eps" || !(ss >> req->emst_eps) || req->emst_eps < 0) {
        return "err emst: usage: emst <name> [eps <e>]\n";
      }
    } else {
      ss.clear();  // plain `emst <name>`: the suffix is optional
    }
  } else if (cmd == "slink") {
    req->type = QueryType::kSingleLinkage;
    ss >> req->k;
  } else if (cmd == "hdbscan") {
    req->type = QueryType::kHdbscan;
    ss >> req->min_pts;
  } else if (cmd == "dbscan") {
    req->type = QueryType::kDbscanStarAt;
    ss >> req->min_pts >> req->eps;
  } else if (cmd == "reach") {
    req->type = QueryType::kReachability;
    ss >> req->min_pts;
  } else {
    req->type = QueryType::kStableClusters;
    ss >> req->min_pts >> req->min_cluster_size;
  }
  // A missing or malformed argument must not silently fall back to a
  // default parameterization and print "ok".
  if (ss.fail() || req->dataset.empty()) {
    return StrPrintf("err %s: missing or malformed arguments (try help)\n",
                     cmd.c_str());
  }
  return "";
}

std::string ParseInsertCoords(const std::string& name, int dim,
                              std::istream& ss,
                              std::vector<std::vector<double>>* rows) {
  std::vector<double> vals;
  double v;
  while (ss >> v) vals.push_back(v);
  // A malformed token must not silently truncate the batch and print
  // "ok" (same rule the query verbs enforce).
  if (!ss.eof()) {
    return StrPrintf("err insert %s: malformed coordinate\n", name.c_str());
  }
  if (vals.empty() || vals.size() % static_cast<size_t>(dim) != 0) {
    return StrPrintf("err insert %s: need a multiple of %d coordinates\n",
                     name.c_str(), dim);
  }
  rows->resize(vals.size() / dim);
  for (size_t i = 0; i < rows->size(); ++i) {
    (*rows)[i].assign(vals.begin() + i * dim, vals.begin() + (i + 1) * dim);
  }
  return "";
}

std::string ParseDeleteGids(const std::string& name, std::istream& ss,
                            std::vector<uint32_t>* gids) {
  uint32_t gid;
  while (ss >> gid) gids->push_back(gid);
  if (!ss.eof()) {
    return StrPrintf("err delete %s: malformed gid\n", name.c_str());
  }
  if (name.empty() || gids->empty()) {
    return "err delete: usage: delete <name> <gid> [gid ...]\n";
  }
  return "";
}

std::string DecodeInsertPoints(const std::string& payload,
                               InsertPointsRequest* req) {
  PayloadReader rd(payload);
  req->name = rd.GetBytes(rd.GetU16());
  req->dim = static_cast<int>(rd.GetU16());
  uint32_t count = rd.GetU32();
  if (!rd.ok() || req->name.empty() || req->dim <= 0 || count == 0 ||
      rd.remaining() !=
          static_cast<size_t>(count) * req->dim * sizeof(double)) {
    return "err insert: malformed frame payload\n";
  }
  req->rows.assign(count, std::vector<double>(req->dim));
  for (auto& row : req->rows) {
    for (double& v : row) v = rd.GetF64();
  }
  return "";
}

std::string DecodeGetLabels(const std::string& payload, EngineRequest* req) {
  PayloadReader rd(payload);
  req->dataset = rd.GetBytes(rd.GetU16());
  uint8_t kind = rd.GetU8();
  req->min_pts = static_cast<int>(rd.GetU32());
  if (kind == 0) {
    req->type = QueryType::kDbscanStarAt;
    req->eps = rd.GetF64();
  } else {
    req->type = QueryType::kStableClusters;
    req->min_cluster_size = static_cast<size_t>(rd.GetU64());
  }
  if (!rd.ok() || req->dataset.empty() || kind > 1 || rd.remaining() != 0) {
    return "err labels: malformed frame payload\n";
  }
  return "";
}

std::string FormatLabelsResponse(const std::string& name,
                                 const EngineResponse& r) {
  if (!r.ok) {
    return StrPrintf("err labels %s: %s\n", name.c_str(), r.error.c_str());
  }
  return EncodeLabelsReply(r.labels);
}

namespace {

// ---- Fast query-line parser (the inline cache-hit path) ----
//
// Splits on the same whitespace set operator>> skips and accepts only
// tokens whose hand parse provably matches istringstream extraction
// (decimal ints without overflow risk; doubles whose characters rule out
// the strtod/num_get divergences: hex, inf, nan). Anything else returns
// false and takes the istringstream path, so the two parses can never
// disagree on an accepted line.

bool IsStreamSpace(char ch) {
  return ch == ' ' || ch == '\t' || ch == '\n' || ch == '\v' ||
         ch == '\f' || ch == '\r';
}

/// Up to the first four whitespace-delimited tokens, allocation-free
/// (the query verbs need at most verb + dataset + two parameters; extra
/// tokens are ignored like the istringstream path ignores them).
int SplitTokens4(const std::string& line, std::string_view out[4]) {
  int count = 0;
  size_t i = 0;
  while (i < line.size() && count < 4) {
    while (i < line.size() && IsStreamSpace(line[i])) ++i;
    size_t b = i;
    while (i < line.size() && !IsStreamSpace(line[i])) ++i;
    if (i > b) out[count++] = std::string_view(line.data() + b, i - b);
  }
  return count;
}

bool ParseSmallInt(std::string_view tok, long* val) {
  size_t i = (tok[0] == '+' || tok[0] == '-') ? 1 : 0;
  if (i == tok.size() || tok.size() - i > 9) return false;  // no overflow
  long v = 0;
  for (size_t k = i; k < tok.size(); ++k) {
    if (tok[k] < '0' || tok[k] > '9') return false;
    v = v * 10 + (tok[k] - '0');
  }
  *val = tok[0] == '-' ? -v : v;
  return true;
}

bool ParseSimpleDouble(std::string_view tok, double* val) {
  if (tok.empty() || tok.size() > 63) return false;
  char buf[64];
  for (size_t k = 0; k < tok.size(); ++k) {
    char ch = tok[k];
    if (!((ch >= '0' && ch <= '9') || ch == '.' || ch == '+' ||
          ch == '-' || ch == 'e' || ch == 'E')) {
      return false;  // rules out hex/inf/nan, where strtod != operator>>
    }
    buf[k] = ch;
  }
  buf[tok.size()] = '\0';
  char* end = nullptr;
  *val = std::strtod(buf, &end);
  return end == buf + tok.size();
}

/// Recognizes a cleanly formed query line; extra trailing tokens are
/// ignored exactly like the istringstream path (which never checks eof
/// for query verbs).
bool FastParseQuery(const std::string& line, EngineRequest* req) {
  if (line.empty() || line[0] == '#') return false;
  std::string_view t[4];
  int nt = SplitTokens4(line, t);
  if (nt < 2) return false;
  std::string_view cmd = t[0];
  long a = 0, b = 0;
  double d = 0;
  if (cmd == "emst") {
    req->type = QueryType::kEmst;
    if (nt > 2) {
      // `emst <name> eps <e>` is the only 4-token form the slow path
      // accepts; anything else must fall through so it errs there.
      if (nt != 4 || t[2] != "eps" || !ParseSimpleDouble(t[3], &d) ||
          d < 0) {
        return false;
      }
      req->emst_eps = d;
    }
  } else if (cmd == "slink") {
    if (nt < 3 || !ParseSmallInt(t[2], &a) || a < 0) return false;
    req->type = QueryType::kSingleLinkage;
    req->k = static_cast<size_t>(a);
  } else if (cmd == "hdbscan") {
    if (nt < 3 || !ParseSmallInt(t[2], &a)) return false;
    req->type = QueryType::kHdbscan;
    req->min_pts = static_cast<int>(a);
  } else if (cmd == "dbscan") {
    if (nt < 4 || !ParseSmallInt(t[2], &a) ||
        !ParseSimpleDouble(t[3], &d)) {
      return false;
    }
    req->type = QueryType::kDbscanStarAt;
    req->min_pts = static_cast<int>(a);
    req->eps = d;
  } else if (cmd == "reach") {
    if (nt < 3 || !ParseSmallInt(t[2], &a)) return false;
    req->type = QueryType::kReachability;
    req->min_pts = static_cast<int>(a);
  } else if (cmd == "clusters") {
    if (nt < 4 || !ParseSmallInt(t[2], &a) || !ParseSmallInt(t[3], &b) ||
        b < 0) {
      return false;
    }
    req->type = QueryType::kStableClusters;
    req->min_pts = static_cast<int>(a);
    req->min_cluster_size = static_cast<size_t>(b);
  } else {
    return false;
  }
  req->dataset.assign(t[1].data(), t[1].size());
  return true;
}

}  // namespace

bool ProtocolSession::TryHandleCachedQuery(const std::string& line,
                                           std::string* out) {
  EngineRequest req;
  if (!FastParseQuery(line, &req)) return false;
  EngineResponse r;
  if (!engine_.TryRunCached(req, &r)) return false;
  // Same verb echo HandleLine produces (the verb is t[0] by construction).
  size_t b = line.find_first_not_of(" \t\n\v\f\r");
  size_t e = line.find_first_of(" \t\n\v\f\r", b);
  *out = FormatQueryResponse(line.substr(b, e - b), req.dataset, r,
                             opts_.show_timing);
  return true;
}

std::string VerbOf(const WireMessage& msg) {
  if (msg.binary) return "frame";
  size_t b = msg.text.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  size_t e = msg.text.find_first_of(" \t", b);
  return msg.text.substr(b, e == std::string::npos ? e : e - b);
}

bool HandleObservabilityVerb(const std::string& cmd, std::istream& ss,
                             const ProtocolOptions& opts, std::string* out) {
  std::string sub;
  ss >> sub;
  if (cmd == "metrics") {
    if (opts.obs == nullptr) {
      *out = "err metrics: no metrics registry in this front-end\n";
    } else if (sub == "json") {
      *out = opts.obs->metrics.Json() + '\n';
    } else if (!sub.empty()) {
      *out = "err metrics: usage: metrics [json]\n";
    } else {
      *out = opts.obs->metrics.PrometheusText() + "ok metrics\n";
    }
  } else if (cmd == "trace") {
    obs::Tracer& tracer = obs::Tracer::Get();
    if (sub == "on") {
      tracer.Enable();
      *out = "ok trace on\n";
    } else if (sub == "off") {
      tracer.Disable();
      *out = "ok trace off\n";
    } else if (sub == "status") {
      *out = StrPrintf("ok trace status enabled=%d spans=%llu dropped=%llu\n",
                       tracer.enabled() ? 1 : 0,
                       static_cast<unsigned long long>(tracer.spans_recorded()),
                       static_cast<unsigned long long>(tracer.spans_dropped()));
    } else if (sub == "clear") {
      tracer.Clear();
      *out = "ok trace clear\n";
    } else if (sub == "dump") {
      std::string path;
      ss >> path;
      size_t spans = 0;
      if (path.empty()) {
        *out = "err trace: usage: trace dump <file>\n";
      } else if (tracer.DumpJsonToFile(path, &spans)) {
        *out = StrPrintf("ok trace dump %s spans=%zu\n", path.c_str(), spans);
      } else {
        *out = StrPrintf("err trace dump %s: cannot write\n", path.c_str());
      }
    } else {
      *out = "err trace: usage: trace on|off|status|clear|dump <file>\n";
    }
  } else if (cmd == "slowlog") {
    uint64_t us = 0;
    if (opts.obs == nullptr) {
      *out = "err slowlog: no slow-query log in this front-end\n";
    } else if (sub == "clear") {
      opts.obs->slowlog.Clear();
      *out = "ok slowlog clear\n";
    } else if (sub == "threshold") {
      if (!(ss >> us)) {
        *out = "err slowlog: usage: slowlog threshold <us>\n";
      } else {
        opts.obs->slowlog.set_threshold_us(us);
        *out = StrPrintf("ok slowlog threshold_us=%llu\n",
                         static_cast<unsigned long long>(us));
      }
    } else if (!sub.empty()) {
      *out = "err slowlog: usage: slowlog [clear|threshold <us>]\n";
    } else {
      std::vector<obs::SlowLogRecord> entries = opts.obs->slowlog.Entries();
      for (const obs::SlowLogRecord& e : entries) *out += e.Format() + '\n';
      *out += StrPrintf(
          "ok slowlog n=%zu threshold_us=%llu\n", entries.size(),
          static_cast<unsigned long long>(opts.obs->slowlog.threshold_us()));
    }
  } else {
    return false;
  }
  return true;
}

ProtocolResult DispatchTraced(
    const std::string& line,
    const std::function<ProtocolResult(const std::string&)>& dispatch) {
  obs::Tracer& tracer = obs::Tracer::Get();
  if (obs::CurrentTraceId() != 0) return dispatch(line);
  // Strip unconditionally, so untraced front-ends still parse forwarded
  // lines.
  std::string stripped = line;
  uint64_t propagated = ExtractTraceSuffix(&stripped);
  if (propagated == 0 && !tracer.enabled()) return dispatch(stripped);
  obs::TraceContext ctx(propagated ? propagated : tracer.MintTraceId());
  size_t b = stripped.find_first_not_of(" \t");
  size_t e = stripped.find_first_of(" \t", b);
  std::string_view verb =
      b == std::string::npos
          ? std::string_view()
          : std::string_view(stripped.data() + b,
                             (e == std::string::npos ? stripped.size() : e) -
                                 b);
  obs::Span span(
      obs::VerbCounters::kRequestSpanNames[obs::VerbCounters::IndexOf(verb)],
      "net");
  return dispatch(stripped);
}

ProtocolResult ProtocolSession::HandleLine(const std::string& line) {
  return DispatchTraced(
      line, [this](const std::string& l) { return DispatchLine(l); });
}

ProtocolResult ProtocolSession::DispatchLine(const std::string& line) {
  ProtocolResult res;
  if (line.empty() || line[0] == '#') return res;
  std::istringstream ss(line);
  std::string cmd;
  ss >> cmd;
  try {
    if (cmd == "quit" || cmd == "exit") {
      res.quit = true;
    } else if (cmd == "help") {
      res.out = HelpText();
    } else if (cmd == "hello") {
      res.out = HelloLine("engine");
    } else if (cmd == "stats") {
      res.out = "ok stats ";
      if (opts_.stats_source) {
        res.out += opts_.stats_source->Stats().Format();
        res.out += ' ';
      }
      res.out += engine_.counters().Format();
      res.out += ' ';
      res.out += engine_.executor().stats().Format();
      res.out += '\n';
    } else if (cmd == "gen") {
      std::string name, kind;
      int dim = 0;
      size_t n = 0;
      uint64_t seed = 1;
      ss >> name >> dim >> kind >> n;
      if (!(ss >> seed)) seed = 1;
      // Generators issue parallel scheduler work, so they run as an
      // executor task inside a worker group (see engine.h::RunExternal).
      bool ok = !name.empty() && n != 0 && engine_.RunExternal([&] {
        return Generate(engine_.registry(), name, dim, kind, n, seed);
      });
      if (!ok) {
        res.out = "err gen: usage/unsupported dim or kind\n";
      } else {
        res.out = StrPrintf("ok gen %s dim=%d n=%zu kind=%s\n", name.c_str(),
                            dim, n, kind.c_str());
      }
    } else if (cmd == "load") {
      std::string name, fmt, path;
      ss >> name >> fmt >> path;
      if (fmt != "csv" && fmt != "bin" && fmt != "snap") {
        res.out = "err load: format must be csv, bin, or snap\n";
        return res;
      }
      std::string err;
      if (fmt == "snap") {
        // Snapshot problems (missing, truncated, corrupt, or
        // version-mismatched files) come back as typed errors turned
        // into strings — never aborts.
        err = engine_.LoadDataset(name, path);
      } else {
        if (std::ifstream probe(path); !probe.good()) {
          res.out = StrPrintf("err load %s: cannot open %s\n", name.c_str(),
                              path.c_str());
          return res;
        }
        // Both loaders surface bad data as errors (CSV parse failures
        // and malformed binary files throw; caught below), never aborts.
        err = fmt == "csv"
                  ? engine_.registry().TryAddRows(name, ReadPointsCsv(path))
                  : engine_.registry().TryAddBin(name, path);
      }
      if (!err.empty()) {
        res.out = StrPrintf("err load %s: %s\n", name.c_str(), err.c_str());
        return res;
      }
      auto entry = engine_.registry().Find(name);
      res.out = StrPrintf("ok load %s dim=%d n=%zu%s\n", name.c_str(),
                          entry->dim(), entry->num_points(),
                          fmt == "snap" ? " warm" : "");
    } else if (cmd == "save") {
      std::string name, dir;
      ss >> name >> dir;
      if (name.empty() || dir.empty()) {
        res.out = "err save: usage: save <name> <dir>\n";
        return res;
      }
      std::string err = engine_.SaveDataset(name, dir);
      if (!err.empty()) {
        res.out = StrPrintf("err save %s: %s\n", name.c_str(), err.c_str());
      } else {
        res.out = StrPrintf("ok save %s dir=%s\n", name.c_str(), dir.c_str());
      }
    } else if (cmd == "dyn") {
      std::string name;
      int dim = 0;
      ss >> name >> dim;
      if (ss.fail() || name.empty()) {
        res.out = "err dyn: usage: dyn <name> <dim>\n";
        return res;
      }
      std::string err = engine_.registry().TryAddDynamic(name, dim);
      if (!err.empty()) {
        res.out = StrPrintf("err dyn %s: %s\n", name.c_str(), err.c_str());
      } else {
        res.out = StrPrintf("ok dyn %s dim=%d\n", name.c_str(), dim);
      }
    } else if (cmd == "insert") {
      std::string name;
      ss >> name;
      auto entry = engine_.registry().Find(name);
      if (!entry) {
        res.out = StrPrintf("err insert %s: unknown dataset\n", name.c_str());
        return res;
      }
      std::vector<std::vector<double>> rows;
      res.out = ParseInsertCoords(name, entry->dim(), ss, &rows);
      if (res.out.empty()) res.out = DoInsert(name, rows);
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
      // Validate the generator kind before the create-if-absent side
      // effect, so a typo doesn't leave a spurious empty dataset behind.
      // (Executor task: generators issue parallel work; see `gen` above.)
      std::vector<std::vector<double>> rows = engine_.RunExternal(
          [&] { return GenerateRows(dim, kind, n, seed); });
      if (rows.empty()) {
        res.out = StrPrintf("err geninsert: unknown kind %s\n", kind.c_str());
        return res;
      }
      if (!engine_.registry().Find(name)) {
        engine_.registry().TryAddDynamic(name, dim);
      }
      uint32_t first = 0;
      std::string err = engine_.InsertBatch(name, rows, &first);
      if (!err.empty()) {
        res.out = StrPrintf("err geninsert %s: %s\n", name.c_str(),
                            err.c_str());
      } else {
        res.out = StrPrintf("ok geninsert %s n=%zu gids=[%u,%u)\n",
                            name.c_str(), n, first,
                            first + static_cast<uint32_t>(n));
      }
    } else if (cmd == "delete") {
      std::string name;
      ss >> name;
      std::vector<uint32_t> gids;
      res.out = ParseDeleteGids(name, ss, &gids);
      if (!res.out.empty()) return res;
      size_t deleted = 0;
      std::string err = engine_.DeleteBatch(name, gids, &deleted);
      if (!err.empty()) {
        res.out = StrPrintf("err delete %s: %s\n", name.c_str(), err.c_str());
      } else {
        res.out = StrPrintf("ok delete %s deleted=%zu\n", name.c_str(),
                            deleted);
      }
    } else if (cmd == "list") {
      for (const DatasetInfo& info : engine_.registry().List()) {
        std::string extra;
        if (info.dynamic) {
          extra = " dynamic shards=" + std::to_string(info.num_shards);
        }
        res.out += StrPrintf("dataset %s dim=%d n=%zu knn_k=%zu cached=%zu%s\n",
                             info.name.c_str(), info.dim, info.num_points,
                             info.knn_k, info.cached_clusterings,
                             extra.c_str());
      }
      res.out += "ok list\n";
    } else if (cmd == "drop") {
      std::string name;
      ss >> name;
      res.out = StrPrintf(engine_.registry().Remove(name)
                              ? "ok drop %s\n"
                              : "err drop %s: unknown\n",
                          name.c_str());
    } else if (IsQueryVerb(cmd)) {
      EngineRequest req;
      res.out = ParseQuery(cmd, ss, &req);
      if (res.out.empty()) {
        res.out = FormatQueryResponse(cmd, req.dataset, engine_.Run(req),
                                      opts_.show_timing);
      }
    } else if (!HandleObservabilityVerb(cmd, ss, opts_, &res.out)) {
      res.out = StrPrintf("err unknown command: %s (try help)\n", cmd.c_str());
    }
  } catch (const std::exception& e) {
    res.out = StrPrintf("err %s: %s\n", cmd.c_str(), e.what());
  }
  return res;
}

ProtocolResult ProtocolSession::HandleFrame(uint8_t opcode,
                                            const std::string& payload) {
  ProtocolResult res;
  try {
    PayloadReader rd(payload);
    if (opcode == kOpInsertPoints) {
      InsertPointsRequest ins;
      res.out = DecodeInsertPoints(payload, &ins);
      if (!res.out.empty()) return res;
      auto entry = engine_.registry().Find(ins.name);
      if (!entry) {
        res.out =
            StrPrintf("err insert %s: unknown dataset\n", ins.name.c_str());
      } else if (entry->dim() != ins.dim) {
        res.out = StrPrintf("err insert %s: frame dim %d != dataset dim %d\n",
                            ins.name.c_str(), ins.dim, entry->dim());
      } else {
        res.out = DoInsert(ins.name, ins.rows);
      }
    } else if (opcode == kOpGetLabels) {
      EngineRequest req;
      res.out = DecodeGetLabels(payload, &req);
      if (res.out.empty()) {
        res.out = FormatLabelsResponse(req.dataset, engine_.Run(req));
      }
    } else if (opcode == kOpExportPoints) {
      std::string name = rd.GetBytes(rd.GetU16());
      if (!rd.ok() || name.empty() || rd.remaining() != 0) {
        res.out = "err export: malformed frame payload\n";
        return res;
      }
      int dim = 0;
      std::vector<uint32_t> gids;
      std::vector<double> coords;
      std::string err = engine_.ExportDataset(name, &dim, &gids, &coords);
      if (!err.empty()) {
        res.out = StrPrintf("err export %s: %s\n", name.c_str(), err.c_str());
        return res;
      }
      res.out = EncodePointsReply(dim, gids, coords);
    } else if (opcode == kOpExportMst) {
      std::string name = rd.GetBytes(rd.GetU16());
      if (!rd.ok() || name.empty() || rd.remaining() != 0) {
        res.out = "err export: malformed frame payload\n";
        return res;
      }
      EngineRequest req;
      req.type = QueryType::kEmst;
      req.dataset = name;
      EngineResponse r = engine_.Run(req);
      if (!r.ok) {
        res.out = StrPrintf("err export %s: %s\n", name.c_str(),
                            r.error.c_str());
        return res;
      }
      // MST endpoints are dense point indices; rewrite to global ids so
      // the router can merge edge lists across workers (point_ids is null
      // for static datasets, where dense index == gid).
      res.out = EncodeEdgesReply(*r.mst, r.point_ids.get());
    } else if (opcode == kOpKnnQuery) {
      std::string name = rd.GetBytes(rd.GetU16());
      uint32_t k = rd.GetU32();
      int dim = static_cast<int>(rd.GetU16());
      uint32_t count = rd.GetU32();
      if (!rd.ok() || name.empty() || k == 0 || dim <= 0 || count == 0 ||
          rd.remaining() != static_cast<size_t>(count) * dim * sizeof(double)) {
        res.out = "err knn: malformed frame payload\n";
        return res;
      }
      std::vector<double> coords(static_cast<size_t>(count) * dim);
      for (double& v : coords) v = rd.GetF64();
      std::vector<double> rows;
      std::string err = engine_.KnnForQueries(name, k, coords, count, &rows);
      if (!err.empty()) {
        res.out = StrPrintf("err knn %s: %s\n", name.c_str(), err.c_str());
        return res;
      }
      res.out = EncodeKnnReply(count, k, rows);
    } else if (opcode == kOpShardMrMst) {
      std::string name = rd.GetBytes(rd.GetU16());
      uint32_t count = rd.GetU32();
      if (!rd.ok() || name.empty() ||
          rd.remaining() != static_cast<size_t>(count) * sizeof(double)) {
        res.out = "err mrmst: malformed frame payload\n";
        return res;
      }
      std::vector<double> core(count);
      for (double& v : core) v = rd.GetF64();
      std::vector<WeightedEdge> edges;
      std::string err = engine_.ShardMrMst(name, core, &edges);
      if (!err.empty()) {
        res.out = StrPrintf("err mrmst %s: %s\n", name.c_str(), err.c_str());
        return res;
      }
      res.out = EncodeEdgesReply(edges, /*ids=*/nullptr);
    } else {
      res.out = StrPrintf("err frame: unknown opcode 0x%02x\n", opcode);
    }
  } catch (const std::exception& e) {
    res.out = StrPrintf("err frame: %s\n", e.what());
  }
  return res;
}

std::string ProtocolSession::DoInsert(
    const std::string& name, const std::vector<std::vector<double>>& rows) {
  uint32_t first = 0;
  std::string err = engine_.InsertBatch(name, rows, &first);
  if (!err.empty()) {
    return StrPrintf("err insert %s: %s\n", name.c_str(), err.c_str());
  }
  return StrPrintf("ok insert %s n=%zu gids=[%u,%u)\n", name.c_str(),
                   rows.size(), first,
                   first + static_cast<uint32_t>(rows.size()));
}

}  // namespace net
}  // namespace parhc
