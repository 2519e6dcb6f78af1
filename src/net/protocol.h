// The serving layer's shared request language: one verb implementation
// for every front-end.
//
// Factored out of examples/parhc_server.cpp so the stdin REPL and the TCP
// server (net/server.h) parse, execute, and format requests with the same
// code — the REPL's batch output is byte-identical to the pre-split
// implementation (regression-locked by tests/protocol_golden_test.cc, and
// the loopback integration test holds the TCP path to the same bytes).
//
// Text verbs (one request per line; responses are '\n'-terminated lines):
//   gen <name> <dim> <uniform|varden|levy|gauss|embed> <n> [seed]
//   load <name> <csv|bin|snap> <path>
//   save <name> <dir>
//   dyn <name> <dim>
//   insert <name> <coords...>
//   geninsert <name> <dim> <kind> <n> [seed]
//   delete <name> <gid> [gid ...]
//   list | drop <name>
//   emst <name> [eps <e>] | slink <name> <k> | hdbscan <name> <minPts>
//     (emst eps: partitioned high-dim path with (1+eps) cross-pair
//      pruning — eps 0 is the exact distance decomposition; the response
//      carries eps=<e> partitions=<p> cross_pruned=<c>)
//   dbscan <name> <minPts> <eps> | reach <name> <minPts>
//   clusters <name> <minPts> <minClusterSize>
//   stats | help | quit
//
// Observability verbs (require ProtocolOptions::obs except `trace`, which
// drives the process-wide tracer; none appear in `help`, whose output is
// golden-pinned):
//   metrics        -> Prometheus text exposition lines, then "ok metrics"
//   metrics json   -> one JSON line: {"metrics":[...]}
//   trace on|off|status|clear
//   trace dump <file>  -> writes Chrome trace_event JSON (chrome://tracing
//                         or Perfetto), replies "ok trace dump <file>
//                         spans=<n>"
//   slowlog        -> one "slow kind=... verb=... queue_us=..." line per
//                     record (oldest first), then "ok slowlog n=<k>
//                     threshold_us=<t>"
//   slowlog clear | slowlog threshold <us>
//
// Binary requests (TCP only; see frame.h for the frame layout) reuse the
// same execution paths: kOpInsertPoints answers with the text `insert`
// verb's line, kOpGetLabels answers with a kOpLabelsReply frame.
//
// This file owns the wire grammar: the query verbs, `insert` coordinates,
// `delete` gids and the kOpInsertPoints / kOpGetLabels request payloads
// are parsed only here (ParseQuery & co. below), by the engine session
// and by the router tier (src/cluster/router.cc) alike. Reply frames are
// encoded and decoded only by the codecs in frame.h; query answers are
// validated and shaped only by engine/answer.h.
//
// Thread-safety: a ProtocolSession holds only a reference to the (thread-
// safe) engine plus immutable options, so distinct sessions may execute
// on distinct threads concurrently. One session must not be driven from
// two threads at once (the TCP scheduler runs at most one request per
// connection at a time, which also keeps responses in request order).
// Verbs that issue parallel scheduler work outside the engine (the data
// generators behind gen/geninsert) run through
// ClusteringEngine::RunExternal, which admits them into the engine's
// build executor and runs them inside a TaskArena worker group like any
// artifact build.
#pragma once

#include <cstdint>
#include <functional>
#include <istream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "net/frame.h"
#include "net/stats.h"
#include "obs/observability.h"

namespace parhc {
namespace net {

/// Spoken protocol revision, reported by the `hello` handshake and the
/// netserver banner. Bump on any incompatible change to the request
/// language or frame payloads; the router refuses upstreams whose hello
/// reports a different version (src/cluster/upstream.h).
inline constexpr int kProtocolVersion = 1;

struct ProtocolOptions {
  /// Appends " secs=<wall clock>" to query responses (the REPL's historical
  /// format). Off in tests/benches that compare transcripts across runs.
  bool show_timing = true;
  /// Server counters for the `stats` verb; null (the REPL) reports engine
  /// counters only.
  const ServerStatsSource* stats_source = nullptr;
  /// Metrics registry + slow-query log behind the `metrics` and `slowlog`
  /// verbs; null front-ends answer those verbs with an err line. Not owned.
  obs::Observability* obs = nullptr;
};

/// Result of executing one request: the exact bytes to write back (every
/// line '\n'-terminated; empty for blank/comment input) and whether the
/// client asked to end the session.
struct ProtocolResult {
  std::string out;
  bool quit = false;
};

/// What the TCP server needs from a session: execute one wire message,
/// optionally answer warm reads inline on the event loop. Implemented by
/// ProtocolSession (engine worker) and cluster::RouterSession (router
/// tier); NetServer accepts any implementation through a SessionFactory
/// (server.h).
class SessionHandler {
 public:
  virtual ~SessionHandler() = default;

  /// Executes one decoded wire message (text line or binary frame).
  virtual ProtocolResult Handle(const WireMessage& msg) = 0;

  /// Inline fast path for the event loop: when the line can be answered
  /// without blocking, sets *out to the exact bytes Handle would produce
  /// and returns true. Default: nothing is inline-answerable.
  virtual bool TryHandleInline(const std::string& line, std::string* out) {
    (void)line;
    (void)out;
    return false;
  }
};

class ProtocolSession : public SessionHandler {
 public:
  explicit ProtocolSession(ClusteringEngine& engine,
                           ProtocolOptions opts = {})
      : engine_(engine), opts_(opts) {}

  /// Executes one text request line (without its '\n').
  ProtocolResult HandleLine(const std::string& line);

  /// Zero-dispatch fast path for the event loop: if `line` is a cleanly
  /// formed query verb (emst/slink/hdbscan/dbscan/reach/clusters) whose
  /// parse provably matches HandleLine's, and the engine can answer it
  /// from cache without blocking (ClusteringEngine::TryRunCached), sets
  /// *out to the exact bytes HandleLine would produce and returns true.
  /// Returns false for everything else — the caller must then route the
  /// line through HandleLine (on a worker). Callers may only use this
  /// when no earlier request of the same client is still pending, or
  /// responses would reorder.
  bool TryHandleCachedQuery(const std::string& line, std::string* out);

  /// Executes one binary frame. The returned bytes are either an encoded
  /// reply frame or a text err line.
  ProtocolResult HandleFrame(uint8_t opcode, const std::string& payload);

  /// Dispatches a decoded wire message to HandleLine/HandleFrame.
  ProtocolResult Handle(const WireMessage& msg) override {
    return msg.binary ? HandleFrame(msg.opcode, msg.payload)
                      : HandleLine(msg.text);
  }

  bool TryHandleInline(const std::string& line, std::string* out) override {
    return TryHandleCachedQuery(line, out);
  }

 private:
  /// HandleLine's body; HandleLine itself only adds trace bookkeeping for
  /// standalone front-ends (REPL/tests) that have no scheduler minting ids.
  ProtocolResult DispatchLine(const std::string& line);

  /// Shared tail of the text and binary insert paths; returns the reply
  /// line.
  std::string DoInsert(const std::string& name,
                       const std::vector<std::vector<double>>& rows);

  ClusteringEngine& engine_;
  ProtocolOptions opts_;
};

/// First whitespace-delimited token of a text line ("frame" for binary
/// messages) — the verb named in `err busy <verb>` load-shed replies.
std::string VerbOf(const WireMessage& msg);

// ---- Helpers shared with the router tier (src/cluster/) ----

/// Formats a query response line ("ok <what> <name> mst_edges=... ..."),
/// byte-identical to what the single-node verbs print (golden-pinned).
/// The router formats its merged answers through this so a sharded
/// response's numeric fields match a single-node engine bit for bit.
std::string FormatQueryResponse(const std::string& what,
                                const std::string& name,
                                const EngineResponse& r, bool show_timing);

/// Answers the observability verbs (metrics, trace, slowlog) into *out
/// for any front-end; returns false when `cmd` is none of them.
bool HandleObservabilityVerb(const std::string& cmd, std::istream& ss,
                             const ProtocolOptions& opts, std::string* out);

/// Runs `dispatch` on one text request line inside its trace. Standalone
/// front-ends (the REPL, tests driving a session or router in-process)
/// have no scheduler minting trace ids, so each request gets its own id
/// and `request:<verb>` span here, joining a propagated " trace=<id>"
/// suffix when a router hop carried one; the suffix is stripped either
/// way. TCP front-ends arrive with the suffix already stripped and an id
/// installed (server.cc/scheduler.cc), which makes this one relaxed load.
ProtocolResult DispatchTraced(
    const std::string& line,
    const std::function<ProtocolResult(const std::string&)>& dispatch);

/// printf into a std::string — the reply-line formatter of every
/// front-end.
std::string StrPrintf(const char* fmt, ...);

/// The `help` verb's text (golden-pinned; the router serves the same).
std::string ProtocolHelpText();

/// The `hello` handshake reply for `role`:
///   "ok hello proto=<v> role=<role> dims=<d1,d2,...>\n"
std::string HelloLine(const char* role);

/// Comma-joined registry-hosted dimensions (the hello dim caps).
std::string ProtocolDims();

/// Strips a trailing " trace=<id>" suffix from a request line and returns
/// the id (0 when absent/malformed, line untouched). The router appends
/// this suffix on router→worker hops so worker spans join the client's
/// trace; stripping is unconditional so untraced workers still parse
/// forwarded lines. (A dataset literally named "trace=<digits>" as the
/// final token would be eaten — accepted, documented quirk.)
uint64_t ExtractTraceSuffix(std::string* line);

// ---- The wire grammar. Each parser returns "" on success, else the
// exact err line to send back. ----

/// True for the query verbs: emst, slink, hdbscan, dbscan, reach,
/// clusters.
bool IsQueryVerb(const std::string& cmd);

/// Parses query verb `cmd`'s arguments (`ss` is positioned after the
/// verb) into *req.
std::string ParseQuery(const std::string& cmd, std::istream& ss,
                       EngineRequest* req);

/// Parses `insert <name>`'s coordinates (`ss` is positioned after the
/// name) into rows of `dim` values.
std::string ParseInsertCoords(const std::string& name, int dim,
                              std::istream& ss,
                              std::vector<std::vector<double>>* rows);

/// Parses `delete <name>`'s gid list (`ss` is positioned after the name).
std::string ParseDeleteGids(const std::string& name, std::istream& ss,
                            std::vector<uint32_t>* gids);

/// A decoded kOpInsertPoints request; the coordinates land straight in
/// the rows.
struct InsertPointsRequest {
  std::string name;
  int dim = 0;
  std::vector<std::vector<double>> rows;
};
std::string DecodeInsertPoints(const std::string& payload,
                               InsertPointsRequest* req);

/// Decodes a kOpGetLabels request into the equivalent query.
std::string DecodeGetLabels(const std::string& payload, EngineRequest* req);

/// The reply to a kOpGetLabels request for dataset `name`: a
/// kOpLabelsReply frame, or the err line.
std::string FormatLabelsResponse(const std::string& name,
                                 const EngineResponse& r);

/// Generated points as runtime rows (the `gen`/`geninsert` generators);
/// empty when the kind or dim is unknown. Callers that issue this from a
/// serving path should wrap it in ClusteringEngine::RunExternal — the
/// generators issue parallel scheduler work.
std::vector<std::vector<double>> GenerateRows(int dim,
                                              const std::string& kind,
                                              size_t n, uint64_t seed);

}  // namespace net
}  // namespace parhc
