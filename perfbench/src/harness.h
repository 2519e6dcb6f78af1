// Benchmark harness: run options, timing statistics, the benchmark-side span
// recorder, process memory, and the result printer.
//
// Every workload fills one Report. With tracing off it carries the
// end-to-end metrics; with tracing on, the per-layer metrics. The last line
// the binary prints is the Report as one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the line before it is the run's context (hardware, pool, ISA, sizes).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  ///< length of the measured phase
  bool trace = false;   ///< per-layer run (spans on) instead of end-to-end
  bool tiny = false;    ///< self-check sizes: every workload in seconds
  std::string spans_dir;  ///< where the traced run writes its spans
};

/// Seed-spreader clusters in the 2D varden inputs. Ten times the
/// generator's default, so each seed's radii and densities average out and
/// runs with different seeds do comparable work.
inline constexpr int kVardenClusters = 100;

/// Seconds on the steady clock since an arbitrary epoch.
double Now();

/// Median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// One workload's outcome: correctness, operation counts, metrics and
/// context notes.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Context entry printed on the line before the result.
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);

  /// Counts `ok` operations as attempted and the rest as failed; a failure
  /// also marks the run incorrect and records `what` on stderr.
  void Check(bool ok, const std::string& what);
  void Attempt(uint64_t n) { attempted_ += n; }
  void Failures(uint64_t n, const std::string& what);

  bool correct() const { return correct_; }
  /// Failed ÷ attempted operations.
  double FailRatio() const;
  void PrintContext() const;
  void PrintResult() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Benchmark-side span recorder. The benchmark wraps each call into a layer
/// of the program in a ScopedSpan named "<layer>.<operation>"; spans stay in
/// memory and are written out once, when the run ends. Recording is off
/// unless Enable(true) — a disabled span costs one branch.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int64_t parent = -1;  ///< index of the enclosing span, -1 at top level
    uint64_t run_id = 0;  ///< spans of one pass or request share an id
  };

  static SpanRecorder& Get();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Starts a new pass/request id for the spans that follow.
  uint64_t NewRun() { return ++run_id_; }

  int64_t Begin(const char* name);
  void End(int64_t index);

  /// Self time per layer (the name prefix before the first '.'), averaged
  /// over the runs in which the layer has a span: each span's duration
  /// minus the part of it its child spans cover.
  std::map<std::string, double> SelfSecondsPerRun() const;

  /// Writes every span as a JSON array to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

  size_t size() const { return spans_.size(); }

 private:
  bool enabled_ = false;
  uint64_t run_id_ = 0;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(SpanRecorder::Get().enabled() ? SpanRecorder::Get().Begin(name)
                                             : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) SpanRecorder::Get().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

/// Adds `<layer>.self_s` for every layer recorded so far and writes the
/// spans to the options' spans directory.
void ReportSpans(const Options& o, Report& rep);

// ---- workloads ----
void RunVarden2d(const Options& o, Report& rep);
void RunEmbed64d(const Options& o, Report& rep);

}  // namespace perfbench
