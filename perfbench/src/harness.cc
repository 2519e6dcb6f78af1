#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <set>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, JsonString(value));
}

void Report::Note(const std::string& key, double value) {
  notes_.emplace_back(key, JsonNumber(value));
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) Failures(1, what);
}

void Report::Failures(uint64_t n, const std::string& what) {
  if (n == 0) return;
  failed_ += n;
  correct_ = false;
  fprintf(stderr, "perfbench: FAILED (%" PRIu64 "x): %s\n", n, what.c_str());
}

double Report::FailRatio() const {
  return static_cast<double>(failed_) /
         static_cast<double>(std::max<uint64_t>(attempted_, 1));
}

void Report::PrintContext() const {
  std::string s = "{\"context\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i) s += ", ";
    s += JsonString(notes_[i].first) + ": " + notes_[i].second;
  }
  printf("%s}}\n", s.c_str());
}

void Report::PrintResult() const {
  std::string s = "{\"correct\": ";
  s += correct_ ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(std::max<uint64_t>(attempted_, 1));
  s += ", \"failed\": " + std::to_string(failed_);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i) s += ", ";
    s += JsonString(metrics_[i].name) + ": {\"value\": " +
         JsonNumber(metrics_[i].value) +
         ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  printf("%s}}\n", s.c_str());
  fflush(stdout);
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

namespace {
thread_local int64_t tl_open_span = -1;
}  // namespace

int64_t SpanRecorder::Begin(const char* name) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = name;
  s.parent = tl_open_span;
  s.run_id = run_id_;
  s.start = Now();
  spans_.push_back(std::move(s));
  tl_open_span = static_cast<int64_t>(spans_.size()) - 1;
  return tl_open_span;
}

void SpanRecorder::End(int64_t index) {
  double t = Now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(index)];
  s.end = t;
  tl_open_span = s.parent;
}

std::map<std::string, double> SpanRecorder::SelfSecondsPerRun() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span are sequential (spans come from one thread per
  // parent), so the covered part is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, double> self;
  std::map<std::string, std::set<uint64_t>> runs;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const std::string& n = spans_[i].name;
    std::string layer = n.substr(0, n.find('.'));
    self[layer] += (spans_[i].end - spans_[i].start) - child_time[i];
    runs[layer].insert(spans_[i].run_id);
  }
  for (auto& [layer, secs] : self) {
    secs /= static_cast<double>(runs[layer].size());
  }
  return self;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    fprintf(f,
            "  {\"id\": %zu, \"name\": %s, \"start_s\": %.9f, \"end_s\": "
            "%.9f, \"parent\": %" PRId64 ", \"run_id\": %" PRIu64 "}%s\n",
            i, JsonString(s.name).c_str(), s.start, s.end, s.parent,
            s.run_id, i + 1 < spans_.size() ? "," : "");
  }
  fprintf(f, "]\n");
  return fclose(f) == 0;
}

void ReportSpans(const Options& o, Report& rep) {
  SpanRecorder& rec = SpanRecorder::Get();
  for (const auto& [layer, secs] : rec.SelfSecondsPerRun()) {
    if (layer == "pipeline") continue;  // benchmark glue, not a layer
    rep.Add(layer + ".self_s", secs, "s");
  }
  rep.Note("spans", static_cast<double>(rec.size()));
  if (!o.spans_dir.empty()) {
    std::string path = o.spans_dir + "/spans-" + o.workload + "-" +
                       std::to_string(o.seed) + ".json";
    if (rec.WriteJson(path)) rep.Note("spans_file", path);
  }
}

}  // namespace perfbench
