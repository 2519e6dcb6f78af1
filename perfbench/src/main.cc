// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload <varden-2d|embed-64d>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>] [--tiny]
//
// Generates the workload's inputs from the seed, sets it up, measures for
// the given seconds, checks every answer against an independent oracle
// outside the timed region, and prints the context line and the result
// line (see harness.h). perfbench/run.py builds and drives it.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "geometry/distance.h"
#include "harness.h"
#include "parallel/scheduler.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool SanitizerBuild() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

int Usage(const char* msg) {
  fprintf(stderr, "perfbench: %s\n", msg);
  fprintf(stderr,
          "usage: perfbench --workload <varden-2d|embed-64d> "
          "--seed <n> --seconds <s> --trace <0|1> [--spans-dir <dir>] "
          "[--tiny]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 == argc) return Usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atof(v);
    } else if (a == "--trace") {
      o.trace = std::atoi(v) != 0;
    } else if (a == "--spans-dir") {
      o.spans_dir = v;
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.seconds <= 0) return Usage("--seconds must be positive");

  // Timings from unoptimized or instrumented code say nothing about the
  // program; refuse them outright.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  return Usage(("refusing to measure a build with assertions on (build type " +
                build_type + ")")
                   .c_str());
#endif
  if (build_type == "Debug" || SanitizerBuild()) {
    return Usage(("refusing to measure a " + build_type +
                  (SanitizerBuild() ? " sanitizer" : "") + " build")
                     .c_str());
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  parhc::SetNumWorkers(static_cast<int>(hw));

  perfbench::Report rep;
  rep.Note("workload", o.workload);
  rep.Note("seed", static_cast<double>(o.seed));
  rep.Note("trace", o.trace ? 1.0 : 0.0);
  rep.Note("tiny", o.tiny ? 1.0 : 0.0);
  rep.Note("nproc", static_cast<double>(hw));
  rep.Note("pool_size", static_cast<double>(parhc::NumWorkers()));
  rep.Note("simd_level",
           parhc::simd::LevelName(parhc::simd::ActiveLevel()));
  rep.Note("build_type", build_type);
  rep.Note("seconds", o.seconds);

  if (o.workload == "varden-2d") {
    perfbench::RunVarden2d(o, rep);
  } else if (o.workload == "embed-64d") {
    perfbench::RunEmbed64d(o, rep);
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (o.trace) rep.Add("fail_ratio", rep.FailRatio(), "ratio");
  rep.PrintContext();
  rep.PrintResult();
  return 0;
}
