// The workloads. Each one is a data shape taken through every measured
// path, so every workload reports every metric:
//
//   varden-2d  200k-point 2D SS-varden (the paper's 2D-SS-varden stand-in).
//              Below kSimdMinDim: the library's paths bypass the dispatched
//              SIMD kernels.
//   embed-64d  3072-point 64-d Gaussian-mixture embeddings, twelve draws;
//              the churn base is 85 points of each draw. The dispatched
//              SIMD kernels carry the distance work.
//
// Each iteration of the measured phase runs one static pass (see
// static_pipeline.h) over the workload's points, then one or more churn
// rounds (see churn.h) on a dynamic dataset whose base is taken from those
// point sets. Iterations alternate spans off and on in a traced
// run; the ratio of their wall times is the tracing overhead.
#include <memory>
#include <vector>

#include "churn.h"
#include "harness.h"
#include "parhc.h"
#include "static_pipeline.h"

namespace perfbench {
namespace {

using namespace parhc;  // NOLINT

/// Set-up runs at least kMinSetups times and until kSetupBudgetS seconds
/// have gone into it, so cheap set-ups get a median over more samples.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 9;
constexpr double kSetupBudgetS = 4;

/// How one workload is made and run.
struct Shape {
  size_t churn_n;       ///< churn base: an equal prefix of every set
  int rounds_per_pass;  ///< churn rounds after each static pass
};

template <int D>
std::vector<Point<D>> ChurnBase(const Datasets<D>& sets, size_t churn_n) {
  const size_t per_set = churn_n / sets.size();
  std::vector<Point<D>> base;
  for (const std::vector<Point<D>>& pts : sets) {
    base.insert(base.end(), pts.begin(), pts.begin() + per_set);
  }
  return base;
}

/// Runs one workload. `gen_sets` makes the static point sets;
/// `gen_batch(round, size)` makes a churn round's inserted points.
template <int D, typename GenSets, typename GenBatch>
void Run(const Options& o, Report& rep, const GenSets& gen_sets,
         const Shape& shape, const GenBatch& gen_batch) {
  // Set-up: generation, server start, base load and the warm EMST and
  // HDBSCAN* builds, repeated in the untraced run; setup_s is the median.
  Datasets<D> sets;
  std::unique_ptr<Churn<D>> churn;
  std::vector<double> setup_s;
  double setup_total = 0;
  do {
    churn.reset();
    double t0 = Now();
    sets = gen_sets();
    churn = std::make_unique<Churn<D>>(ChurnBase(sets, shape.churn_n),
                                       o.trace, o.seed, rep);
    setup_s.push_back(Now() - t0);
    setup_total += setup_s.back();
  } while (!o.trace && setup_s.size() < kMaxSetups &&
           (setup_s.size() < kMinSetups || setup_total < kSetupBudgetS));
  rep.Note("n", static_cast<double>(sets[0].size()));
  rep.Note("setups", static_cast<double>(setup_s.size()));
  rep.Note("datasets", static_cast<double>(sets.size()));
  rep.Note("dim", D);
  rep.Note("min_pts", kMinPts);
  rep.Note("churn_batch", static_cast<double>(churn->batch()));

  StaticPipeline<D> pipeline(sets);
  SpanRecorder& rec = SpanRecorder::Get();
  std::vector<double> wall_on, wall_off;
  size_t round = 0;
  const double start = Now();
  for (size_t it = 0; it < 2 || Now() - start < o.seconds; ++it) {
    const bool on = o.trace && it % 2 == 1;
    rec.Enable(on);
    rec.NewRun();
    double wall = pipeline.Pass(o.trace);
    for (int r = 0; r < shape.rounds_per_pass; ++r) {
      wall += churn->Round(gen_batch(round++, churn->batch()));
    }
    (on ? wall_on : wall_off).push_back(wall);
  }
  rec.Enable(false);

  if (o.trace) {
    pipeline.ReportLayers(rep);
    churn->ReportLayers(rep);
    rep.Add("bench.trace_overhead_ratio", Median(wall_on) / Median(wall_off),
            "ratio");
    ReportSpans(o, rep);
  } else {
    rep.Add("setup_s", Median(setup_s), "s");
    rep.Add("peak_rss_mb", PeakRssMb(), "MB");
    pipeline.ReportEndToEnd(rep);
    churn->ReportEndToEnd(rep);
  }
  // Oracles, outside the timed region.
  pipeline.Check(rep);
  churn->Check(rep);
}

}  // namespace

void RunVarden2d(const Options& o, Report& rep) {
  const size_t n = o.tiny ? 20000 : 200000;
  Run<2>(
      o, rep,
      [&] {
        return Datasets<2>{SeedSpreaderVarden<2>(n, o.seed, kVardenClusters)};
      },
      Shape{n, 1},
      [&](size_t round, size_t size) {
        return SeedSpreaderVarden<2>(size, o.seed * 1000003 + round + 1,
                                     kVardenClusters);
      });
}

void RunEmbed64d(const Options& o, Report& rep) {
  // A 64-d mixture's cost (how its clusters fall into the partitioned
  // EMST's k-means partitions, how far its WSPD reaches) varies from draw
  // to draw; passes cycle over many draws so the run's median is over
  // mixtures, not one mixture.
  constexpr int kDraws = 12;
  const size_t n = o.tiny ? 2048 : 3072;  // >= 2048: two partitions
  Run<64>(
      o, rep,
      [&] {
        Datasets<64> sets;
        for (int i = 0; i < kDraws; ++i) {
          sets.push_back(GaussianEmbeddings<64>(n, o.seed * kDraws + i));
        }
        return sets;
      },
      // A base of a third of a draw's size keeps a round cheap enough for
      // three rounds per pass, so the churn figures cover many rounds; it
      // takes equal prefixes of all draws, so it too spans many mixtures.
      Shape{n / 3, 3},
      [&](size_t round, size_t size) {
        return GaussianEmbeddings<64>(size, o.seed * 1000003 + round + 1);
      });
}

}  // namespace perfbench
