// Batch-dynamic ingestion (src/dynamic/): amortized insert cost under
// incremental EMST maintenance versus full recomputation.
//
// Scenario: a base dataset of N points with a warm forest EMST, then a
// stream of insert batches of 1% of N each. Two strategies process the
// same stream:
//   incremental  the shard forest: each batch pays its own shard build +
//                shard EMST, one cross BCCP/WSPD pass per surviving shard,
//                and a Kruskal over the cached candidate edges — surviving
//                shard EMSTs are reused;
//   rebuild      the static path: a full kd-tree + MemoGFK EMST build over
//                all points after every batch (what PR 2's engine had to
//                do, since registry datasets were immutable).
// Each DynamicIngest benchmark runs both and reports secs_per_batch for
// the two strategies plus `speedup` (rebuild / incremental amortized
// cost). The acceptance target is >= 5x at N = 1M, 2D, 1% batches (see
// README "Dynamic datasets" for measured numbers).
//
// DynamicDeleteChurn is the delete side: a warm single-shard base, then
// rounds of 3 random deletes + EMST. `repair` times the forest, which
// rebuilds the shard's kd-tree and repairs its EMST from the surviving
// edges; `rebuild` times a from-scratch kd-tree + MemoGFK over the same
// live points (what every such round cost before the repair). `speedup`
// is rebuild / repair.
//
// CI runs a small-N smoke via the bench_dynamic_smoke target, emitting
// BENCH_dynamic_ingest.json.
#include <random>

#include "bench_common.h"
#include "dynamic/artifacts.h"

namespace parhc_bench {
namespace {

constexpr int kBatches = 5;
constexpr int kDeleteRounds = 5;
constexpr size_t kDeletesPerRound = 3;

template <int D>
std::vector<Point<D>> Gen(const std::string& kind, size_t n, uint64_t seed) {
  if (kind == "uniform") return UniformFill<D>(n, seed);
  return SeedSpreaderVarden<D>(n, seed);
}

/// Seconds per batch for the full-rebuild strategy over the stream.
template <int D>
double RebuildSecsPerBatch(const std::vector<Point<D>>& base,
                           const std::vector<std::vector<Point<D>>>& batches) {
  std::vector<Point<D>> all(base);
  Timer t;
  double total = 0;
  for (const auto& batch : batches) {
    all.insert(all.end(), batch.begin(), batch.end());
    t.Reset();
    auto mst = EmstMemoGfk(all);
    total += t.Seconds();
    benchmark::DoNotOptimize(mst.data());
  }
  return total / kBatches;
}

/// Seconds per batch for the incremental shard forest (the EMST is
/// re-answered after every insert), starting from a warm base EMST.
template <int D>
double IncrementalSecsPerBatch(
    const std::vector<Point<D>>& base,
    const std::vector<std::vector<Point<D>>>& batches) {
  DynamicArtifacts<D> dyn;
  dyn.InsertBatch(base);
  EngineRequest req;
  req.type = QueryType::kEmst;
  EngineResponse warm;
  PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, &warm) && warm.ok);
  Timer t;
  double total = 0;
  for (const auto& batch : batches) {
    t.Reset();
    dyn.InsertBatch(batch);
    EngineResponse r;
    PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, &r) && r.ok);
    total += t.Seconds();
    benchmark::DoNotOptimize(r.mst);
  }
  return total / kBatches;
}

template <int D>
void RunIngest(benchmark::State& st, const std::string& kind, size_t n,
               int workers) {
  SetNumWorkers(workers);
  std::vector<Point<D>> base = Gen<D>(kind, n, 1);
  size_t batch_n = std::max<size_t>(1, n / 100);
  std::vector<std::vector<Point<D>>> batches(kBatches);
  for (int b = 0; b < kBatches; ++b) {
    batches[b] = Gen<D>(kind, batch_n, 1000 + b);
  }
  for (auto _ : st) {
    double inc = IncrementalSecsPerBatch(base, batches);
    double rebuild = RebuildSecsPerBatch(base, batches);
    st.counters["incremental_secs_per_batch"] = inc;
    st.counters["rebuild_secs_per_batch"] = rebuild;
    st.counters["speedup"] = rebuild / inc;
  }
  st.counters["base_n"] = static_cast<double>(n);
  st.counters["batch_n"] = static_cast<double>(batch_n);
  st.counters["batches"] = kBatches;
  st.counters["workers"] = workers;
}

template <int D>
void RunDeleteChurn(benchmark::State& st, const std::string& kind, size_t n,
                    int workers) {
  SetNumWorkers(workers);
  std::vector<Point<D>> base = Gen<D>(kind, n, 1);
  EngineRequest req;
  req.type = QueryType::kEmst;
  for (auto _ : st) {
    DynamicArtifacts<D> dyn;
    dyn.InsertBatch(base);
    EngineResponse warm;
    PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, &warm) && warm.ok);
    std::vector<uint8_t> live(n, 1);
    std::mt19937_64 rng(7);
    Timer t;
    double repair = 0, rebuild = 0;
    for (int round = 0; round < kDeleteRounds; ++round) {
      std::vector<uint32_t> doomed;
      while (doomed.size() < kDeletesPerRound) {
        uint32_t gid = static_cast<uint32_t>(rng() % n);
        if (live[gid]) {
          live[gid] = 0;
          doomed.push_back(gid);
        }
      }
      t.Reset();
      PARHC_CHECK(dyn.DeleteBatch(doomed) == doomed.size());
      EngineResponse r;
      PARHC_CHECK(dyn.Answer(req, /*allow_build=*/true, &r) && r.ok);
      repair += t.Seconds();
      benchmark::DoNotOptimize(r.mst);

      std::vector<Point<D>> pts;
      pts.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        if (live[i]) pts.push_back(base[i]);
      }
      t.Reset();
      auto mst = EmstMemoGfk(pts);
      rebuild += t.Seconds();
      benchmark::DoNotOptimize(mst.data());
    }
    st.counters["repair_secs_per_round"] = repair / kDeleteRounds;
    st.counters["rebuild_secs_per_round"] = rebuild / kDeleteRounds;
    st.counters["speedup"] = rebuild / repair;
  }
  st.counters["base_n"] = static_cast<double>(n);
  st.counters["deletes_per_round"] = kDeletesPerRound;
  st.counters["rounds"] = kDeleteRounds;
  st.counters["workers"] = workers;
}

void RegisterAll() {
  size_t n = EnvN(100000);
  int maxt = EnvMaxThreads();
  benchmark::RegisterBenchmark(
      "DynamicIngest/2D-UniformFill",
      [=](benchmark::State& st) { RunIngest<2>(st, "uniform", n, maxt); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark(
      "DynamicIngest/3D-SS-varden",
      [=](benchmark::State& st) { RunIngest<3>(st, "varden", n, maxt); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark(
      "DynamicDeleteChurn/2D-SS-varden",
      [=](benchmark::State& st) { RunDeleteChurn<2>(st, "varden", n, maxt); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
}

}  // namespace
}  // namespace parhc_bench

int main(int argc, char** argv) {
  parhc_bench::RegisterAll();
  benchmark::Initialize(&argc, argv);
  parhc_bench::AddMachineContext();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
