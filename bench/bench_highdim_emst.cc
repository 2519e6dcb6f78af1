// High-dimensional embedding workloads (d = 64 / 256): the runtime-
// dispatched SIMD distance kernels and the partitioned (1+eps) EMST path
// (emst/emst_highdim.h).
//
// Rows and acceptance counters (gated via bench/baselines/gate.json):
//   HighDimKernel/d:{64,256}   `simd_speedup` — dispatched vs pinned-scalar
//                              squared-distance kernel on the same block
//                              (the >= 3x floor at d=256 applies only on
//                              AVX2+FMA machines: the gate declares
//                              requires_cpu_features and is skipped on the
//                              scalar fallback);
//   HighDimEmst/{64,256}D-embed
//                              `identical`  — exact decomposition edge set
//                              == classic MemoGFK EMST (1.0 required);
//                              `eps_ratio`  — eps-path weight / exact
//                              weight, in [1, 1+eps];
//                              `cross_pruned` — cross pairs settled by the
//                              eps shortcut (> 0 shows the knob engages).
//   PartKernel/d:{2,8,16,64}/n:{256..16384}
//                              the per-part kernel crossover: DenseMst vs
//                              the kd-tree kernel (MemoGFK, and
//                              HDBSCAN*-MemoGFK at minPts 16) on the same
//                              part, tree and core distances built outside
//                              the timer. `speedup` / `mr_speedup` are
//                              kd-tree over dense time; `identical` pins
//                              the Euclidean edge set and `mr_identical`
//                              the MR weight multiset. The selector table
//                              in emst/dense_mst.h is copied from these
//                              rows; d:64/n:1024 carries a `speedup` floor.
//                              Rows run up to PARHC_N (all of them with
//                              PARHC_N=16384 --benchmark_filter=PartKernel).
//
// CI runs the low-N smoke via the bench_highdim_smoke target, emitting
// BENCH_highdim_emst.json.
#include <algorithm>
#include <cstdint>
#include <string>

#include "bench_common.h"
#include "emst/dense_mst.h"

namespace parhc_bench {
namespace {

constexpr double kEps = 0.2;

template <int D>
const std::vector<Point<D>>& EmbedDataset(size_t n) {
  static std::map<size_t, std::vector<Point<D>>> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    it = cache.emplace(n, GaussianEmbeddings<D>(n, 1)).first;
  }
  return it->second;
}

double TotalWeight(const std::vector<WeightedEdge>& edges) {
  double w = 0;
  for (const auto& e : edges) w += e.w;
  return w;
}

std::vector<WeightedEdge> Normalized(std::vector<WeightedEdge> edges) {
  for (auto& e : edges) {
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Dispatched vs pinned-scalar kernel on one query against a 4096-row
/// block — the microbenchmark behind the d=256 SIMD speedup gate.
template <int D>
void RunKernel(benchmark::State& st) {
  // ~256 KB block (L2-resident): an L3-sized block would leave both
  // kernels memory-bound and compress the measured speedup to the cache
  // bandwidth ratio instead of the ALU ratio the gate is about.
  constexpr size_t kRows = 32768 / D;
  constexpr int kReps = 400;
  std::vector<double> block(kRows * static_cast<size_t>(D));
  std::vector<double> q(D);
  for (size_t i = 0; i < block.size(); ++i) {
    block[i] = parhc::internal::U01(3, i, 0);
  }
  for (int d = 0; d < D; ++d) {
    q[d] = parhc::internal::U01(5, static_cast<uint64_t>(d), 1);
  }
  std::vector<double> out(kRows);
  // Interleaved min-of-trials: single-shot ratios on a shared machine
  // wander by 30%+, which would flap the >= 3x gate; the per-kernel
  // minimum is the stable noise-free estimate.
  constexpr int kTrials = 8;
  for (auto _ : st) {
    double scalar_secs = 1e30;
    double dispatch_secs = 1e30;
    for (int trial = 0; trial < kTrials; ++trial) {
      Timer t;
      for (int r = 0; r < kReps; ++r) {
        simd::BatchSquaredDistancesAt(simd::IsaLevel::kScalar, q.data(),
                                      block.data(), kRows, D, D, out.data());
        benchmark::DoNotOptimize(out.data());
      }
      scalar_secs = std::min(scalar_secs, t.Seconds());
      t.Reset();
      for (int r = 0; r < kReps; ++r) {
        simd::BatchSquaredDistancesN(q.data(), block.data(), kRows, D, D,
                                     out.data());
        benchmark::DoNotOptimize(out.data());
      }
      dispatch_secs = std::min(dispatch_secs, t.Seconds());
    }
    st.counters["scalar_secs"] = scalar_secs;
    st.counters["dispatch_secs"] = dispatch_secs;
    st.counters["simd_speedup"] = scalar_secs / dispatch_secs;
  }
  st.counters["dim"] = D;
  st.counters["cpu_features"] = CpuFeaturesCounter();
}

/// Exact decomposition vs classic MemoGFK, plus the (1+eps) path, on the
/// Gaussian-mixture embedding workload.
template <int D>
void RunHighDimEmst(benchmark::State& st, size_t n) {
  const auto& pts = EmbedDataset<D>(n);
  HighDimEmstOptions opts;
  opts.partitions = 4;  // exercise the decomposition even at smoke n
  for (auto _ : st) {
    Timer t;
    HighDimEmstInfo info;
    auto exact = HighDimEmst(pts, opts, &info);
    double exact_secs = t.Seconds();
    t.Reset();
    auto classic = EmstMemoGfk(pts);
    double classic_secs = t.Seconds();
    HighDimEmstOptions eopts = opts;
    eopts.eps = kEps;
    HighDimEmstInfo einfo;
    t.Reset();
    auto approx = HighDimEmst(pts, eopts, &einfo);
    double eps_secs = t.Seconds();
    double exact_w = TotalWeight(exact);
    st.counters["identical"] =
        Normalized(exact) == Normalized(classic) ? 1.0 : 0.0;
    st.counters["eps_ratio"] = TotalWeight(approx) / exact_w;
    st.counters["exact_secs"] = exact_secs;
    st.counters["classic_secs"] = classic_secs;
    st.counters["eps_secs"] = eps_secs;
    st.counters["partitions"] = info.partitions;
    st.counters["cross_pruned"] = static_cast<double>(einfo.cross_pruned);
  }
  st.counters["n"] = static_cast<double>(n);
  st.counters["eps"] = kEps;
  st.counters["cpu_features"] = CpuFeaturesCounter();
}

/// Best-of wall time of `f`, repeated until ~50 ms have been spent, so the
/// small-n rows are not single-shot timer noise.
template <typename F>
double BestSeconds(const F& f) {
  double best = 1e30, spent = 0;
  do {
    Timer t;
    f();
    double s = t.Seconds();
    best = std::min(best, s);
    spent += s;
  } while (spent < 0.05);
  return best;
}

std::vector<double> SortedWeights(const std::vector<WeightedEdge>& edges) {
  std::vector<double> w;
  for (const auto& e : edges) w.push_back(e.w);
  std::sort(w.begin(), w.end());
  return w;
}

/// Dense vs kd-tree kernel on one part of n points (see the file header).
template <int D>
void RunPartKernel(benchmark::State& st, size_t n) {
  std::vector<Point<D>> pts;
  if constexpr (D < kSimdMinDim) {
    pts = SeedSpreaderVarden<D>(n, 1);
  } else {
    pts = GaussianEmbeddings<D>(n, 1);
  }
  constexpr int kMinPts = 16;
  for (auto _ : st) {
    KdTree<D> tree(pts, /*leaf_size=*/1);
    std::vector<double> core = CoreDistances(tree, kMinPts);
    std::vector<WeightedEdge> kd, dense, mr_kd, mr_dense;
    double kd_secs = BestSeconds([&] { kd = EmstMemoGfkOnTree(tree); });
    double dense_secs =
        BestSeconds([&] { dense = DenseMst(pts.data(), pts.size()); });
    double mr_kd_secs =
        BestSeconds([&] { mr_kd = HdbscanMstOnTree(tree, core); });
    double mr_dense_secs = BestSeconds(
        [&] { mr_dense = DenseMst(pts.data(), pts.size(), core.data()); });
    st.counters["kdtree_secs"] = kd_secs;
    st.counters["dense_secs"] = dense_secs;
    st.counters["speedup"] = kd_secs / dense_secs;
    st.counters["mr_kdtree_secs"] = mr_kd_secs;
    st.counters["mr_dense_secs"] = mr_dense_secs;
    st.counters["mr_speedup"] = mr_kd_secs / mr_dense_secs;
    st.counters["identical"] =
        Normalized(kd) == Normalized(dense) ? 1.0 : 0.0;
    st.counters["mr_identical"] =
        SortedWeights(mr_kd) == SortedWeights(mr_dense) ? 1.0 : 0.0;
  }
  st.counters["n"] = static_cast<double>(n);
  st.counters["dim"] = D;
  st.counters["dense_selected"] =
      PartMstKernel(n, D) == PartKernel::kDense ? 1.0 : 0.0;
  st.counters["cpu_features"] = CpuFeaturesCounter();
}

template <int D>
void RegisterPartKernelRows(size_t max_n) {
  for (size_t n = 256; n <= std::min<size_t>(max_n, 16384); n *= 2) {
    benchmark::RegisterBenchmark(
        ("PartKernel/d:" + std::to_string(D) + "/n:" + std::to_string(n))
            .c_str(),
        [=](benchmark::State& st) { RunPartKernel<D>(st, n); })
        ->Unit(benchmark::kMillisecond)
        ->Iterations(EnvIters());
  }
}

void RegisterAll() {
  size_t n = EnvN(6000);
  benchmark::RegisterBenchmark("HighDimKernel/d:64", RunKernel<64>)
      ->Unit(benchmark::kMicrosecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark("HighDimKernel/d:256", RunKernel<256>)
      ->Unit(benchmark::kMicrosecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark(
      "HighDimEmst/64D-embed",
      [=](benchmark::State& st) { RunHighDimEmst<64>(st, n); })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
  benchmark::RegisterBenchmark(
      "HighDimEmst/256D-embed",
      [=](benchmark::State& st) {
        RunHighDimEmst<256>(st, std::max<size_t>(n / 4, 64));
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(EnvIters());
  RegisterPartKernelRows<2>(n);
  RegisterPartKernelRows<8>(n);
  RegisterPartKernelRows<16>(n);
  RegisterPartKernelRows<64>(n);
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
