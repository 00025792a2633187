// Micro-benchmark of the tid-list intersection kernels — the inner loop of
// Eclat (§4.2, §5.3). Run with google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "common/rng.hpp"
#include "vertical/simd/dispatch.hpp"
#include "vertical/tidlist.hpp"
#include "vertical/tidset.hpp"

namespace {

using eclat::IntersectKernel;
using eclat::Rng;
using eclat::TidList;
using eclat::TidSet;

/// Random sorted tid-list over [0, universe) with the given density.
TidList random_tidlist(Rng& rng, eclat::Tid universe, double density) {
  TidList tids;
  tids.reserve(static_cast<std::size_t>(universe * density * 1.2));
  for (eclat::Tid t = 0; t < universe; ++t) {
    if (rng.uniform() < density) tids.push_back(t);
  }
  return tids;
}

void BM_IntersectMerge(benchmark::State& state) {
  Rng rng(1);
  const auto universe = static_cast<eclat::Tid>(state.range(0));
  const TidList a = random_tidlist(rng, universe, 0.1);
  const TidList b = random_tidlist(rng, universe, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eclat::intersect(a, b));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (a.size() + b.size())));
}
BENCHMARK(BM_IntersectMerge)->Range(1 << 10, 1 << 18);

void BM_IntersectShortCircuitHit(benchmark::State& state) {
  // Lists dense enough that the result clears minsup: the short-circuit
  // bound never fires, measuring its bookkeeping overhead.
  Rng rng(2);
  const auto universe = static_cast<eclat::Tid>(state.range(0));
  const TidList a = random_tidlist(rng, universe, 0.5);
  const TidList b = random_tidlist(rng, universe, 0.5);
  const eclat::Count minsup = universe / 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eclat::intersect_short_circuit(a, b, minsup));
  }
}
BENCHMARK(BM_IntersectShortCircuitHit)->Range(1 << 10, 1 << 18);

void BM_IntersectShortCircuitMiss(benchmark::State& state) {
  // Nearly disjoint lists with a high minsup: the bound fires early and
  // the kernel quits after a fraction of the scan — the paper's win.
  Rng rng(3);
  const auto universe = static_cast<eclat::Tid>(state.range(0));
  TidList a;
  TidList b;
  for (eclat::Tid t = 0; t < universe; ++t) {
    (t % 2 == 0 ? a : b).push_back(t);  // perfectly disjoint
  }
  const eclat::Count minsup = universe / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(eclat::intersect_short_circuit(a, b, minsup));
  }
}
BENCHMARK(BM_IntersectShortCircuitMiss)->Range(1 << 10, 1 << 18);

void BM_IntersectGallopSkewed(benchmark::State& state) {
  // 1000:1 size skew — galloping's home turf. The dispatched gallop
  // kernel, the one `auto` runs on skewed sparse pairs.
  Rng rng(4);
  const auto universe = static_cast<eclat::Tid>(state.range(0));
  const TidList small = random_tidlist(rng, universe, 0.001);
  const TidList large = random_tidlist(rng, universe, 0.5);
  TidList out(small.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(eclat::simd::kernels().gallop_u32(
        small.data(), small.size(), large.data(), large.size(), out.data(),
        nullptr));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IntersectGallopSkewed)->Range(1 << 12, 1 << 20);

void BM_IntersectMergeSkewed(benchmark::State& state) {
  // The same skewed inputs through the merge kernel, for comparison.
  Rng rng(4);
  const auto universe = static_cast<eclat::Tid>(state.range(0));
  const TidList small = random_tidlist(rng, universe, 0.001);
  const TidList large = random_tidlist(rng, universe, 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eclat::intersect(small, large));
  }
}
BENCHMARK(BM_IntersectMergeSkewed)->Range(1 << 12, 1 << 20);

// --- Density sweep through the dispatched TidSet kernels -------------------
//
// Equal-density pairs over a fixed 64K-tid universe, density from 0.1% up
// to 50%. The dense threshold (n * 128 >= U, i.e. density 1/128) sits
// inside the sweep, so kAuto runs the sparse merge at the low end and the
// dense word-AND from 1% up; kMergeShortCircuit shows what the merge
// costs on dense inputs.

constexpr double kSweepDensities[] = {0.001, 0.01, 0.05, 0.1, 0.25, 0.5};
constexpr eclat::Tid kSweepUniverse = 1 << 16;

void density_sweep(benchmark::State& state, IntersectKernel kernel) {
  Rng rng(6);
  const double density = kSweepDensities[state.range(0)];
  const TidList a = random_tidlist(rng, kSweepUniverse, density);
  const TidList b = random_tidlist(rng, kSweepUniverse, density);
  TidSet sa;
  TidSet sb;
  TidSet out;
  eclat::seed_tidset(a, kSweepUniverse, kernel, sa, nullptr);
  eclat::seed_tidset(b, kSweepUniverse, kernel, sb, nullptr);
  for (auto _ : state) {
    const bool alive = eclat::intersect(sa, sb, 1, kernel, kSweepUniverse,
                                        &out, nullptr)
                           .has_value();
    benchmark::DoNotOptimize(alive);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (a.size() + b.size())));
  state.SetLabel("density=" + std::to_string(density));
}

void BM_IntersectDensityMerge(benchmark::State& state) {
  density_sweep(state, IntersectKernel::kMergeShortCircuit);
}
BENCHMARK(BM_IntersectDensityMerge)->DenseRange(0, 5);

void BM_IntersectDensityAuto(benchmark::State& state) {
  density_sweep(state, IntersectKernel::kAuto);
}
BENCHMARK(BM_IntersectDensityAuto)->DenseRange(0, 5);

void BM_IntersectionSizeOnly(benchmark::State& state) {
  Rng rng(5);
  const auto universe = static_cast<eclat::Tid>(state.range(0));
  const TidList a = random_tidlist(rng, universe, 0.1);
  const TidList b = random_tidlist(rng, universe, 0.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(eclat::intersection_size(a, b));
  }
}
BENCHMARK(BM_IntersectionSizeOnly)->Range(1 << 10, 1 << 18);

}  // namespace

BENCHMARK_MAIN();
