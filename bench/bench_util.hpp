// Shared helpers for the benchmark binaries that regenerate the paper's
// tables and figures.
//
// The paper's databases are T10.I6.D800K … T10.I6.D6400K (N = 1000 items,
// |L| = 2000 patterns, minsup 0.1%). The benchmarks default to a 1/50
// scale (D16K … D128K) so a full sweep finishes on a laptop; pass
// --scale=1.0 to regenerate at paper size. Scaling |D| leaves the paper's
// *relative* behaviour intact: support is relative (0.1%), and every
// modeled cost is linear in bytes.
#pragma once

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.hpp"
#include "common/result.hpp"
#include "data/horizontal.hpp"
#include "gen/quest.hpp"
#include "mc/topology.hpp"
#include "vertical/simd/dispatch.hpp"

namespace eclat::bench {

/// The paper's four evaluation databases, |D| in thousands at scale 1.
struct PaperDatabase {
  const char* name;          ///< paper's label
  std::size_t transactions;  ///< |D| at scale 1.0
};

inline constexpr PaperDatabase kPaperDatabases[] = {
    {"T10.I6.D800K", 800'000},
    {"T10.I6.D1600K", 1'600'000},
    {"T10.I6.D3200K", 3'200'000},
    {"T10.I6.D6400K", 6'400'000},
};

/// The paper's evaluation support: 0.1%.
inline constexpr double kPaperSupport = 0.001;

/// Generate a paper database at the given scale (same generator seed per
/// database name, so repeated benchmark runs see identical data).
inline HorizontalDatabase make_database(const PaperDatabase& spec,
                                        double scale) {
  gen::QuestConfig config;  // defaults are the paper's T10.I6 parameters
  config.num_transactions = static_cast<std::size_t>(
      static_cast<double>(spec.transactions) * scale);
  config.seed = 1997 + spec.transactions;  // stable per database
  return gen::QuestGenerator(config).generate();
}

inline std::string scaled_name(const PaperDatabase& spec, double scale) {
  if (scale == 1.0) return spec.name;
  const std::size_t d = static_cast<std::size_t>(
      static_cast<double>(spec.transactions) * scale);
  return std::string(spec.name) + " @ " + std::to_string(d / 1000) + "K";
}

/// The processor configurations of the paper's Table 2 / Figure 7
/// (P = processors per host, H = hosts).
inline std::vector<mc::Topology> paper_topologies() {
  return {
      {1, 1},  // sequential baseline
      {2, 1}, {2, 2}, {4, 1}, {2, 4}, {4, 2},
      {8, 1}, {4, 4}, {8, 2}, {8, 4},  // up to T = 32
  };
}

/// The spread of one measurement's repeats: the median, the fastest run,
/// and the interquartile range, each quartile interpolated linearly
/// between order statistics. `samples` must not be empty.
struct RepeatStats {
  double median = 0.0;
  double min = 0.0;
  double iqr = 0.0;
};

inline RepeatStats repeat_stats(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double q) {
    const double at = q * static_cast<double>(samples.size() - 1);
    const auto below = static_cast<std::size_t>(at);
    const std::size_t above = std::min(below + 1, samples.size() - 1);
    return samples[below] + (at - static_cast<double>(below)) *
                                (samples[above] - samples[below]);
  };
  return {quantile(0.5), samples.front(), quantile(0.75) - quantile(0.25)};
}

inline void print_rule(char fill = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(fill);
  std::putchar('\n');
}

/// Uniform execution/timing stamp for BENCH_*.json headers, emitted right
/// after the "benchmark" field by every bench that writes JSON:
///   backend — which execution substrate produced the *_s row fields
///             ("mc" = virtual-time simulator, "threads" = native pool,
///             "host" = plain sequential execution);
///   timing  — which clock those fields are in ("virtual" under the
///             simulator, "wall" for native runs);
///   bench_wall_seconds — host wall clock of the whole bench run, so even
///             virtual-time trajectories carry a real-time anchor.
/// CPU feature honesty: every header also records what the build host
/// offers (cpu_avx2 / cpu_avx512bw) and which kernel table the runtime
/// dispatcher actually selected (simd_dispatch, which ECLAT_FORCE_SCALAR
/// pins to "scalar"), so a number can never be mistaken for having run on
/// a wider ISA than it did.
inline void write_backend_fields(std::FILE* out, const char* backend,
                                 const char* timing, double wall_seconds) {
  std::fprintf(out,
               "  \"backend\": \"%s\",\n  \"timing\": \"%s\",\n"
               "  \"bench_wall_seconds\": %.3f,\n"
               "  \"cpu_avx2\": %s,\n  \"cpu_avx512bw\": %s,\n"
               "  \"simd_dispatch\": \"%s\",\n",
               backend, timing, wall_seconds,
               simd::cpu_has_avx2() ? "true" : "false",
               simd::cpu_has_avx512bw() ? "true" : "false",
               simd::isa_name(simd::kernels().level));
}

}  // namespace eclat::bench
