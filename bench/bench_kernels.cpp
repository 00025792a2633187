// Kernel ablation trajectory — the numbers behind the adaptive tid-list
// layer. Two sections:
//
//   1. Micro: intersection throughput (tids/s) of each kernel on
//      equal-density pairs over a 256K-tid universe, density swept from
//      0.1% to 50%. The adaptive threshold (dense entry 1/128) sits
//      inside the sweep, so kAuto should track the merge kernels at the
//      sparse end and the bitset word-AND on the dense half.
//   2. End-to-end: sequential Eclat wall time per kernel on a
//      T10.I4-style Quest database (avg pattern length 4, N = 1000) and
//      on a dense variant (N = 64) where the bitset representation
//      engages; every kernel's result bytes must equal the first
//      kernel's.
//
// Writes a JSON trajectory to BENCH_kernels.json so the ratios are
// comparable across commits.
//
//   ./bench_kernels [--kernel=all] [--scale=0.5] [--support=0.0025]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/check.hpp"
#include "common/clock.hpp"
#include "common/rng.hpp"
#include "data/result_io.hpp"
#include "eclat/eclat_seq.hpp"
#include "vertical/tidset.hpp"

namespace {

using namespace eclat;

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
    IntersectKernel::kGallop, IntersectKernel::kBitset,
    IntersectKernel::kAuto};

constexpr std::string_view kKernelChoices[] = {
    "all", "merge", "short-circuit", "gallop", "bitset", "auto"};

/// Random sorted tid-list over [0, universe) with the given density.
TidList random_tidlist(Rng& rng, Tid universe, double density) {
  TidList tids;
  tids.reserve(static_cast<std::size_t>(universe * density * 1.2));
  for (Tid t = 0; t < universe; ++t) {
    if (rng.uniform() < density) tids.push_back(t);
  }
  return tids;
}

/// Tids per second of the recursion's steady-state intersection pattern
/// through the dispatched kernel, timed over enough repetitions to fill
/// ~50 ms of wall clock.
///
/// Each timed iteration is one parent join plus one reuse of its child
/// (c = a ∩ b, then c ∩ a), matching how the mining recursion treats a
/// materialized tid-list: every committed child is intersected again at
/// the next level. A discard-the-result loop would charge kAuto's
/// result normalization on every call while never crediting the cheaper
/// representation it buys — the chained shape prices both sides, and the
/// per-iteration tid count (|a|+|b| plus |c|+|a|) is identical across
/// kernels, so the ratios stay comparable. When the child comes up
/// empty the reuse leg drops out (nothing to intersect), again
/// identically for every kernel.
double intersect_throughput(const TidList& a, const TidList& b, Tid universe,
                            IntersectKernel kernel) {
  TidSet sa;
  TidSet sb;
  TidSet child;
  TidSet grandchild;
  seed_tidset(a, universe, kernel, sa, nullptr);
  seed_tidset(b, universe, kernel, sb, nullptr);
  double tids_per_call = static_cast<double>(a.size() + b.size());

  // Warm up (first calls size the output buffers), then calibrate.
  const bool reuse =
      intersect_into(sa, sb, 1, kernel, universe, child, nullptr);
  if (reuse) {
    tids_per_call += static_cast<double>(child.support() + a.size());
    intersect_into(child, sa, 1, kernel, universe, grandchild, nullptr);
  }
  std::size_t reps = 1;
  for (;;) {
    WallStopwatch watch;
    for (std::size_t r = 0; r < reps; ++r) {
      intersect_into(sa, sb, 1, kernel, universe, child, nullptr);
      if (reuse) {
        intersect_into(child, sa, 1, kernel, universe, grandchild, nullptr);
      }
    }
    const double seconds = watch.elapsed_seconds();
    if (seconds >= 0.05) {
      return tids_per_call * static_cast<double>(reps) / seconds;
    }
    reps *= seconds <= 0.005 ? 10 : 2;
  }
}

struct MicroRow {
  double density = 0.0;
  double skew = 1.0;  ///< |longer| / |shorter| for the skewed-pair sweep
  double tids_per_second[std::size(kAllKernels)] = {};
  /// Fastest single (non-auto) kernel in this band.
  const char* winner = "";
  double winner_tps = 0.0;
};

/// Index of kAuto in kAllKernels (last entry).
constexpr std::size_t kAutoIndex = std::size(kAllKernels) - 1;

void finish_row(MicroRow& row) {
  for (std::size_t k = 0; k < std::size(kAllKernels); ++k) {
    if (k == kAutoIndex) continue;
    if (row.tids_per_second[k] > row.winner_tps) {
      row.winner_tps = row.tids_per_second[k];
      row.winner = kernel_name(kAllKernels[k]);
    }
  }
}

void print_row(const MicroRow& row, const char* label) {
  std::printf("%-9s |", label);
  for (std::size_t k = 0; k < std::size(kAllKernels); ++k) {
    std::printf(" %13.1f", row.tids_per_second[k] * 1e-6);
  }
  const double autok = row.tids_per_second[kAutoIndex];
  if (row.winner_tps > 0 && autok > 0) {
    std::printf(" | %s %.2fx", row.winner, autok / row.winner_tps);
  }
  std::printf("\n");
}

void write_micro_row(std::FILE* out, const MicroRow& row, bool last) {
  std::fprintf(out, "    {\"density\": %g, \"skew\": %g", row.density,
               row.skew);
  for (std::size_t k = 0; k < std::size(kAllKernels); ++k) {
    std::fprintf(out, ", \"%s\": %.0f", kernel_name(kAllKernels[k]),
                 row.tids_per_second[k]);
  }
  std::fprintf(out, ", \"winner\": \"%s\"}%s\n", row.winner,
               last ? "" : ",");
}

struct EndToEndRow {
  std::string database;
  Count minsup = 0;
  std::size_t itemsets = 0;  ///< the first kernel's count (bytes checked)
  double seconds[std::size(kAllKernels)] = {};
};

EndToEndRow run_end_to_end(const std::string& name,
                           const gen::QuestConfig& config, double support) {
  const HorizontalDatabase db = gen::QuestGenerator(config).generate();
  EndToEndRow row;
  row.database = name;
  row.minsup = absolute_support(support, db.size());

  std::printf("%-16s |D|=%zu minsup=%llu\n", name.c_str(), db.size(),
              static_cast<unsigned long long>(row.minsup));
  std::vector<std::uint8_t> first_bytes;
  for (std::size_t k = 0; k < std::size(kAllKernels); ++k) {
    EclatConfig eclat_config;
    eclat_config.minsup = row.minsup;
    eclat_config.kernel = kAllKernels[k];
    WallStopwatch watch;
    const MiningResult result = eclat_sequential(db, eclat_config);
    row.seconds[k] = watch.elapsed_seconds();
    std::vector<std::uint8_t> bytes = result_to_bytes(result);
    if (k == 0) {
      row.itemsets = result.itemsets.size();
      first_bytes = std::move(bytes);
    } else if (bytes != first_bytes) {
      std::fprintf(stderr,
                   "kernel %s diverged from %s: %zu itemsets vs %zu\n",
                   kernel_name(kAllKernels[k]), kernel_name(kAllKernels[0]),
                   result.itemsets.size(), row.itemsets);
      ECLAT_UNREACHABLE("intersect kernels disagree on the result bytes");
    }
    std::printf("  %-14s %8.3f s  (%zu itemsets)\n",
                kernel_name(kAllKernels[k]), row.seconds[k], row.itemsets);
  }
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using eclat::bench::print_rule;
  const WallStopwatch bench_watch;
  const Flags flags(argc, argv);
  const std::string kernel_filter =
      flags.get_choice("kernel", kKernelChoices, "all");
  const double scale = flags.get_double("scale", 0.5);
  const double support = flags.get_double("support", 0.0025);
  const bool write_json = flags.get_bool("json", true);

  // ---- Micro: density sweep over a 256K universe -----------------------
  // The grid brackets the representation boundary, the dense entry
  // (1/128 ≈ 0.008), and covers the mid band where a dense AND's result
  // leaves the dense stay band (0.008–0.03) or holds inside it (0.045,
  // 0.0625), so the conversion discipline is priced.
  constexpr Tid kUniverse = 1 << 18;
  constexpr double kDensities[] = {0.001, 0.002, 0.004,  0.008, 0.016, 0.03,
                                   0.045, 0.0625, 0.1,   0.25,  0.5};

  std::printf("Intersection throughput (Mtids/s), universe %u [%s]\n",
              kUniverse, simd::isa_name(simd::kernels().level));
  print_rule('=', 120);
  std::printf("%-9s |", "density");
  for (IntersectKernel kernel : kAllKernels) {
    std::printf(" %13s", kernel_name(kernel));
  }
  std::printf(" | auto vs best\n");
  print_rule('-', 120);

  const auto fill_row = [&](MicroRow& row, const TidList& a,
                            const TidList& b) {
    for (std::size_t k = 0; k < std::size(kAllKernels); ++k) {
      if (kernel_filter != "all" &&
          kernel_filter != kernel_name(kAllKernels[k])) {
        continue;
      }
      row.tids_per_second[k] =
          intersect_throughput(a, b, kUniverse, kAllKernels[k]);
    }
    finish_row(row);
  };

  std::vector<MicroRow> micro;
  for (double density : kDensities) {
    Rng rng(42);
    const TidList a = random_tidlist(rng, kUniverse, density);
    const TidList b = random_tidlist(rng, kUniverse, density);
    MicroRow row;
    row.density = density;
    fill_row(row, a, b);
    char label[32];
    std::snprintf(label, sizeof label, "%g", density);
    print_row(row, label);
    micro.push_back(row);
  }
  print_rule('-', 120);

  // ---- Micro: skewed pairs (one list much shorter than the other) ------
  // Fixed longer-side density 0.0625, shorter side 1x / 32x / 256x
  // smaller: the regime where galloping and per-element probing beat any
  // full scan of the longer operand.
  std::printf("Skewed pairs, longer side density 0.0625\n");
  print_rule('-', 120);
  std::vector<MicroRow> skew_rows;
  for (double ratio : {1.0, 32.0, 256.0}) {
    Rng rng(43);
    const double dense_side = 0.0625;
    const TidList a = random_tidlist(rng, kUniverse, dense_side / ratio);
    const TidList b = random_tidlist(rng, kUniverse, dense_side);
    MicroRow row;
    row.density = dense_side;
    row.skew = ratio;
    fill_row(row, a, b);
    char label[32];
    std::snprintf(label, sizeof label, "1:%g", ratio);
    print_row(row, label);
    skew_rows.push_back(row);
  }
  print_rule('-', 120);

  // ---- End-to-end: sequential Eclat per kernel -------------------------
  std::vector<EndToEndRow> runs;
  if (kernel_filter == "all") {
    gen::QuestConfig sparse;  // T10.I4, paper-style N = 1000
    sparse.avg_pattern_length = 4.0;
    sparse.num_transactions =
        static_cast<std::size_t>(100'000 * scale);
    sparse.seed = 2004;
    runs.push_back(run_end_to_end(
        "T10.I4." + std::to_string(sparse.num_transactions / 1000) + "K",
        sparse, support));

    gen::QuestConfig dense = sparse;  // same shape, 64-item catalog: tid
    dense.num_items = 64;             // lists go dense, the bitset engages
    dense.num_patterns = 200;
    dense.seed = 2005;
    runs.push_back(run_end_to_end(
        "T10.I4.N64." + std::to_string(dense.num_transactions / 1000) + "K",
        dense, 0.05));
  }

  if (write_json) {
    const char* path = "BENCH_kernels.json";
    std::FILE* out = std::fopen(path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", path);
      return 1;
    }
    std::fprintf(out, "{\n  \"benchmark\": \"kernels\",\n");
    eclat::bench::write_backend_fields(out, "host", "wall",
                                       bench_watch.elapsed_seconds());
    std::fprintf(out,
                 "  \"universe\": %u,\n  \"micro_tids_per_second\": [\n",
                 kUniverse);
    for (std::size_t i = 0; i < micro.size(); ++i) {
      write_micro_row(out, micro[i], i + 1 == micro.size());
    }
    std::fprintf(out, "  ],\n  \"micro_skewed_tids_per_second\": [\n");
    for (std::size_t i = 0; i < skew_rows.size(); ++i) {
      write_micro_row(out, skew_rows[i], i + 1 == skew_rows.size());
    }
    std::fprintf(out, "  ],\n  \"end_to_end_seconds\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const EndToEndRow& row = runs[i];
      std::fprintf(out,
                   "    {\"database\": \"%s\", \"minsup\": %llu, "
                   "\"itemsets\": %zu",
                   row.database.c_str(),
                   static_cast<unsigned long long>(row.minsup), row.itemsets);
      for (std::size_t k = 0; k < std::size(kAllKernels); ++k) {
        std::fprintf(out, ", \"%s\": %.6f", kernel_name(kAllKernels[k]),
                     row.seconds[k]);
      }
      std::fprintf(out, "}%s\n", i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", path);
  }
  return 0;
}
