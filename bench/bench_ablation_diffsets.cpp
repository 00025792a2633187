// Ablation — diffsets (dEclat) vs tid-list intersections: identical
// results; on dense data the diffsets shrink the carried sets and the
// bytes touched per join. Each support is mined under the paper's
// short-circuit kernel and under auto, and the diffset run's result
// bytes must equal the tid-list run's; any difference exits non-zero.
//
//   ./bench_ablation_diffsets [--scale=0.02]
#include <cstdio>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "data/result_io.hpp"
#include "eclat/eclat_seq.hpp"

int main(int argc, char** argv) {
  using namespace eclat;
  using namespace eclat::bench;
  const Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.02);

  std::printf("Ablation: tidsets vs diffsets (dEclat)\n");
  print_rule('=', 104);
  std::printf("%-10s %-13s %-10s | %10s %16s | %10s %16s | %5s\n",
              "support", "kernel", "itemsets", "tids (s)", "tids scanned",
              "diffs (s)", "diffs scanned", "bytes");
  print_rule('-', 104);

  const HorizontalDatabase db = make_database(kPaperDatabases[0], scale);
  bool diverged = false;
  for (const double support : {0.002, 0.001, 0.0005}) {
    for (const IntersectKernel kernel :
         {IntersectKernel::kMergeShortCircuit, IntersectKernel::kAuto}) {
      EclatConfig tidset_config;
      tidset_config.minsup = absolute_support(support, db.size());
      tidset_config.kernel = kernel;
      tidset_config.include_singletons = false;
      IntersectStats tidset_stats;
      WallStopwatch tidset_watch;
      const MiningResult tidset =
          eclat_sequential(db, tidset_config, &tidset_stats);
      const double tidset_seconds = tidset_watch.elapsed_seconds();

      EclatConfig diffset_config = tidset_config;
      diffset_config.use_diffsets = true;
      IntersectStats diffset_stats;
      WallStopwatch diffset_watch;
      const MiningResult diffset =
          eclat_sequential(db, diffset_config, &diffset_stats);
      const double diffset_seconds = diffset_watch.elapsed_seconds();

      const bool same = result_to_bytes(tidset) == result_to_bytes(diffset);
      diverged = diverged || !same;
      std::printf(
          "%9.2f%% %-13s %-10zu | %10.3f %16llu | %10.3f %16llu | %5s\n",
          support * 100.0, kernel_name(kernel), tidset.itemsets.size(),
          tidset_seconds,
          static_cast<unsigned long long>(tidset_stats.tids_scanned),
          diffset_seconds,
          static_cast<unsigned long long>(diffset_stats.tids_scanned),
          same ? "same" : "DIFF");
    }
  }
  print_rule('-', 104);
  std::printf("Expected: diffsets touch fewer elements as support drops "
              "(denser lattice).\n");
  if (diverged) {
    std::fprintf(stderr, "diffset and tid-list result bytes differ\n");
    return 1;
  }
  return 0;
}
