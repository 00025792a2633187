// Ablation — short-circuited intersections (paper §5.3): Eclat with the
// minsup-bounded early-exit kernel vs the plain merge kernel. Reports
// mining time, intersection counts, and how many intersections aborted
// early.
//
//   ./bench_ablation_shortcircuit [--scale=0.02] [--support=0.001]
#include <cstdio>

#include "bench_util.hpp"
#include "common/clock.hpp"
#include "eclat/eclat_seq.hpp"

int main(int argc, char** argv) {
  using namespace eclat;
  using namespace eclat::bench;
  const Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.02);
  const double support = flags.get_double("support", kPaperSupport);

  const HorizontalDatabase db = make_database(kPaperDatabases[0], scale);
  const Count minsup = absolute_support(support, db.size());

  std::printf("Ablation: short-circuit intersections on %s, support %.2f%%\n",
              scaled_name(kPaperDatabases[0], scale).c_str(),
              support * 100.0);
  print_rule('=');
  std::printf("%-18s %10s %14s %14s %16s\n", "kernel", "time (s)",
              "intersections", "aborted early", "tids scanned");
  print_rule();

  struct Case {
    const char* name;
    IntersectKernel kernel;
  };
  const Case cases[] = {
      {"merge", IntersectKernel::kMerge},
      {"short-circuit", IntersectKernel::kMergeShortCircuit},
  };
  for (const Case& c : cases) {
    EclatConfig config;
    config.minsup = minsup;
    config.kernel = c.kernel;
    config.include_singletons = false;
    IntersectStats stats;
    WallStopwatch watch;
    const MiningResult result = eclat_sequential(db, config, &stats);
    const double seconds = watch.elapsed_seconds();
    std::printf("%-18s %10.3f %14llu %14llu %16llu\n", c.name, seconds,
                static_cast<unsigned long long>(stats.intersections),
                static_cast<unsigned long long>(stats.short_circuited),
                static_cast<unsigned long long>(stats.tids_scanned));
    (void)result;
  }
  print_rule();
  std::printf("Expected: short-circuit aborts a large share of failing "
              "intersections and never changes the result.\n");
  return 0;
}
