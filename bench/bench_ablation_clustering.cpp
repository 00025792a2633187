// Ablation — itemset clustering (companion report [18]): prefix
// equivalence classes (Eclat) vs maximal-clique refinement (Clique), and
// the MaxEclat maximal-itemset summary with its top-element pruning.
//
//   ./bench_ablation_clustering [--scale=0.02] [--support=0.001]
#include <cstdio>

#include "bench_util.hpp"
#include "clique/clique_eclat.hpp"
#include "common/clock.hpp"
#include "eclat/eclat_seq.hpp"
#include "eclat/max_eclat.hpp"

int main(int argc, char** argv) {
  using namespace eclat;
  using namespace eclat::bench;
  const Flags flags(argc, argv);
  const double scale = flags.get_double("scale", 0.02);
  const double support = flags.get_double("support", kPaperSupport);

  const HorizontalDatabase db = make_database(kPaperDatabases[0], scale);
  const Count minsup = absolute_support(support, db.size());

  std::printf("Ablation: itemset clustering on %s, support %.2f%%\n",
              scaled_name(kPaperDatabases[0], scale).c_str(),
              support * 100.0);
  print_rule('=', 86);

  WallStopwatch plain_watch;
  EclatConfig plain_config;
  plain_config.minsup = minsup;
  const MiningResult plain = eclat_sequential(db, plain_config);
  const double plain_seconds = plain_watch.elapsed_seconds();

  WallStopwatch clique_watch;
  CliqueEclatConfig clique_config;
  clique_config.minsup = minsup;
  CliqueEclatStats clique_stats;
  const MiningResult clique = clique_eclat(db, clique_config, &clique_stats);
  const double clique_seconds = clique_watch.elapsed_seconds();

  WallStopwatch max_watch;
  MaxEclatConfig max_config;
  max_config.minsup = minsup;
  MaxEclatStats max_stats;
  const MiningResult maximal = max_eclat(db, max_config, &max_stats);
  const double max_seconds = max_watch.elapsed_seconds();

  // Clique refinement changes how classes are cut, never the answer.
  const bool agrees = clique.itemsets == plain.itemsets;
  std::printf("%-28s %10s %14s\n", "algorithm", "time (s)", "itemsets");
  print_rule('-', 86);
  std::printf("%-28s %10.3f %14zu\n", "eclat (prefix classes)",
              plain_seconds, plain.itemsets.size());
  std::printf("%-28s %10.3f %14zu   %s\n", "clique-eclat", clique_seconds,
              clique.itemsets.size(), agrees ? "(agrees)" : "(BUG!)");
  std::printf("%-28s %10.3f %14zu   (maximal only)\n", "max-eclat",
              max_seconds, maximal.itemsets.size());
  print_rule('-', 86);
  std::printf(
      "clustering: %zu prefix classes (weight %zu) vs %zu clique "
      "sub-classes (weight %zu)\n",
      clique_stats.plain_classes, clique_stats.plain_weight,
      clique_stats.clique_subclasses, clique_stats.clique_weight);
  std::printf("clique duplicates filtered: %zu\n", clique_stats.duplicates);
  std::printf("max-eclat: %zu classes collapsed by the top-element test; "
              "%.1fx summary compression\n",
              max_stats.top_hits,
              static_cast<double>(plain.itemsets.size()) /
                  static_cast<double>(
                      std::max<std::size_t>(1, maximal.itemsets.size())));
  return agrees ? 0 : 1;
}
