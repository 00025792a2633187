// Maximal-itemset summarization: a full frequent-itemset listing explodes
// combinatorially at low support; the maximal family (MaxEclat) is the
// compact antichain that covers it.
//
//   ./maximal_summary [--transactions=10000] [--support=0.005]
#include <cstdio>

#include "common/flags.hpp"
#include "eclat/eclat_seq.hpp"
#include "eclat/max_eclat.hpp"
#include "gen/quest.hpp"

int main(int argc, char** argv) {
  const eclat::Flags flags(argc, argv);

  eclat::gen::QuestConfig gen_config;
  gen_config.num_transactions =
      static_cast<std::size_t>(flags.get_int("transactions", 10000));
  gen_config.num_items = 400;
  gen_config.num_patterns = 120;
  const eclat::HorizontalDatabase db =
      eclat::gen::QuestGenerator(gen_config).generate();
  const double support = flags.get_double("support", 0.005);
  const eclat::Count minsup = eclat::absolute_support(support, db.size());

  // Full frequent family vs its maximal summary.
  eclat::EclatConfig full_config;
  full_config.minsup = minsup;
  const eclat::MiningResult full = eclat_sequential(db, full_config);

  eclat::MaxEclatConfig max_config;
  max_config.minsup = minsup;
  eclat::MaxEclatStats max_stats;
  const eclat::MiningResult maximal = max_eclat(db, max_config, &max_stats);

  std::printf("support %.2f%%: %zu frequent itemsets, %zu maximal "
              "(%.1fx smaller; %zu classes collapsed by the top-element "
              "test)\n\n",
              support * 100.0, full.itemsets.size(), maximal.itemsets.size(),
              static_cast<double>(full.itemsets.size()) /
                  static_cast<double>(maximal.itemsets.size()),
              max_stats.top_hits);

  std::printf("largest maximal itemsets:\n");
  std::size_t shown = 0;
  for (std::size_t i = maximal.itemsets.size(); i > 0 && shown < 5;
       --i, ++shown) {
    const eclat::ItemsetView f = maximal.itemsets[i - 1];
    std::printf("  %s  support %llu\n", eclat::to_string(f.items).c_str(),
                static_cast<unsigned long long>(f.support));
  }

  return 0;
}
