// Quickstart: generate a synthetic basket database, mine frequent itemsets
// with Eclat, and print the result — the ten-line tour of the public API.
//
//   ./quickstart [--transactions=5000] [--support=0.01] [--algo=eclat]
#include <cstdio>

#include "api/mining.hpp"
#include "common/flags.hpp"
#include "gen/quest.hpp"

int main(int argc, char** argv) {
  const eclat::Flags flags(argc, argv);

  // 1. Data: an IBM Quest-style synthetic basket database (or load your
  //    own with eclat::read_text_file / read_binary_file).
  eclat::gen::QuestConfig gen_config;
  gen_config.num_transactions =
      static_cast<std::size_t>(flags.get_int("transactions", 5000));
  gen_config.num_items = 200;
  gen_config.num_patterns = 80;
  const eclat::HorizontalDatabase db =
      eclat::gen::QuestGenerator(gen_config).generate();
  std::printf("database: %s  (%zu transactions, avg length %.1f)\n",
              eclat::gen::database_name(gen_config).c_str(), db.size(),
              db.average_transaction_length());

  // 2. Mine.
  eclat::api::MineOptions options;
  options.algorithm =
      eclat::api::parse_algorithm(flags.get("algo", "eclat"));
  options.min_support = flags.get_double("support", 0.01);
  const eclat::MiningResult result = eclat::api::mine(db, options);

  // 3. Report.
  std::printf("minimum support %.2f%% -> %zu frequent itemsets\n",
              options.min_support * 100.0, result.itemsets.size());
  for (std::size_t k = 1; k <= result.max_size(); ++k) {
    std::printf("  |L%zu| = %zu\n", k, result.count_of_size(k));
  }
  std::printf("largest itemsets:\n");
  // Results are in canonical order (size, then lexicographic); each
  // itemset reads as a view into the result's flat store.
  std::size_t shown = 0;
  for (std::size_t i = result.itemsets.size(); i > 0 && shown < 5;
       --i, ++shown) {
    const eclat::ItemsetView f = result.itemsets[i - 1];
    std::printf("  %s  support %llu\n", eclat::to_string(f.items).c_str(),
                static_cast<unsigned long long>(f.support));
  }
  return 0;
}
