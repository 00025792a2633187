#include "apriori/apriori.hpp"

#include <algorithm>

#include "apriori/candidate_gen.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

std::vector<Count> count_items(std::span<const Transaction> transactions,
                               Item num_items) {
  std::vector<Count> counts(num_items, 0);
  for (const Transaction& t : transactions) {
    for (Item item : t.items) ++counts[item];
  }
  return counts;
}

MiningResult apriori(const HorizontalDatabase& db,
                     const AprioriConfig& config) {
  MiningResult result;
  const std::span<const Transaction> all(db.transactions());

  // --- L1: one scan counting single items. ---
  const std::vector<Count> item_counts = count_items(all, db.num_items());
  ++result.database_scans;

  std::vector<Itemset> level;  // Lk-1, sorted lexicographically
  for (Item item = 0; item < db.num_items(); ++item) {
    if (item_counts[item] >= config.minsup) {
      result.itemsets.push_back(FrequentItemset{{item}, item_counts[item]});
      level.push_back({item});
    }
  }
  result.levels.push_back(
      LevelStats{1, static_cast<std::size_t>(db.num_items()), level.size()});

  // --- L2: either a triangular count array over the frequent items (one
  // scan, no hash tree) or the generic hash-tree path, selected by
  // config. ---
  std::size_t k = 2;
  if (config.triangle_l2 && db.num_items() >= 2 && !level.empty()) {
    TriangleCounter counter(item_counts, config.minsup);
    counter.count(all);
    ++result.database_scans;
    std::vector<Itemset> next_level;
    std::size_t candidate_pairs = 0;
    for (std::size_t i = 0; i < level.size(); ++i) {
      for (std::size_t j = i + 1; j < level.size(); ++j) {
        ++candidate_pairs;
        const Item a = level[i][0];
        const Item b = level[j][0];
        const Count support = counter.get(a, b);
        if (support >= config.minsup) {
          result.itemsets.push_back(FrequentItemset{{a, b}, support});
          next_level.push_back({a, b});
        }
      }
    }
    result.levels.push_back(LevelStats{2, candidate_pairs,
                                       next_level.size()});
    level = std::move(next_level);
    k = 3;
  }

  // --- Lk for k >= 3 (or 2 when triangle_l2 is off): candidate join +
  // prune, hash-tree counting, one scan per level. ---
  const std::vector<std::uint32_t> bucket_map =
      config.balanced_tree
          ? balanced_bucket_map(item_counts, config.tree.fanout)
          : std::vector<std::uint32_t>{};

  while (!level.empty()) {
    std::vector<Itemset> candidates =
        generate_candidates(level, config.prune && k >= 3);
    if (candidates.empty()) break;

    HashTree tree(k, config.tree, bucket_map);
    for (Itemset& candidate : candidates) tree.insert(std::move(candidate));
    tree.count_all(all);
    ++result.database_scans;

    std::vector<Itemset> next_level;
    tree.for_each([&](const Candidate& candidate) {
      if (candidate.count >= config.minsup) {
        result.itemsets.push_back(
            FrequentItemset{candidate.items, candidate.count});
        next_level.push_back(candidate.items);
      }
    });
    std::sort(next_level.begin(), next_level.end(), lex_less);
    result.levels.push_back(
        LevelStats{k, tree.size(), next_level.size()});
    level = std::move(next_level);
    ++k;
  }

  normalize(result);
  return result;
}

}  // namespace eclat
