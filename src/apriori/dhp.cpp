#include "apriori/dhp.hpp"

#include <algorithm>

#include "apriori/apriori.hpp"
#include "apriori/candidate_gen.hpp"

namespace eclat {

std::size_t dhp_bucket(const Itemset& itemset, std::size_t buckets) {
  // FNV-1a over the items, folded into the table.
  std::size_t hash = 1469598103934665603ULL;
  for (Item item : itemset) {
    hash ^= item;
    hash *= 1099511628211ULL;
  }
  return hash % buckets;
}

MiningResult dhp(const HorizontalDatabase& db, const DhpConfig& config,
                 DhpStats* stats) {
  MiningResult result;
  DhpStats local_stats;

  // Working copy of the transactions (trimming shrinks it level by level).
  std::vector<Itemset> working;
  working.reserve(db.size());
  for (const Transaction& t : db.transactions()) {
    working.emplace_back(t.items.begin(), t.items.end());
  }

  // --- Scan 1: count items AND hash all pairs into the filter table. ---
  std::vector<Count> item_counts(db.num_items(), 0);
  std::vector<Count> pair_buckets(config.hash_buckets, 0);
  Itemset probe(2);
  for (const Itemset& items : working) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      ++item_counts[items[i]];
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        probe[0] = items[i];
        probe[1] = items[j];
        ++pair_buckets[dhp_bucket(probe, config.hash_buckets)];
      }
    }
  }
  ++result.database_scans;

  std::vector<Item> frequent_items;
  for (Item item = 0; item < db.num_items(); ++item) {
    if (item_counts[item] >= config.minsup) {
      result.itemsets.push_back(FrequentItemset{{item}, item_counts[item]});
      frequent_items.push_back(item);
    }
  }
  result.levels.push_back(LevelStats{
      1, static_cast<std::size_t>(db.num_items()), frequent_items.size()});

  // --- C2: frequent-item pairs surviving the bucket filter. ---
  std::vector<Itemset> c2;
  for (std::size_t i = 0; i < frequent_items.size(); ++i) {
    for (std::size_t j = i + 1; j < frequent_items.size(); ++j) {
      ++local_stats.c2_unfiltered;
      probe[0] = frequent_items[i];
      probe[1] = frequent_items[j];
      if (pair_buckets[dhp_bucket(probe, config.hash_buckets)] >=
          config.minsup) {
        c2.push_back(probe);
        ++local_stats.c2_filtered;
      }
    }
  }
  pair_buckets.clear();
  pair_buckets.shrink_to_fit();

  // Trim: drop infrequent items from the working transactions.
  auto trim_to = [&](const std::vector<Count>& keep_count, Count threshold) {
    for (Itemset& items : working) {
      const std::size_t before = items.size();
      std::erase_if(items, [&](Item item) {
        return keep_count[item] < threshold;
      });
      local_stats.items_trimmed += before - items.size();
    }
  };
  if (config.trim_transactions) trim_to(item_counts, config.minsup);

  // --- Scan 2: exact pair counting + hashing triples for the next
  // filter. Pairs are counted in a hash set filter + map. ---
  ItemsetSet c2_set(c2.begin(), c2.end());
  std::unordered_map<Itemset, Count, ItemsetHash> pair_counts;
  pair_counts.reserve(c2.size());
  for (const Itemset& candidate : c2) pair_counts.emplace(candidate, 0);
  std::vector<Count> triple_buckets(config.hash_buckets, 0);
  Itemset triple(3);
  for (const Itemset& items : working) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        probe[0] = items[i];
        probe[1] = items[j];
        const auto it = pair_counts.find(probe);
        if (it != pair_counts.end()) ++it->second;
      }
    }
    // Hash every 3-subset for the level-3 filter.
    for (std::size_t i = 0; i < items.size(); ++i) {
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        for (std::size_t l = j + 1; l < items.size(); ++l) {
          triple[0] = items[i];
          triple[1] = items[j];
          triple[2] = items[l];
          ++triple_buckets[dhp_bucket(triple, config.hash_buckets)];
        }
      }
    }
  }
  ++result.database_scans;

  std::vector<Itemset> level;
  for (const Itemset& candidate : c2) {
    const Count support = pair_counts.at(candidate);
    if (support >= config.minsup) {
      result.itemsets.push_back(FrequentItemset{candidate, support});
      level.push_back(candidate);
    }
  }
  std::sort(level.begin(), level.end(), lex_less);
  result.levels.push_back(LevelStats{2, c2.size(), level.size()});

  // --- k >= 3: Apriori-style levels; level 3 additionally passes the
  // triple bucket filter. ---
  const std::vector<std::uint32_t> bucket_map =
      balanced_bucket_map(item_counts, config.tree.fanout);
  std::size_t k = 3;
  while (!level.empty()) {
    std::vector<Itemset> candidates = generate_candidates(level, true);
    if (k == 3) {
      local_stats.c3_unfiltered = candidates.size();
      std::erase_if(candidates, [&](const Itemset& candidate) {
        return triple_buckets[dhp_bucket(candidate, config.hash_buckets)] <
               config.minsup;
      });
      local_stats.c3_filtered = candidates.size();
      triple_buckets.clear();
      triple_buckets.shrink_to_fit();
    }
    if (candidates.empty()) break;

    HashTree tree(k, config.tree, bucket_map);
    for (Itemset& candidate : candidates) tree.insert(std::move(candidate));
    Tid tid = 0;
    for (const Itemset& items : working) {
      tree.count_transaction(Transaction{tid++, items});
    }
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
    result.levels.push_back(LevelStats{k, tree.size(), next_level.size()});

    // Trim items that vanished from the surviving level.
    if (config.trim_transactions && !next_level.empty()) {
      std::vector<Count> appearances(db.num_items(), 0);
      for (const Itemset& itemset : next_level) {
        for (Item item : itemset) ++appearances[item];
      }
      trim_to(appearances, 1);
    }

    level = std::move(next_level);
    ++k;
  }

  normalize(result);
  if (stats) *stats = local_stats;
  return result;
}

}  // namespace eclat
