// Shared helpers for the test suite: a brute-force reference miner and
// canned small databases.
#pragma once

#include <algorithm>
#include <map>
#include <span>
#include <string>

#include "common/result.hpp"
#include "data/horizontal.hpp"
#include "gen/quest.hpp"
#include "mc/topology.hpp"

namespace eclat::testutil {

/// One basket of a literal test database.
struct Basket {
  Tid tid = 0;
  Itemset items;
};

/// A database of literal baskets, built the way every producer builds one.
/// Throws std::invalid_argument as DatabaseBuilder does.
inline HorizontalDatabase database_of(const std::vector<Basket>& baskets,
                                      Item num_items) {
  DatabaseBuilder builder;
  for (const Basket& basket : baskets) builder.add(basket.tid, basket.items);
  return std::move(builder).finish(num_items);
}

/// gtest name generator for topology-parameterised suites ("H2P4").
/// Built with += rather than chained operator+, which trips a GCC 12
/// -Wrestrict false positive in the inlined char_traits copy.
inline std::string topology_test_name(const mc::Topology& topology) {
  std::string name = "H";
  name += std::to_string(topology.hosts);
  name += "P";
  name += std::to_string(topology.procs_per_host);
  return name;
}

/// Exhaustive reference miner: enumerates every itemset that appears in at
/// least one transaction (via subset growth) and keeps the frequent ones.
/// Exponential — use only on small databases.
inline MiningResult brute_force_mine(const HorizontalDatabase& db,
                                     Count minsup) {
  std::map<Itemset, Count> counts;
  // Level-wise growth restricted to itemsets present in the data keeps the
  // enumeration tractable.
  std::vector<Itemset> level;
  for (Item item = 0; item < db.num_items(); ++item) {
    Count count = 0;
    for (const Transaction& t : db.transactions()) {
      if (std::binary_search(t.items.begin(), t.items.end(), item)) ++count;
    }
    if (count >= minsup) {
      counts[{item}] = count;
      level.push_back({item});
    }
  }
  while (!level.empty()) {
    std::map<Itemset, Count> next_counts;
    for (const Itemset& base : level) {
      for (Item item = base.back() + 1; item < db.num_items(); ++item) {
        Itemset candidate = base;
        candidate.push_back(item);
        Count count = 0;
        for (const Transaction& t : db.transactions()) {
          if (is_subset(candidate, t.items)) ++count;
        }
        if (count >= minsup) next_counts[candidate] = count;
      }
    }
    level.clear();
    for (const auto& [itemset, count] : next_counts) {
      counts[itemset] = count;
      level.push_back(itemset);
    }
  }

  MiningResult result;
  for (const auto& [itemset, count] : counts) {
    result.itemsets.push_back(FrequentItemset{itemset, count});
  }
  normalize(result);
  return result;
}

/// Small correlated database for cross-validation tests.
inline HorizontalDatabase small_quest_db(std::size_t transactions = 300,
                                         Item items = 25,
                                         std::uint64_t seed = 42) {
  gen::QuestConfig config;
  config.num_transactions = transactions;
  config.num_items = items;
  config.num_patterns = 8;
  config.avg_pattern_length = 3;
  config.avg_transaction_length = 6;
  config.seed = seed;
  return gen::QuestGenerator(config).generate();
}

/// Hand-built database with known frequent itemsets.
inline HorizontalDatabase handmade_db() {
  return database_of(
      {
          {0, {0, 1, 2, 3}}, {1, {0, 1, 2}}, {2, {0, 1}},    {3, {0, 2, 3}},
          {4, {1, 2}},       {5, {0, 1, 2}}, {6, {3}},       {7, {0, 1, 3}},
          {8, {0, 1, 2, 3}}, {9, {2, 3}},
      },
      4);
}

/// A view's items as an owning Itemset, so an assertion compares and
/// prints them like any Itemset.
inline Itemset items_of(std::span<const Item> items) {
  return Itemset(items.begin(), items.end());
}

inline bool same_itemsets(const MiningResult& a, const MiningResult& b) {
  if (a.itemsets.size() != b.itemsets.size()) return false;
  for (std::size_t i = 0; i < a.itemsets.size(); ++i) {
    if (a.itemsets[i] != b.itemsets[i]) return false;
  }
  return true;
}

}  // namespace eclat::testutil
