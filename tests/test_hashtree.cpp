#include "hashtree/hash_tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hpp"
#include "gen/quest.hpp"

namespace eclat {
namespace {

/// Ground truth: count subset containment by brute force.
std::map<Itemset, Count> brute_force_counts(
    const std::vector<Itemset>& candidates,
    const std::vector<Transaction>& transactions) {
  std::map<Itemset, Count> counts;
  for (const Itemset& candidate : candidates) counts[candidate] = 0;
  for (const Transaction& t : transactions) {
    for (const Itemset& candidate : candidates) {
      if (is_subset(candidate, t.items)) ++counts[candidate];
    }
  }
  return counts;
}

/// Count one basket; the row views `items` for the call only.
void count_basket(HashTree& tree, Tid tid, const Itemset& items) {
  tree.count_transaction(Transaction{tid, items});
}

TEST(HashTree, InsertAndFind) {
  HashTree tree(2);
  tree.insert({1, 2});
  tree.insert({1, 3});
  tree.insert({4, 7});
  EXPECT_EQ(tree.size(), 3u);
  ASSERT_NE(tree.find({1, 3}), nullptr);
  EXPECT_EQ(tree.find({1, 3})->count, 0u);
  EXPECT_EQ(tree.find({2, 3}), nullptr);
  EXPECT_EQ(tree.find({1, 2, 3}), nullptr);  // wrong length
}

TEST(HashTree, RejectsWrongLengthInsert) {
  HashTree tree(3);
  EXPECT_THROW(tree.insert({1, 2}), std::invalid_argument);
}

TEST(HashTree, RejectsDegenerateConfig) {
  EXPECT_THROW(HashTree(0), std::invalid_argument);
  HashTreeConfig config;
  config.fanout = 1;
  EXPECT_THROW(HashTree(2, config), std::invalid_argument);
}

TEST(HashTree, CountsSimpleTransactions) {
  HashTree tree(2);
  tree.insert({0, 1});
  tree.insert({1, 2});
  tree.insert({0, 2});
  count_basket(tree, 0, {0, 1, 2});
  count_basket(tree, 1, {1, 2});
  count_basket(tree, 2, {0});  // too short, no candidate fits
  EXPECT_EQ(tree.find({0, 1})->count, 1u);
  EXPECT_EQ(tree.find({1, 2})->count, 2u);
  EXPECT_EQ(tree.find({0, 2})->count, 1u);
}

TEST(HashTree, NoDoubleCountingThroughMultipleHashPaths) {
  // With tiny fanout, many items collide into the same buckets and a leaf
  // is reachable through several descent paths; each candidate must still
  // be counted at most once per transaction.
  HashTreeConfig config;
  config.fanout = 2;
  config.leaf_capacity = 1;
  HashTree tree(2, config);
  tree.insert({0, 2});
  tree.insert({2, 4});
  tree.insert({0, 4});
  count_basket(tree, 0, {0, 2, 4, 6, 8});
  EXPECT_EQ(tree.find({0, 2})->count, 1u);
  EXPECT_EQ(tree.find({2, 4})->count, 1u);
  EXPECT_EQ(tree.find({0, 4})->count, 1u);
}

TEST(HashTree, SplitsLeavesBeyondCapacity) {
  HashTreeConfig config;
  config.fanout = 4;
  config.leaf_capacity = 2;
  HashTree tree(3, config);
  for (Item a = 0; a < 6; ++a) {
    tree.insert({a, static_cast<Item>(a + 1), static_cast<Item>(a + 2)});
  }
  EXPECT_EQ(tree.size(), 6u);
  EXPECT_GT(tree.node_count(), 1u);  // must have split
  // All candidates still findable after splits.
  for (Item a = 0; a < 6; ++a) {
    EXPECT_NE(
        tree.find({a, static_cast<Item>(a + 1), static_cast<Item>(a + 2)}),
        nullptr);
  }
}

TEST(HashTree, ForEachVisitsEveryCandidateOnce) {
  HashTree tree(2);
  std::vector<Itemset> inserted;
  for (Item a = 0; a < 10; ++a) {
    for (Item b = a + 1; b < 10; ++b) {
      tree.insert({a, b});
      inserted.push_back({a, b});
    }
  }
  std::vector<Itemset> visited;
  tree.for_each(
      [&](const Candidate& candidate) { visited.push_back(candidate.items); });
  std::sort(visited.begin(), visited.end(), lex_less);
  std::sort(inserted.begin(), inserted.end(), lex_less);
  EXPECT_EQ(visited, inserted);
}

struct HashTreeParam {
  std::size_t fanout;
  std::size_t leaf_capacity;
  bool short_circuit;
  bool balanced;
};

class HashTreeCountMatrix : public ::testing::TestWithParam<HashTreeParam> {};

TEST_P(HashTreeCountMatrix, MatchesBruteForceOnGeneratedData) {
  const HashTreeParam param = GetParam();

  gen::QuestConfig gen_config;
  gen_config.num_transactions = 400;
  gen_config.num_items = 40;
  gen_config.num_patterns = 12;
  gen_config.avg_pattern_length = 4;
  gen_config.avg_transaction_length = 8;
  gen_config.seed = 11;
  const HorizontalDatabase db = gen::QuestGenerator(gen_config).generate();

  // Candidate pool: random 3-itemsets.
  Rng rng(55);
  std::vector<Itemset> candidates;
  for (int i = 0; i < 60; ++i) {
    Itemset candidate;
    while (candidate.size() < 3) {
      const Item item = static_cast<Item>(rng.below(40));
      if (std::find(candidate.begin(), candidate.end(), item) ==
          candidate.end()) {
        candidate.push_back(item);
      }
    }
    std::sort(candidate.begin(), candidate.end());
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(), lex_less);
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  HashTreeConfig config;
  config.fanout = param.fanout;
  config.leaf_capacity = param.leaf_capacity;
  config.short_circuit = param.short_circuit;
  std::vector<std::uint32_t> bucket_map;
  if (param.balanced) {
    std::vector<Count> freq(40, 0);
    for (const Transaction& t : db.transactions()) {
      for (Item item : t.items) ++freq[item];
    }
    bucket_map = balanced_bucket_map(freq, param.fanout);
  }

  HashTree tree(3, config, bucket_map);
  for (const Itemset& candidate : candidates) tree.insert(candidate);
  tree.count_all(db.transactions());

  const auto expected = brute_force_counts(candidates, db.transactions());
  for (const Itemset& candidate : candidates) {
    ASSERT_NE(tree.find(candidate), nullptr);
    EXPECT_EQ(tree.find(candidate)->count, expected.at(candidate))
        << to_string(candidate);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigSweep, HashTreeCountMatrix,
    ::testing::Values(HashTreeParam{32, 16, true, false},
                      HashTreeParam{32, 16, false, false},
                      HashTreeParam{2, 1, true, false},
                      HashTreeParam{2, 1, false, false},
                      HashTreeParam{7, 3, true, true},
                      HashTreeParam{32, 16, true, true},
                      HashTreeParam{4, 2, false, true}));

TEST(BalancedBucketMap, SpreadsHeavyItemsAcrossBuckets) {
  // Frequencies descending with item id: heaviest items must land in
  // different buckets.
  std::vector<Count> freq = {100, 90, 80, 70, 60, 50, 40, 30};
  const auto map = balanced_bucket_map(freq, 4);
  ASSERT_EQ(map.size(), 8u);
  EXPECT_EQ(map[0], 0u);
  EXPECT_EQ(map[1], 1u);
  EXPECT_EQ(map[2], 2u);
  EXPECT_EQ(map[3], 3u);
  EXPECT_EQ(map[4], 0u);  // wraps round-robin
}

TEST(BalancedBucketMap, AllBucketsWithinFanout) {
  std::vector<Count> freq(100);
  Rng rng(3);
  for (Count& f : freq) f = rng.below(1000);
  const auto map = balanced_bucket_map(freq, 8);
  for (std::uint32_t bucket : map) EXPECT_LT(bucket, 8u);
}

}  // namespace
}  // namespace eclat
