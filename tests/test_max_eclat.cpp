#include "eclat/max_eclat.hpp"

#include <gtest/gtest.h>

#include <optional>

#include "eclat/eclat_seq.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::handmade_db;
using testutil::small_quest_db;

std::vector<FrequentItemset> reference_maximal(const HorizontalDatabase& db,
                                               Count minsup) {
  EclatConfig config;
  config.minsup = minsup;
  return maximal_of(eclat_sequential(db, config));
}

TEST(MaximalOf, KeepsOnlyUnsubsumedItemsets) {
  MiningResult result;
  result.itemsets = {{{0}, 9},     {{1}, 8},     {{0, 1}, 7},
                     {{0, 1, 2}, 4}, {{3}, 5},   {{2}, 6}};
  const auto maximal = maximal_of(result);
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0].items, (Itemset{3}));
  EXPECT_EQ(maximal[1].items, (Itemset{0, 1, 2}));
}

TEST(MaxEclat, HandmadeMaximalSets) {
  MaxEclatConfig config;
  config.minsup = 4;
  const MiningResult result = max_eclat(handmade_db(), config);
  const auto expected = reference_maximal(handmade_db(), 4);
  ASSERT_EQ(result.itemsets.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result.itemsets[i], expected[i]);
  }
}

class MaxEclatSweep : public ::testing::TestWithParam<Count> {};

// Under every kernel, `auto`'s dense top-element fold included: the same
// maximal itemsets, supports and order, reached by the same search.
TEST_P(MaxEclatSweep, MatchesMaximalOfFullEclat) {
  const HorizontalDatabase db = small_quest_db(400, 30, 17);
  const auto expected = reference_maximal(db, GetParam());
  std::optional<MaxEclatStats> first;
  for (const IntersectKernel kernel :
       {IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
        IntersectKernel::kAuto}) {
    MaxEclatConfig config;
    config.minsup = GetParam();
    config.kernel = kernel;
    MaxEclatStats stats;
    const MiningResult result = max_eclat(db, config, &stats);
    EXPECT_EQ(result.itemsets, expected) << kernel_name(kernel);
    if (!first) {
      first = stats;
      continue;
    }
    EXPECT_EQ(stats.top_hits, first->top_hits) << kernel_name(kernel);
    EXPECT_EQ(stats.candidates, first->candidates) << kernel_name(kernel);
  }
}

INSTANTIATE_TEST_SUITE_P(Supports, MaxEclatSweep,
                         ::testing::Values(3u, 5u, 8u, 15u, 40u));

TEST(MaxEclat, TopElementShortcutFires) {
  // Four identical tid-lists: every class collapses via its top element.
  DatabaseBuilder builder;
  for (Tid t = 0; t < 6; ++t) builder.add(t, Itemset{0, 1, 2, 3});
  const HorizontalDatabase db = std::move(builder).finish(4);
  MaxEclatConfig config;
  config.minsup = 3;
  MaxEclatStats stats;
  const MiningResult result = max_eclat(db, config, &stats);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(testutil::items_of(result.itemsets[0].items),
            (Itemset{0, 1, 2, 3}));
  EXPECT_EQ(result.itemsets[0].support, 6u);
  EXPECT_GT(stats.top_hits, 0u);
}

TEST(MaxEclat, EveryFrequentItemsetHasAMaximalSuperset) {
  const HorizontalDatabase db = small_quest_db();
  const Count minsup = 5;
  EclatConfig full_config;
  full_config.minsup = minsup;
  const MiningResult full = eclat_sequential(db, full_config);
  MaxEclatConfig config;
  config.minsup = minsup;
  const MiningResult maximal = max_eclat(db, config);

  for (const FrequentItemset& f : full.itemsets) {
    const bool covered = std::any_of(
        maximal.itemsets.begin(), maximal.itemsets.end(),
        [&](const FrequentItemset& m) { return is_subset(f.items, m.items); });
    EXPECT_TRUE(covered) << to_string(f.items);
  }
}

TEST(MaxEclat, MaximalFamilyIsAntichain) {
  const HorizontalDatabase db = small_quest_db(500, 25, 11);
  MaxEclatConfig config;
  config.minsup = 8;
  const MiningResult result = max_eclat(db, config);
  for (std::size_t i = 0; i < result.itemsets.size(); ++i) {
    for (std::size_t j = 0; j < result.itemsets.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(is_subset(result.itemsets[i].items,
                             result.itemsets[j].items))
          << i << " " << j;
    }
  }
}

TEST(MaxEclat, IsolatedSingletonIsMaximal) {
  // Item 4 is frequent but never co-occurs frequently with anything.
  const HorizontalDatabase db = testutil::database_of(
      {{0, {0, 1}}, {1, {0, 1}}, {2, {0, 1, 4}}, {3, {4}}, {4, {4}}}, 5);
  MaxEclatConfig config;
  config.minsup = 2;
  const MiningResult result = max_eclat(db, config);
  bool found_singleton_four = false;
  for (const FrequentItemset& f : result.itemsets) {
    if (f.items == Itemset{4}) found_singleton_four = true;
  }
  EXPECT_TRUE(found_singleton_four);
}

TEST(MaxEclat, EmptyDatabase) {
  MaxEclatConfig config;
  config.minsup = 1;
  EXPECT_TRUE(max_eclat(HorizontalDatabase{}, config).itemsets.empty());
}

}  // namespace
}  // namespace eclat
