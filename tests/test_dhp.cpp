#include "apriori/dhp.hpp"

#include <gtest/gtest.h>

#include "apriori/apriori.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::handmade_db;
using testutil::same_itemsets;
using testutil::small_quest_db;

TEST(DhpBucket, DeterministicAndInRange) {
  for (std::size_t buckets : {16u, 1024u, 65536u}) {
    EXPECT_LT(dhp_bucket({1, 2}, buckets), buckets);
    EXPECT_EQ(dhp_bucket({1, 2}, buckets), dhp_bucket({1, 2}, buckets));
  }
  EXPECT_NE(dhp_bucket({1, 2}, 1 << 16), dhp_bucket({1, 3}, 1 << 16));
}

TEST(Dhp, MatchesAprioriOnHandmade) {
  DhpConfig config;
  config.minsup = 4;
  AprioriConfig reference;
  reference.minsup = 4;
  EXPECT_TRUE(same_itemsets(dhp(handmade_db(), config),
                            apriori(handmade_db(), reference)));
}

class DhpSweep : public ::testing::TestWithParam<Count> {};

TEST_P(DhpSweep, MatchesAprioriAcrossSupports) {
  const HorizontalDatabase db = small_quest_db(400, 30, 17);
  DhpConfig config;
  config.minsup = GetParam();
  AprioriConfig reference;
  reference.minsup = GetParam();
  EXPECT_TRUE(same_itemsets(dhp(db, config), apriori(db, reference)));
}

INSTANTIATE_TEST_SUITE_P(Supports, DhpSweep,
                         ::testing::Values(3u, 5u, 8u, 15u, 40u));

TEST(Dhp, TinyHashTableStillCorrect) {
  // Heavy bucket collisions only weaken the filter (more false
  // candidates), never the answer.
  const HorizontalDatabase db = small_quest_db();
  DhpConfig config;
  config.minsup = 5;
  config.hash_buckets = 8;
  AprioriConfig reference;
  reference.minsup = 5;
  EXPECT_TRUE(same_itemsets(dhp(db, config), apriori(db, reference)));
}

TEST(Dhp, TrimmingOffStillCorrect) {
  const HorizontalDatabase db = small_quest_db();
  DhpConfig config;
  config.minsup = 5;
  config.trim_transactions = false;
  AprioriConfig reference;
  reference.minsup = 5;
  EXPECT_TRUE(same_itemsets(dhp(db, config), apriori(db, reference)));
}

TEST(Dhp, HashFilterShrinksCandidateSets) {
  const HorizontalDatabase db = small_quest_db(600, 40, 21);
  DhpConfig config;
  config.minsup = 12;
  DhpStats stats;
  dhp(db, config, &stats);
  // The point of DHP: fewer candidates actually counted.
  EXPECT_LT(stats.c2_filtered, stats.c2_unfiltered);
  EXPECT_LE(stats.c3_filtered, stats.c3_unfiltered);
  EXPECT_GT(stats.items_trimmed, 0u);
}

TEST(Dhp, FilterIsSound) {
  // No frequent pair may be filtered: every frequent 2-itemset's bucket
  // count is at least its support.
  const HorizontalDatabase db = small_quest_db();
  const Count minsup = 5;
  DhpConfig config;
  config.minsup = minsup;
  const MiningResult mined = dhp(db, config);
  AprioriConfig reference;
  reference.minsup = minsup;
  const MiningResult expected = apriori(db, reference);
  EXPECT_EQ(mined.count_of_size(2), expected.count_of_size(2));
}

TEST(Dhp, EmptyAndDegenerate) {
  DhpConfig config;
  config.minsup = 1;
  EXPECT_TRUE(dhp(HorizontalDatabase{}, config).itemsets.empty());

  const HorizontalDatabase db = testutil::database_of({{0, {0, 1}}}, 2);
  const MiningResult result = dhp(db, config);
  EXPECT_EQ(result.itemsets.size(), 3u);  // {0}, {1}, {0,1}
}

}  // namespace
}  // namespace eclat
