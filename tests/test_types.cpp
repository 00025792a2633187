#include "common/types.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "common/result.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

TEST(Types, ToStringFormatsItemset) {
  EXPECT_EQ(to_string(Itemset{}), "{}");
  EXPECT_EQ(to_string(Itemset{7}), "{7}");
  EXPECT_EQ(to_string(Itemset{1, 2, 30}), "{1 2 30}");
}

TEST(Types, IsSortedItemset) {
  EXPECT_TRUE(is_sorted_itemset(Itemset{}));
  EXPECT_TRUE(is_sorted_itemset(Itemset{5}));
  EXPECT_TRUE(is_sorted_itemset(Itemset{1, 2, 3}));
  EXPECT_FALSE(is_sorted_itemset(Itemset{1, 1}));
  EXPECT_FALSE(is_sorted_itemset(Itemset{2, 1}));
}

TEST(Types, IsSubset) {
  EXPECT_TRUE(is_subset(Itemset{}, Itemset{1, 2}));
  EXPECT_TRUE(is_subset(Itemset{2}, Itemset{1, 2, 3}));
  EXPECT_TRUE(is_subset(Itemset{1, 3}, Itemset{1, 2, 3}));
  EXPECT_FALSE(is_subset(Itemset{4}, Itemset{1, 2, 3}));
  EXPECT_FALSE(is_subset(Itemset{1, 4}, Itemset{1, 2, 3}));
}

TEST(Types, LexLess) {
  EXPECT_TRUE(lex_less({1}, {2}));
  EXPECT_TRUE(lex_less({1}, {1, 2}));
  EXPECT_TRUE(lex_less({1, 2}, {1, 3}));
  EXPECT_FALSE(lex_less({2}, {1, 5}));
  EXPECT_FALSE(lex_less({1, 2}, {1, 2}));
}

TEST(Result, AbsoluteSupportCeilsAndFloorsAtOne) {
  EXPECT_EQ(absolute_support(0.001, 100000), 100u);
  EXPECT_EQ(absolute_support(0.001, 100), 1u);
  EXPECT_EQ(absolute_support(0.0015, 1000), 2u);  // ceil(1.5)
  EXPECT_EQ(absolute_support(0.0, 1000), 1u);     // never zero
  EXPECT_EQ(absolute_support(1.0, 1000), 1000u);
}

TEST(Result, AbsoluteSupportRejectsFractionsOutsideZeroToOne) {
  // Each of these used to reach an undefined or wrapping double -> Count
  // conversion (1e30 came back as 1, so the run mined at minsup 1).
  const double bad[] = {-0.5,
                        -1e-300,
                        1.0000001,
                        1e30,
                        std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double fraction : bad) {
    EXPECT_THROW((void)absolute_support(fraction, 50000),
                 std::invalid_argument)
        << fraction;
  }
}

TEST(Result, NormalizeOrdersBySizeThenLex) {
  MiningResult result;
  result.itemsets = {
      {{2, 3}, 5}, {{1}, 9}, {{1, 2, 3}, 2}, {{1, 4}, 4}, {{0}, 7}};
  normalize(result);
  EXPECT_EQ(testutil::items_of(result.itemsets[0].items), (Itemset{0}));
  EXPECT_EQ(testutil::items_of(result.itemsets[1].items), (Itemset{1}));
  EXPECT_EQ(testutil::items_of(result.itemsets[2].items), (Itemset{1, 4}));
  EXPECT_EQ(testutil::items_of(result.itemsets[3].items), (Itemset{2, 3}));
  EXPECT_EQ(testutil::items_of(result.itemsets[4].items),
            (Itemset{1, 2, 3}));
}

TEST(Result, CountOfSizeAndMaxSize) {
  MiningResult result;
  result.itemsets = {{{1}, 1}, {{2}, 1}, {{1, 2}, 1}, {{1, 2, 3}, 1}};
  EXPECT_EQ(result.count_of_size(1), 2u);
  EXPECT_EQ(result.count_of_size(2), 1u);
  EXPECT_EQ(result.count_of_size(3), 1u);
  EXPECT_EQ(result.count_of_size(4), 0u);
  EXPECT_EQ(result.max_size(), 3u);
}

}  // namespace
}  // namespace eclat
