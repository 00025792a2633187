#include "eclat/diffsets.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "eclat/eclat_seq.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::brute_force_mine;
using testutil::handmade_db;
using testutil::same_itemsets;
using testutil::small_quest_db;

TEST(DifferenceBounded, ExactWhenUnderBudget) {
  const TidList a = {1, 2, 3, 5, 9};
  const TidList b = {2, 5};
  const auto diff = difference_bounded(a, b, 3);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(*diff, (TidList{1, 3, 9}));
}

TEST(DifferenceBounded, NulloptWhenOverBudget) {
  const TidList a = {1, 2, 3, 5, 9};
  const TidList b = {2, 5};
  EXPECT_FALSE(difference_bounded(a, b, 2).has_value());
}

TEST(DifferenceBounded, BudgetExactlyMet) {
  const TidList a = {1, 2, 3};
  const TidList b = {2};
  const auto diff = difference_bounded(a, b, 2);
  ASSERT_TRUE(diff.has_value());
  EXPECT_EQ(diff->size(), 2u);
}

TEST(DifferenceBounded, ZeroBudgetRequiresSubset) {
  EXPECT_TRUE(difference_bounded(TidList{1, 2}, TidList{1, 2, 3}, 0)
                  .has_value());
  EXPECT_FALSE(difference_bounded(TidList{1, 4}, TidList{1, 2, 3}, 0)
                   .has_value());
}

TEST(DifferenceBounded, AgreesWithPlainDifference) {
  Rng rng(808);
  for (int trial = 0; trial < 60; ++trial) {
    TidList a;
    TidList b;
    for (Tid t = 0; t < 300; ++t) {
      if (rng.uniform() < 0.4) a.push_back(t);
      if (rng.uniform() < 0.6) b.push_back(t);
    }
    const TidList exact = difference(a, b);
    const auto bounded = difference_bounded(a, b, exact.size());
    ASSERT_TRUE(bounded.has_value());
    EXPECT_EQ(*bounded, exact);
    if (!exact.empty()) {
      EXPECT_FALSE(difference_bounded(a, b, exact.size() - 1).has_value());
    }
  }
}

TEST(ComputeFrequentDiffsets, MatchesTidsetRecursionOnOneClass) {
  const TidList tids = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<Atom> atoms = {
      {{0, 1}, {0, 1, 2, 3, 4, 5}},
      {{0, 2}, {0, 1, 2, 3, 6}},
      {{0, 3}, {1, 2, 3, 4, 5, 6}},
      {{0, 4}, {0, 2, 3, 5}},
  };
  for (Count minsup : {1u, 2u, 3u, 4u}) {
    TidArena arena;
    std::vector<FrequentItemset> tidset_out;
    std::vector<std::size_t> h1;
    compute_frequent(atoms, minsup, IntersectKernel::kMergeShortCircuit,
                     arena, tidset_out, h1);

    std::vector<FrequentItemset> diffset_out;
    std::vector<std::size_t> h2;
    compute_frequent_diffsets(atoms, minsup,
                              IntersectKernel::kMergeShortCircuit, arena,
                              diffset_out, h2);

    auto by_items = [](const FrequentItemset& a, const FrequentItemset& b) {
      return lex_less(a.items, b.items);
    };
    std::sort(tidset_out.begin(), tidset_out.end(), by_items);
    std::sort(diffset_out.begin(), diffset_out.end(), by_items);
    EXPECT_EQ(tidset_out, diffset_out) << "minsup=" << minsup;
  }
}

TEST(EclatDiffsets, MatchesTidsetEclatOnGeneratedData) {
  const HorizontalDatabase db = small_quest_db(500, 30, 9);
  for (Count minsup : {4u, 8u, 20u}) {
    EclatConfig tidset_config;
    tidset_config.minsup = minsup;
    EclatConfig diffset_config;
    diffset_config.minsup = minsup;
    diffset_config.use_diffsets = true;
    EXPECT_TRUE(same_itemsets(eclat_sequential(db, tidset_config),
                              eclat_sequential(db, diffset_config)))
        << "minsup=" << minsup;
  }
}

TEST(EclatDiffsets, MatchesBruteForce) {
  const HorizontalDatabase db = small_quest_db();
  EclatConfig config;
  config.minsup = 5;
  config.use_diffsets = true;
  EXPECT_TRUE(same_itemsets(eclat_sequential(db, config),
                            brute_force_mine(db, 5)));
}

TEST(EclatDiffsets, DiffsetsScanFewerTidsOnDenseData) {
  // Dense co-occurrence (low support): diffsets are much smaller than the
  // tidsets they replace — the dEclat claim.
  const HorizontalDatabase db = small_quest_db(600, 20, 3);
  EclatConfig tidset_config;
  tidset_config.minsup = 3;
  tidset_config.kernel = IntersectKernel::kMerge;  // no early exits
  IntersectStats tidset_stats;
  eclat_sequential(db, tidset_config, &tidset_stats);

  EclatConfig diffset_config;
  diffset_config.minsup = 3;
  diffset_config.use_diffsets = true;
  IntersectStats diffset_stats;
  eclat_sequential(db, diffset_config, &diffset_stats);

  EXPECT_LT(diffset_stats.tids_scanned, tidset_stats.tids_scanned);
}

TEST(EclatDiffsets, HandmadeSupportsExact) {
  EclatConfig config;
  config.minsup = 4;
  config.use_diffsets = true;
  const MiningResult result = eclat_sequential(handmade_db(), config);
  const auto find = [&](const Itemset& items) -> Count {
    for (const FrequentItemset& f : result.itemsets) {
      if (f.items == items) return f.support;
    }
    return 0;
  };
  EXPECT_EQ(find({0, 1, 2}), 4u);
  EXPECT_EQ(find({0, 1}), 6u);
}

}  // namespace
}  // namespace eclat
