// The order the final reduction relies on. normalize() places itemsets by
// size in place and sorts only a size run that arrives unsorted, which is
// linear on Eclat's commit order (singletons, frequent pairs, then each
// class's output by ascending class id) because the mining recursions
// emit each size's itemsets of a class in lexicographic order. These
// tests pin normalize against a plain comparison sort on commit-order and
// shuffled inputs, pin the per-class emission order under every kernel —
// if a recursion change breaks it, output stays correct but the sort
// silently comes back — and pin the levels finalize_result derives.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "apriori/apriori.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/diffsets.hpp"
#include "eclat/equivalence.hpp"
#include "parallel/pipeline.hpp"
#include "test_util.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {
namespace {

constexpr IntersectKernel kAllKernels[] = {
    IntersectKernel::kMerge, IntersectKernel::kMergeShortCircuit,
    IntersectKernel::kGallop, IntersectKernel::kBitset,
    IntersectKernel::kAuto};

/// The canonical order by a full comparison sort: size, then lexicographic.
std::vector<FrequentItemset> reference_sort(
    std::vector<FrequentItemset> itemsets) {
  std::sort(itemsets.begin(), itemsets.end(),
            [](const FrequentItemset& a, const FrequentItemset& b) {
              if (a.items.size() != b.items.size()) {
                return a.items.size() < b.items.size();
              }
              return lex_less(a.items, b.items);
            });
  return itemsets;
}

void expect_matches_reference(const std::vector<FrequentItemset>& itemsets) {
  MiningResult result;
  result.itemsets = itemsets;
  normalize(result);
  EXPECT_EQ(result.itemsets, reference_sort(itemsets));
}

/// Each mined class's output, by ascending class id, as the thread
/// backend's slots hold it before the reduction.
std::vector<std::vector<FrequentItemset>> class_outputs(
    const HorizontalDatabase& db, Count minsup, bool diffsets,
    IntersectKernel kernel) {
  const std::span<const Transaction> all(db.transactions());
  TriangleCounter counter(db.num_items());
  counter.count(all);
  const par::MiningPlan plan = par::derive_plan(
      counter, minsup, 1, par::ScheduleHeuristic::kGreedyWeight);
  std::vector<TidList> lists =
      PairSlots(plan.exchanged_pairs).invert(all, counter);
  std::vector<std::vector<FrequentItemset>> outputs;
  std::vector<std::size_t> histogram;
  TidArena arena;
  for (const std::vector<Atom>& atoms :
       atoms_by_class(plan.classes, lists)) {
    if (atoms.empty()) continue;
    std::vector<FrequentItemset>& out = outputs.emplace_back();
    if (diffsets) {
      compute_frequent_diffsets(atoms, minsup, kernel, arena, out,
                                histogram);
    } else {
      compute_frequent(atoms, minsup, kernel, arena, out, histogram);
    }
  }
  return outputs;
}

/// The unnormalized result in commit order: singletons (when asked for),
/// frequent pairs, then each class's output by ascending class id.
MiningResult commit_order_result(const HorizontalDatabase& db, Count minsup,
                                 bool diffsets, bool singletons = true) {
  const std::span<const Transaction> all(db.transactions());
  TriangleCounter counter(db.num_items());
  counter.count(all);
  MiningResult result;
  if (singletons) {
    par::append_singletons(result, count_items(all, db.num_items()), minsup);
  }
  par::append_frequent_pairs(result, counter.frequent_pairs(minsup),
                             counter);
  for (std::vector<FrequentItemset>& out :
       class_outputs(db, minsup, diffsets, IntersectKernel::kAuto)) {
    result.itemsets.insert(result.itemsets.end(), out.begin(), out.end());
  }
  return result;
}

std::vector<HorizontalDatabase> quest_dbs() {
  std::vector<HorizontalDatabase> dbs;
  for (std::uint64_t seed : {42u, 7u, 99u}) {
    dbs.push_back(testutil::small_quest_db(300, 25, seed));
  }
  return dbs;
}

TEST(Normalize, MatchesComparisonSortOnCommitOrder) {
  for (const HorizontalDatabase& db : quest_dbs()) {
    for (bool diffsets : {false, true}) {
      const MiningResult commit = commit_order_result(db, 5, diffsets);
      // Sizes must interleave in commit order (a class emits a size-4
      // itemset before a later class's size-3 ones), or the placement
      // has nothing to do.
      ASSERT_FALSE(std::is_sorted(
          commit.itemsets.begin(), commit.itemsets.end(),
          [](const FrequentItemset& a, const FrequentItemset& b) {
            return a.items.size() < b.items.size();
          }));
      expect_matches_reference(commit.itemsets);
    }
  }
}

TEST(Normalize, MatchesComparisonSortAfterShuffle) {
  Rng rng(0x5EED);
  for (const HorizontalDatabase& db : quest_dbs()) {
    for (bool diffsets : {false, true}) {
      std::vector<FrequentItemset> itemsets =
          commit_order_result(db, 5, diffsets).itemsets;
      for (std::size_t i = itemsets.size(); i > 1; --i) {
        std::swap(itemsets[i - 1], itemsets[rng.below(i)]);
      }
      expect_matches_reference(itemsets);
    }
  }
}

TEST(Normalize, EmptyResult) { expect_matches_reference({}); }

TEST(Normalize, OneSizeOnly) {
  expect_matches_reference({{{1, 2}, 4}, {{1, 3}, 3}, {{2, 3}, 5}});
  expect_matches_reference({{{2, 3}, 5}, {{1, 2}, 4}, {{1, 3}, 3}});
}

TEST(Normalize, SizesOneAndThreeWithoutTwo) {
  expect_matches_reference(
      {{{0, 1, 2}, 3}, {{4}, 9}, {{1, 2, 3}, 2}, {{0}, 8}, {{0, 1, 3}, 2}});
}

TEST(Normalize, SortedRunBesideUnsortedRun) {
  // The singletons arrive in order and stay put; the pairs do not.
  expect_matches_reference({{{0}, 9},
                            {{2, 5}, 3},
                            {{1}, 8},
                            {{0, 4}, 2},
                            {{3}, 7},
                            {{1, 2}, 4}});
}

TEST(EmissionOrder, EachSizeIsLexicographicWithinAClass) {
  for (const HorizontalDatabase& db : quest_dbs()) {
    for (bool diffsets : {false, true}) {
      for (IntersectKernel kernel : kAllKernels) {
        std::size_t checked = 0;
        for (const std::vector<FrequentItemset>& out :
             class_outputs(db, 5, diffsets, kernel)) {
          std::vector<const Itemset*> last_of_size;
          for (const FrequentItemset& f : out) {
            const std::size_t k = f.items.size();
            if (last_of_size.size() <= k) last_of_size.resize(k + 1);
            if (last_of_size[k] != nullptr) {
              EXPECT_TRUE(lex_less(*last_of_size[k], f.items))
                  << kernel_name(kernel) << (diffsets ? " diffsets " : " ")
                  << to_string(*last_of_size[k]) << " before "
                  << to_string(f.items);
              ++checked;
            }
            last_of_size[k] = &f.items;
          }
        }
        EXPECT_GT(checked, 0u) << kernel_name(kernel);
      }
    }
  }
}

TEST(FinalizeResult, LevelsArePerSizeCounts) {
  const HorizontalDatabase db = testutil::small_quest_db();
  for (bool singletons : {true, false}) {
    MiningResult result =
        commit_order_result(db, 5, /*diffsets=*/false, singletons);
    par::finalize_result(result);
    ASSERT_GE(result.max_size(), 4u);
    ASSERT_EQ(result.levels.size(), result.max_size());
    for (std::size_t k = 1; k <= result.max_size(); ++k) {
      const LevelStats& level = result.levels[k - 1];
      EXPECT_EQ(level.k, k);
      EXPECT_EQ(level.candidates, 0u);
      EXPECT_EQ(level.frequent, result.count_of_size(k)) << k;
    }
    // Without singletons level 1 is still reported, with a zero count.
    if (!singletons) {
      EXPECT_EQ(result.levels[0].frequent, 0u);
    }
  }
}

TEST(LevelStats, CountsEverySizeInAnyOrder) {
  MiningResult result;
  result.itemsets = {{{3, 4, 5, 6}, 1}, {{2}, 1}, {{0, 1}, 1}, {{1}, 1},
                     {{1, 2, 3, 4}, 1}};
  const std::vector<LevelStats> levels = level_stats(result);
  ASSERT_EQ(levels.size(), 4u);
  const std::size_t expected[] = {2, 1, 0, 2};
  for (std::size_t k = 1; k <= 4; ++k) {
    EXPECT_EQ(levels[k - 1].k, k);
    EXPECT_EQ(levels[k - 1].candidates, 0u);
    EXPECT_EQ(levels[k - 1].frequent, expected[k - 1]) << k;
  }
  EXPECT_TRUE(level_stats(MiningResult{}).empty());
}

}  // namespace
}  // namespace eclat
