#include "eclat/eclat_seq.hpp"

#include <gtest/gtest.h>

#include "apriori/apriori.hpp"
#include "common/rng.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/diffsets.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::brute_force_mine;
using testutil::handmade_db;
using testutil::same_itemsets;
using testutil::small_quest_db;

TEST(ComputeFrequent, MinesOneClassExhaustively) {
  // Class [0] with members 1, 2, 3; all tid-lists identical so every
  // superset is frequent too.
  const TidList tids = {0, 1, 2, 3, 4};
  std::vector<Atom> atoms = {
      {{0, 1}, tids}, {{0, 2}, tids}, {{0, 3}, tids}};
  std::vector<FrequentItemset> out;
  std::vector<std::size_t> histogram;
  TidArena arena;
  compute_frequent(atoms, 2, IntersectKernel::kMergeShortCircuit, arena,
                   out, histogram);
  // Expected: {0,1,2}, {0,1,3}, {0,2,3}, {0,1,2,3}.
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(histogram[3], 3u);
  EXPECT_EQ(histogram[4], 1u);
  for (const FrequentItemset& f : out) EXPECT_EQ(f.support, 5u);
}

TEST(ComputeFrequent, RespectsMinimumSupport) {
  std::vector<Atom> atoms = {
      {{0, 1}, {0, 1, 2}},
      {{0, 2}, {2, 3, 4}},
  };
  std::vector<FrequentItemset> out;
  std::vector<std::size_t> histogram;
  TidArena arena;
  compute_frequent(atoms, 2, IntersectKernel::kMergeShortCircuit, arena,
                   out, histogram);
  EXPECT_TRUE(out.empty());  // intersection {2} has support 1 < 2
}

TEST(ComputeFrequent, SingletonClassYieldsNothing) {
  std::vector<Atom> atoms = {{{0, 1}, {0, 1, 2}}};
  std::vector<FrequentItemset> out;
  std::vector<std::size_t> histogram;
  TidArena arena;
  compute_frequent(atoms, 1, IntersectKernel::kMergeShortCircuit, arena,
                   out, histogram);
  EXPECT_TRUE(out.empty());
}

TEST(ComputeFrequent, StatsTrackShortCircuits) {
  std::vector<Atom> atoms = {
      {{0, 1}, {0, 2, 4, 6}},
      {{0, 2}, {1, 3, 5, 7}},  // disjoint: must short-circuit
      {{0, 3}, {0, 2, 4, 6}},
  };
  IntersectStats stats;
  std::vector<FrequentItemset> out;
  std::vector<std::size_t> histogram;
  TidArena arena;
  compute_frequent(atoms, 3, IntersectKernel::kMergeShortCircuit, arena,
                   out, histogram, &stats);
  EXPECT_GT(stats.intersections, 0u);
  EXPECT_GT(stats.short_circuited, 0u);
}

TEST(EclatSeq, HandmadeDatabaseKnownSupports) {
  EclatConfig config;
  config.minsup = 4;
  const MiningResult result = eclat_sequential(handmade_db(), config);
  const auto find = [&](const Itemset& items) -> Count {
    for (const FrequentItemset& f : result.itemsets) {
      if (f.items == items) return f.support;
    }
    return 0;
  };
  EXPECT_EQ(find({0, 1}), 6u);
  EXPECT_EQ(find({0, 1, 2}), 4u);
  EXPECT_EQ(find({0, 3}), 4u);
}

TEST(EclatSeq, MatchesBruteForceAcrossSupports) {
  const HorizontalDatabase db = small_quest_db();
  for (Count minsup : {3u, 5u, 10u, 30u}) {
    EclatConfig config;
    config.minsup = minsup;
    const MiningResult mined = eclat_sequential(db, config);
    const MiningResult reference = brute_force_mine(db, minsup);
    EXPECT_TRUE(same_itemsets(mined, reference)) << "minsup=" << minsup;
  }
}

TEST(EclatSeq, MatchesAprioriExactly) {
  const HorizontalDatabase db = small_quest_db(500, 30, 9);
  for (Count minsup : {4u, 8u, 20u}) {
    EclatConfig eclat_config;
    eclat_config.minsup = minsup;
    AprioriConfig apriori_config;
    apriori_config.minsup = minsup;
    EXPECT_TRUE(same_itemsets(eclat_sequential(db, eclat_config),
                              apriori(db, apriori_config)))
        << "minsup=" << minsup;
  }
}

constexpr IntersectKernel kAllKernels[] = {IntersectKernel::kMerge,
                                           IntersectKernel::kMergeShortCircuit,
                                           IntersectKernel::kAuto};

// The kernel picks how a join is computed, never which joins run: the
// recursion's shape, its intersection and support-only counts, is the
// reference kernel's under every kernel.
TEST(EclatSeq, AllKernelsAgree) {
  const HorizontalDatabase db = small_quest_db();
  EclatConfig config;
  config.minsup = 5;
  IntersectStats reference_stats;
  const MiningResult reference = eclat_sequential(db, config, &reference_stats);
  ASSERT_GT(reference_stats.count_only, 0u);
  for (IntersectKernel kernel : kAllKernels) {
    config.kernel = kernel;
    IntersectStats stats;
    const MiningResult result = eclat_sequential(db, config, &stats);
    EXPECT_TRUE(same_itemsets(reference, result)) << kernel_name(kernel);
    // Beyond set equality: identical ordering and supports end to end.
    EXPECT_EQ(reference.itemsets, result.itemsets) << kernel_name(kernel);
    EXPECT_EQ(stats.intersections, reference_stats.intersections)
        << kernel_name(kernel);
    EXPECT_EQ(stats.count_only, reference_stats.count_only)
        << kernel_name(kernel);
  }
}

TEST(EclatSeq, AllKernelsAgreeWithDiffsets) {
  const HorizontalDatabase db = small_quest_db();
  EclatConfig config;
  config.minsup = 5;
  const MiningResult reference = eclat_sequential(db, config);
  config.use_diffsets = true;
  IntersectStats reference_stats;
  ASSERT_EQ(eclat_sequential(db, config, &reference_stats).itemsets,
            reference.itemsets);
  ASSERT_GT(reference_stats.intersections, 0u);
  for (IntersectKernel kernel : kAllKernels) {
    config.kernel = kernel;
    IntersectStats stats;
    const MiningResult result = eclat_sequential(db, config, &stats);
    EXPECT_EQ(reference.itemsets, result.itemsets) << kernel_name(kernel);
    EXPECT_EQ(stats.intersections, reference_stats.intersections)
        << kernel_name(kernel);
    EXPECT_EQ(stats.count_only, reference_stats.count_only)
        << kernel_name(kernel);
  }
}

// The seed's recursive formulation of Compute_Frequent (heap-allocated
// child classes, plain intersections), kept as the oracle the arena-backed
// recursion must match *byte for byte* — same itemsets, same order, same
// supports, same histogram — with either join: tid-list intersections or
// dEclat's diffsets.
void reference_compute_frequent(const std::vector<Atom>& class_atoms,
                                Count minsup,
                                std::vector<FrequentItemset>& out,
                                std::vector<std::size_t>& size_histogram) {
  if (class_atoms.size() < 2) return;
  for (std::size_t i = 0; i + 1 < class_atoms.size(); ++i) {
    std::vector<Atom> child_class;
    for (std::size_t j = i + 1; j < class_atoms.size(); ++j) {
      TidList tids = intersect(class_atoms[i].tids, class_atoms[j].tids);
      if (tids.size() < minsup) continue;
      Atom child;
      child.items = class_atoms[i].items;
      child.items.push_back(class_atoms[j].items.back());
      child.tids = std::move(tids);
      const std::size_t size = child.items.size();
      if (size_histogram.size() <= size) size_histogram.resize(size + 1, 0);
      ++size_histogram[size];
      out.push_back(FrequentItemset{child.items, child.support()});
      child_class.push_back(std::move(child));
    }
    reference_compute_frequent(child_class, minsup, out, size_histogram);
  }
}

TEST(ComputeFrequent, ArenaOutputByteIdenticalToReferenceAcrossKernels) {
  Rng rng(2024);
  TidArena arena;  // shared across trials: reuse must not leak state
  for (int trial = 0; trial < 20; ++trial) {
    // A random class of 2..7 atoms over a universe that puts some lists
    // on each side of the density threshold.
    const std::size_t n_atoms = 2 + static_cast<std::size_t>(rng.below(6));
    const Tid universe = 64 + static_cast<Tid>(rng.below(400));
    std::vector<Atom> atoms;
    for (std::size_t m = 0; m < n_atoms; ++m) {
      TidList tids;
      const double density = 0.05 + 0.9 * rng.uniform();
      for (Tid t = 0; t < universe; ++t) {
        if (rng.uniform() < density) tids.push_back(t);
      }
      if (tids.empty()) tids.push_back(static_cast<Tid>(m));
      atoms.push_back(Atom{{7, static_cast<Item>(10 + m)}, std::move(tids)});
    }
    const Count minsup = 1 + static_cast<Count>(rng.below(universe / 4));

    std::vector<FrequentItemset> expected;
    std::vector<std::size_t> expected_histogram;
    reference_compute_frequent(atoms, minsup, expected, expected_histogram);

    for (IntersectKernel kernel : kAllKernels) {
      std::vector<FrequentItemset> found;
      std::vector<std::size_t> histogram;
      compute_frequent(atoms, minsup, kernel, arena, found, histogram);
      EXPECT_EQ(found, expected) << kernel_name(kernel);
      EXPECT_EQ(histogram, expected_histogram) << kernel_name(kernel);

      std::vector<FrequentItemset> diffset_found;
      std::vector<std::size_t> diffset_histogram;
      compute_frequent_diffsets(atoms, minsup, kernel, arena, diffset_found,
                                diffset_histogram);
      EXPECT_EQ(diffset_found, expected) << "diffsets " << kernel_name(kernel);
      EXPECT_EQ(diffset_histogram, expected_histogram)
          << "diffsets " << kernel_name(kernel);
    }
  }
}

TEST(EclatSeq, PaperModeSkipsSingletons) {
  EclatConfig config;
  config.minsup = 4;
  config.include_singletons = false;
  const MiningResult result = eclat_sequential(handmade_db(), config);
  EXPECT_EQ(result.count_of_size(1), 0u);
  EXPECT_GT(result.count_of_size(2), 0u);
}

TEST(EclatSeq, TwoHorizontalScansOnly) {
  EclatConfig config;
  config.minsup = 4;
  const MiningResult result = eclat_sequential(handmade_db(), config);
  // The paper's claim: L2 counting scan + transformation scan. (The third
  // scan of the parallel algorithm reads the *vertical* data from local
  // disk; in memory it is the mining pass itself.)
  EXPECT_EQ(result.database_scans, 2u);
}

TEST(EclatSeq, EmptyAndDegenerateDatabases) {
  EclatConfig config;
  config.minsup = 1;
  EXPECT_TRUE(eclat_sequential(HorizontalDatabase{}, config)
                  .itemsets.empty());

  // Single transaction, single item.
  const HorizontalDatabase db = testutil::database_of({{0, {0}}}, 1);
  const MiningResult result = eclat_sequential(db, config);
  ASSERT_EQ(result.itemsets.size(), 1u);
  EXPECT_EQ(testutil::items_of(result.itemsets[0].items), (Itemset{0}));
}

TEST(EclatSeq, IntersectStatsPopulated) {
  IntersectStats stats;
  EclatConfig config;
  config.minsup = 4;
  eclat_sequential(handmade_db(), config, &stats);
  EXPECT_GT(stats.intersections, 0u);
  EXPECT_GT(stats.tids_scanned, 0u);
}

}  // namespace
}  // namespace eclat
