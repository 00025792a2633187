#include "eclat/equivalence.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace eclat {
namespace {

std::vector<PairKey> paper_l2() {
  // Paper §4.1: L2 = {AB, AC, AD, AE, BC, BD, BE, DE}, A=0..E=4.
  return {make_pair_key(0, 1), make_pair_key(0, 2), make_pair_key(0, 3),
          make_pair_key(0, 4), make_pair_key(1, 2), make_pair_key(1, 3),
          make_pair_key(1, 4), make_pair_key(3, 4)};
}

TEST(EquivalenceClass, PartitionMatchesPaperExample) {
  // Expected: S_A = {AB, AC, AD, AE}, S_B = {BC, BD, BE}, S_D = {DE}.
  const auto classes = partition_into_classes(paper_l2());
  ASSERT_EQ(classes.size(), 3u);
  EXPECT_EQ(classes[0].prefix, 0u);
  EXPECT_EQ(classes[0].members, (std::vector<Item>{1, 2, 3, 4}));
  EXPECT_EQ(classes[1].prefix, 1u);
  EXPECT_EQ(classes[1].members, (std::vector<Item>{2, 3, 4}));
  EXPECT_EQ(classes[2].prefix, 3u);
  EXPECT_EQ(classes[2].members, (std::vector<Item>{4}));
}

TEST(EquivalenceClass, WeightsAreChoose2) {
  const auto classes = partition_into_classes(paper_l2());
  EXPECT_EQ(classes[0].weight(), 6u);  // C(4,2)
  EXPECT_EQ(classes[1].weight(), 3u);  // C(3,2)
  EXPECT_EQ(classes[2].weight(), 0u);  // singleton: no candidates
}

TEST(EquivalenceClass, PairKeysRebuildOriginalPairs) {
  const auto classes = partition_into_classes(paper_l2());
  std::vector<PairKey> rebuilt;
  for (const auto& eq_class : classes) {
    const auto keys = eq_class.pair_keys();
    rebuilt.insert(rebuilt.end(), keys.begin(), keys.end());
  }
  EXPECT_EQ(rebuilt, paper_l2());
}

TEST(EquivalenceClass, PartitionRejectsUnsortedInput) {
  std::vector<PairKey> unsorted = {make_pair_key(2, 3), make_pair_key(0, 1)};
  EXPECT_THROW(partition_into_classes(unsorted), std::invalid_argument);
}

TEST(EquivalenceClass, EmptyInputGivesNoClasses) {
  EXPECT_TRUE(partition_into_classes(std::vector<PairKey>{}).empty());
}

TEST(EquivalenceClass, MinedPairsSkipSingletonClasses) {
  // S_D = {DE} generates no candidates, so its list is never needed.
  const auto classes = partition_into_classes(paper_l2());
  std::vector<PairKey> expected = paper_l2();
  expected.pop_back();
  EXPECT_EQ(mined_pairs(classes), expected);
}

TEST(EquivalenceClass, AtomsByClassMoveContiguousRuns) {
  const auto classes = partition_into_classes(paper_l2());
  std::vector<TidList> lists;
  for (Tid t = 0; t < 7; ++t) lists.push_back({t, t + 10});
  const std::vector<std::vector<Atom>> atoms = atoms_by_class(classes, lists);
  ASSERT_EQ(atoms.size(), 3u);
  ASSERT_EQ(atoms[0].size(), 4u);
  ASSERT_EQ(atoms[1].size(), 3u);
  EXPECT_TRUE(atoms[2].empty());  // singleton class
  EXPECT_EQ(atoms[0][3].items, (Itemset{0, 4}));
  EXPECT_EQ(atoms[0][3].tids, (TidList{3, 13}));
  EXPECT_EQ(atoms[1][0].items, (Itemset{1, 2}));
  EXPECT_EQ(atoms[1][0].tids, (TidList{4, 14}));
  for (const TidList& list : lists) EXPECT_TRUE(list.empty());  // moved out
}

TEST(ScheduleGreedy, AssignsHeaviestFirstToLeastLoaded) {
  std::vector<EquivalenceClass> classes = {
      {0, {1, 2, 3, 4}},  // weight 6
      {1, {2, 3, 4}},     // weight 3
      {2, {3, 4}},        // weight 1
      {3, {4}},           // weight 0
  };
  const auto assignment = schedule_greedy(classes, 2);
  // Heaviest (6) -> proc 0; next (3) -> proc 1; next (1) -> proc 1 (load 3
  // < 6); weight-0 -> proc 1 (load 4 < 6).
  EXPECT_EQ(assignment[0], 0u);
  EXPECT_EQ(assignment[1], 1u);
  EXPECT_EQ(assignment[2], 1u);
  EXPECT_EQ(assignment[3], 1u);
}

TEST(ScheduleGreedy, TiesGoToSmallerProcessorId) {
  std::vector<EquivalenceClass> classes = {
      {0, {1, 2}},  // weight 1
      {1, {2, 3}},  // weight 1
  };
  const auto assignment = schedule_greedy(classes, 3);
  EXPECT_EQ(assignment[0], 0u);  // all empty: smallest id wins
  EXPECT_EQ(assignment[1], 1u);  // proc 0 now loaded; tie between 1 and 2
}

TEST(ScheduleGreedy, SingleProcessorTakesEverything) {
  std::vector<EquivalenceClass> classes = {{0, {1, 2}}, {1, {2, 3}}};
  const auto assignment = schedule_greedy(classes, 1);
  for (std::size_t owner : assignment) EXPECT_EQ(owner, 0u);
}

TEST(ScheduleGreedy, RejectsZeroProcessors) {
  std::vector<EquivalenceClass> classes = {{0, {1}}};
  EXPECT_THROW(schedule_greedy(classes, 0), std::invalid_argument);
}

TEST(ScheduleGreedy, BalancesBetterThanRoundRobinOnSkewedClasses) {
  // Many small classes and a few huge ones, adversarially ordered so
  // round-robin piles the big ones onto the same processor.
  std::vector<EquivalenceClass> classes;
  for (int rep = 0; rep < 8; ++rep) {
    EquivalenceClass big{0, {}};
    for (Item m = 1; m <= 20; ++m) big.members.push_back(m);
    classes.push_back(big);  // weight 190
    for (int s = 0; s < 3; ++s) {
      classes.push_back(EquivalenceClass{1, {2, 3}});  // weight 1
    }
  }
  const std::size_t procs = 4;
  const auto greedy = schedule_greedy(classes, procs);
  const auto rr = schedule_round_robin(classes, procs);
  const auto load_imbalance = [&](const std::vector<std::size_t>& assign) {
    const auto loads = processor_loads(classes, assign, procs);
    const std::size_t max =
        *std::max_element(loads.begin(), loads.end());
    const std::size_t total =
        std::accumulate(loads.begin(), loads.end(), std::size_t{0});
    return static_cast<double>(max) * procs / static_cast<double>(total);
  };
  EXPECT_LT(load_imbalance(greedy), load_imbalance(rr));
  EXPECT_NEAR(load_imbalance(greedy), 1.0, 0.05);
}

TEST(ScheduleRoundRobin, CyclesThroughProcessors) {
  std::vector<EquivalenceClass> classes(7, EquivalenceClass{0, {1, 2}});
  const auto assignment = schedule_round_robin(classes, 3);
  const std::vector<std::size_t> expected = {0, 1, 2, 0, 1, 2, 0};
  EXPECT_EQ(assignment, expected);
}

TEST(ScheduleGreedyByWeight, HonorsExplicitWeights) {
  const std::vector<std::size_t> weights = {10, 1, 1, 1, 1, 1, 1, 1, 1, 1};
  const auto assignment = schedule_greedy_by_weight(weights, 2);
  // Heavy class alone on processor 0, all the light ones on processor 1.
  EXPECT_EQ(assignment[0], 0u);
  std::size_t on_one = 0;
  for (std::size_t i = 1; i < weights.size(); ++i) {
    if (assignment[i] == 1) ++on_one;
  }
  EXPECT_GE(on_one, 8u);
}

TEST(SupportWeight, SumsPairwiseMinSupports) {
  // Build a counter with known pair supports: sup(0,1)=10, sup(0,2)=4,
  // sup(0,3)=7.
  TriangleCounter counter(4);
  DatabaseBuilder builder;
  Tid tid = 0;
  auto add_pairs = [&](Item a, Item b, int times) {
    for (int i = 0; i < times; ++i) builder.add(tid++, Itemset{a, b});
  };
  add_pairs(0, 1, 10);
  add_pairs(0, 2, 4);
  add_pairs(0, 3, 7);
  const HorizontalDatabase db = std::move(builder).finish(4);
  counter.count(db.transactions());

  EquivalenceClass eq_class{0, {1, 2, 3}};
  // Pairs (1,2): min(10,4)=4; (1,3): min(10,7)=7; (2,3): min(4,7)=4.
  EXPECT_EQ(support_weight(eq_class, counter), 4u + 7 + 4);
}

TEST(SupportWeight, SingletonClassIsZero) {
  TriangleCounter counter(3);
  EquivalenceClass eq_class{0, {1}};
  EXPECT_EQ(support_weight(eq_class, counter), 0u);
}

TEST(ProcessorLoads, SumsWeightsPerOwner) {
  std::vector<EquivalenceClass> classes = {
      {0, {1, 2, 3}},  // weight 3
      {1, {2, 3}},     // weight 1
      {2, {3, 4}},     // weight 1
  };
  const std::vector<std::size_t> assignment = {0, 1, 0};
  const auto loads = processor_loads(classes, assignment, 2);
  EXPECT_EQ(loads[0], 4u);
  EXPECT_EQ(loads[1], 1u);
}

}  // namespace
}  // namespace eclat
