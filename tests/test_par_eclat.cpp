#include "parallel/par_eclat.hpp"

#include <gtest/gtest.h>

#include <string>

#include "eclat/eclat_seq.hpp"
#include "test_util.hpp"

namespace eclat::par {
namespace {

using testutil::handmade_db;
using testutil::same_itemsets;
using testutil::small_quest_db;

TEST(ParEclat, SingleProcessorMatchesSequentialEclat) {
  const HorizontalDatabase db = small_quest_db();
  mc::Cluster cluster(mc::Topology{1, 1});
  ParEclatConfig config;
  config.minsup = 5;
  const ParallelOutput output = par_eclat(cluster, db, config);

  EclatConfig sequential;
  sequential.minsup = 5;
  EXPECT_TRUE(same_itemsets(output.result, eclat_sequential(db, sequential)));
}

class ParEclatTopology : public ::testing::TestWithParam<mc::Topology> {};

TEST_P(ParEclatTopology, ResultIndependentOfTopology) {
  const HorizontalDatabase db = small_quest_db(400, 30, 17);
  EclatConfig sequential;
  sequential.minsup = 6;
  const MiningResult reference = eclat_sequential(db, sequential);

  mc::Cluster cluster(GetParam());
  ParEclatConfig config;
  config.minsup = 6;
  const ParallelOutput output = par_eclat(cluster, db, config);
  EXPECT_TRUE(same_itemsets(output.result, reference)) << GetParam().label();
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, ParEclatTopology,
    ::testing::Values(mc::Topology{1, 1}, mc::Topology{1, 2},
                      mc::Topology{2, 1}, mc::Topology{2, 2},
                      mc::Topology{4, 2}, mc::Topology{2, 4},
                      mc::Topology{8, 1}, mc::Topology{8, 4}),
    [](const auto& info) {
      return testutil::topology_test_name(info.param);
    });

TEST(ParEclat, AllScheduleHeuristicsSameAnswer) {
  const HorizontalDatabase db = small_quest_db();
  ParEclatConfig greedy;
  greedy.minsup = 5;
  greedy.schedule = ScheduleHeuristic::kGreedyWeight;
  mc::Cluster a(mc::Topology{2, 2});
  const MiningResult reference = par_eclat(a, db, greedy).result;

  for (const ScheduleHeuristic heuristic :
       {ScheduleHeuristic::kRoundRobin, ScheduleHeuristic::kGreedySupport}) {
    ParEclatConfig config;
    config.minsup = 5;
    config.schedule = heuristic;
    mc::Cluster b(mc::Topology{2, 2});
    EXPECT_TRUE(same_itemsets(par_eclat(b, db, config).result, reference))
        << static_cast<int>(heuristic);
  }
}

TEST(ParEclat, PaperModeSkipsSingletons) {
  const HorizontalDatabase db = handmade_db();
  mc::Cluster cluster(mc::Topology{2, 1});
  ParEclatConfig config;
  config.minsup = 4;
  config.include_singletons = false;
  const ParallelOutput output = par_eclat(cluster, db, config);
  EXPECT_EQ(output.result.count_of_size(1), 0u);
  EXPECT_GT(output.result.count_of_size(2), 0u);
}

TEST(ParEclat, ReportsAllFourPhases) {
  const HorizontalDatabase db = small_quest_db();
  mc::Cluster cluster(mc::Topology{2, 2});
  ParEclatConfig config;
  config.minsup = 5;
  const ParallelOutput output = par_eclat(cluster, db, config);
  ASSERT_EQ(output.phase_seconds.size(), 4u);
  for (const char* phase : {"initialization", "transformation",
                            "asynchronous", "reduction"}) {
    ASSERT_TRUE(output.phase_seconds.count(phase)) << phase;
    EXPECT_GE(output.phase_seconds.at(phase), 0.0) << phase;
  }
  const double sum = output.phase_seconds.at("initialization") +
                     output.phase_seconds.at("transformation") +
                     output.phase_seconds.at("asynchronous") +
                     output.phase_seconds.at("reduction");
  EXPECT_NEAR(sum, output.total_seconds, 1e-9);
  EXPECT_NEAR(output.setup_seconds(),
              output.phase_seconds.at("initialization") +
                  output.phase_seconds.at("transformation"),
              1e-12);
}

TEST(ParEclat, ThreeScansClaim) {
  const HorizontalDatabase db = small_quest_db();
  mc::Cluster cluster(mc::Topology{2, 2});
  ParEclatConfig config;
  config.minsup = 5;
  const ParallelOutput output = par_eclat(cluster, db, config);
  EXPECT_EQ(output.result.database_scans, 3u);
}

TEST(ParEclat, DeterministicMakespan) {
  const HorizontalDatabase db = small_quest_db();
  ParEclatConfig config;
  config.minsup = 5;
  // Virtual time is dominated by modeled costs; repeated runs must agree
  // on the communication/disk part. Compute time is measured, so allow a
  // modest tolerance.
  mc::Cluster a(mc::Topology{2, 2});
  mc::Cluster b(mc::Topology{2, 2});
  const double first = par_eclat(a, db, config).total_seconds;
  const double second = par_eclat(b, db, config).total_seconds;
  EXPECT_NEAR(first, second, 0.5 * std::max(first, second));
}

TEST(ParEclat, NoFrequentPairsStillTerminates) {
  // Every item appears once: no frequent 2-itemsets at minsup 2.
  DatabaseBuilder builder;
  for (Tid t = 0; t < 8; ++t) {
    builder.add(t, Itemset{static_cast<Item>(2 * t),
                           static_cast<Item>(2 * t + 1)});
  }
  const HorizontalDatabase db = std::move(builder).finish(16);
  mc::Cluster cluster(mc::Topology{2, 2});
  ParEclatConfig config;
  config.minsup = 2;
  const ParallelOutput output = par_eclat(cluster, db, config);
  EXPECT_EQ(output.result.count_of_size(2), 0u);
  EXPECT_EQ(output.result.count_of_size(3), 0u);
}

TEST(ParEclat, McTrafficIsAccounted) {
  const HorizontalDatabase db = small_quest_db();
  mc::Cluster cluster(mc::Topology{2, 2});
  ParEclatConfig config;
  config.minsup = 5;
  const ParallelOutput output = par_eclat(cluster, db, config);
  EXPECT_GT(output.mc_bytes, 0u);
  EXPECT_GT(output.mc_messages, 0u);
}

}  // namespace
}  // namespace eclat::par
