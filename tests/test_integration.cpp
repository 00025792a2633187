// Cross-module integration: every algorithm in the library must produce
// the identical set of frequent itemsets on the same data, across supports
// and cluster topologies; the public API facade must drive them all.
#include <gtest/gtest.h>

#include "api/mining.hpp"
#include "apriori/apriori.hpp"
#include "clique/clique_eclat.hpp"
#include "data/io.hpp"
#include "data/result_io.hpp"
#include "eclat/eclat_seq.hpp"
#include "eclat/max_eclat.hpp"
#include "exec/thread_backend.hpp"
#include "parallel/candidate_distribution.hpp"
#include "parallel/data_distribution.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::same_itemsets;

// gtest names each case by the raw bytes of its parameter, so the struct
// must have no padding: `items` is 64-bit to keep every byte initialised
// and the test names stable from build to build.
struct CrossParam {
  std::size_t transactions;
  std::uint64_t items;
  std::uint64_t seed;
  Count minsup;
};
static_assert(sizeof(CrossParam) == 4 * sizeof(std::uint64_t),
              "CrossParam must have no padding bytes");

class AllAlgorithmsAgree : public ::testing::TestWithParam<CrossParam> {};

TEST_P(AllAlgorithmsAgree, OnGeneratedDatabases) {
  const CrossParam param = GetParam();
  const HorizontalDatabase db =
      testutil::small_quest_db(param.transactions,
                               static_cast<Item>(param.items), param.seed);

  AprioriConfig apriori_config;
  apriori_config.minsup = param.minsup;
  const MiningResult reference = apriori(db, apriori_config);

  EclatConfig eclat_config;
  eclat_config.minsup = param.minsup;
  EXPECT_TRUE(same_itemsets(eclat_sequential(db, eclat_config), reference))
      << "sequential eclat";

  const mc::Topology topology{2, 2};
  {
    mc::Cluster cluster(topology);
    par::ParEclatConfig config;
    config.minsup = param.minsup;
    EXPECT_TRUE(
        same_itemsets(par::par_eclat(cluster, db, config).result, reference))
        << "parallel eclat";
  }
  {
    mc::Cluster cluster(topology);
    par::CountDistributionConfig config;
    config.minsup = param.minsup;
    EXPECT_TRUE(same_itemsets(
        par::count_distribution(cluster, db, config).result, reference))
        << "count distribution";
  }
  {
    mc::Cluster cluster(topology);
    par::CandidateDistributionConfig config;
    config.minsup = param.minsup;
    EXPECT_TRUE(same_itemsets(
        par::candidate_distribution(cluster, db, config).result, reference))
        << "candidate distribution";
  }
  {
    mc::Cluster cluster(topology);
    par::DataDistributionConfig config;
    config.minsup = param.minsup;
    EXPECT_TRUE(same_itemsets(
        par::data_distribution(cluster, db, config).result, reference))
        << "data distribution";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllAlgorithmsAgree,
    ::testing::Values(CrossParam{250, 20, 1, 4}, CrossParam{400, 30, 2, 6},
                      CrossParam{300, 25, 3, 3}, CrossParam{500, 40, 4, 10},
                      CrossParam{200, 15, 5, 2}));

TEST(ApiFacade, MineRunsEveryAlgorithm) {
  const HorizontalDatabase db = testutil::small_quest_db();
  api::MineOptions options;
  options.min_support = 0.02;

  options.algorithm = api::Algorithm::kApriori;
  const MiningResult reference = api::mine(db, options);
  EXPECT_FALSE(reference.itemsets.empty());

  for (const api::Algorithm algorithm :
       {api::Algorithm::kEclat, api::Algorithm::kEclatDiffsets,
        api::Algorithm::kDhp, api::Algorithm::kPartition,
        api::Algorithm::kParEclat, api::Algorithm::kHybridEclat,
        api::Algorithm::kCountDistribution}) {
    options.algorithm = algorithm;
    options.topology = mc::Topology{2, 2};
    const MiningResult result = api::mine(db, options);
    MiningResult a = reference;
    MiningResult b = result;
    EXPECT_TRUE(same_itemsets(a, b))
        << static_cast<int>(algorithm);
  }
}

TEST(ApiFacade, MineWithStatsReportsTimeForParallelRuns) {
  const HorizontalDatabase db = testutil::small_quest_db();
  api::MineOptions options;
  options.min_support = 0.02;
  options.algorithm = api::Algorithm::kParEclat;
  options.topology = mc::Topology{2, 2};
  const par::ParallelOutput output = api::mine_with_stats(db, options);
  EXPECT_GT(output.total_seconds, 0.0);
  EXPECT_FALSE(output.result.itemsets.empty());
}

TEST(ApiFacade, MineRulesEndToEnd) {
  const HorizontalDatabase db = testutil::small_quest_db();
  api::MineOptions options;
  options.min_support = 0.02;
  const auto rules = api::mine_rules(db, options, 0.7);
  for (const AssociationRule& rule : rules) {
    EXPECT_GE(rule.confidence, 0.7);
  }
}

TEST(ApiFacade, ParseAlgorithmNames) {
  EXPECT_EQ(api::parse_algorithm("eclat"), api::Algorithm::kEclat);
  EXPECT_EQ(api::parse_algorithm("declat"), api::Algorithm::kEclatDiffsets);
  EXPECT_EQ(api::parse_algorithm("apriori"), api::Algorithm::kApriori);
  EXPECT_EQ(api::parse_algorithm("dhp"), api::Algorithm::kDhp);
  EXPECT_EQ(api::parse_algorithm("partition"), api::Algorithm::kPartition);
  EXPECT_EQ(api::parse_algorithm("pareclat"), api::Algorithm::kParEclat);
  EXPECT_EQ(api::parse_algorithm("hybrid"), api::Algorithm::kHybridEclat);
  EXPECT_EQ(api::parse_algorithm("cd"),
            api::Algorithm::kCountDistribution);
  EXPECT_THROW(api::parse_algorithm("nope"), std::invalid_argument);
}

TEST(Integration, MiningSurvivesBinaryRoundTrip) {
  // Generate -> serialize -> parse -> mine must equal mining the original.
  const HorizontalDatabase db = testutil::small_quest_db();
  std::stringstream stream;
  write_binary(db, stream);
  const HorizontalDatabase copy = read_binary(stream);

  EclatConfig config;
  config.minsup = 5;
  EXPECT_TRUE(same_itemsets(eclat_sequential(db, config),
                            eclat_sequential(copy, config)));
}

TEST(Integration, DownwardClosureHoldsOnAllResults) {
  // Property: every subset of a frequent itemset is frequent with at least
  // the same support (the Apriori property the whole field rests on).
  const HorizontalDatabase db = testutil::small_quest_db(500, 30, 9);
  EclatConfig config;
  config.minsup = 5;
  const MiningResult result = eclat_sequential(db, config);
  const SupportIndex index(result);
  for (const FrequentItemset& f : result.itemsets) {
    if (f.items.size() < 2) continue;
    for (std::size_t drop = 0; drop < f.items.size(); ++drop) {
      Itemset subset;
      for (std::size_t i = 0; i < f.items.size(); ++i) {
        if (i != drop) subset.push_back(f.items[i]);
      }
      const Count subset_support = index.support(subset);
      EXPECT_GE(subset_support, f.support)
          << to_string(f.items) << " vs " << to_string(subset);
      EXPECT_GT(subset_support, 0u);
    }
  }
}

// A large item universe: a T10.I4 database over N = 1000 items and its
// image with every item id multiplied by kSpread, over 200,000 items.
// Counting all C(N,2) pairs of the image would take 2.0e10 cells
// (160 GB); the native paths count pairs of frequent items only, so each
// must mine the image of its own N = 1000 result in small memory.
class LargeItemUniverse : public ::testing::Test {
 protected:
  static constexpr Item kSpread = 200;
  static constexpr Count kMinsup = 20;  // 0.67%: 678 of 1000 items frequent

  LargeItemUniverse() : small_(t10i4()), large_(spread(small_)) {}

  static HorizontalDatabase t10i4() {
    gen::QuestConfig config;
    config.num_transactions = 3000;
    config.avg_transaction_length = 10;
    config.avg_pattern_length = 4;
    config.num_items = 1000;
    config.num_patterns = 2000;
    config.seed = 17;
    return gen::QuestGenerator(config).generate();
  }

  static HorizontalDatabase spread(const HorizontalDatabase& db) {
    DatabaseBuilder builder;
    Itemset items;
    for (const Transaction& t : db.transactions()) {
      items.assign(t.items.begin(), t.items.end());
      for (Item& item : items) item *= kSpread;
      builder.add(t.tid, items);
    }
    return std::move(builder).finish(db.num_items() * kSpread);
  }

  // The bytes of `small`'s image, after checking it found 3-itemsets.
  static std::vector<std::uint8_t> image(MiningResult small) {
    EXPECT_GT(small.count_of_size(3), 0u);
    for (std::size_t i = 0; i < small.itemsets.size(); ++i) {
      for (Item& item : small.itemsets.items_at(i)) item *= kSpread;
    }
    return result_to_bytes(small);
  }

  const HorizontalDatabase small_;
  const HorizontalDatabase large_;
};

TEST_F(LargeItemUniverse, SequentialEclatWithTidsetsAndDiffsets) {
  ASSERT_EQ(large_.num_items(), 200'000u);
  for (bool diffsets : {false, true}) {
    EclatConfig config;
    config.minsup = kMinsup;
    config.use_diffsets = diffsets;
    EXPECT_EQ(result_to_bytes(eclat_sequential(large_, config)),
              image(eclat_sequential(small_, config)))
        << "diffsets=" << diffsets;
  }
}

TEST_F(LargeItemUniverse, Apriori) {
  AprioriConfig config;
  config.minsup = kMinsup;
  EXPECT_EQ(result_to_bytes(apriori(large_, config)),
            image(apriori(small_, config)));
}

TEST_F(LargeItemUniverse, MaxEclat) {
  MaxEclatConfig config;
  config.minsup = kMinsup;
  EXPECT_EQ(result_to_bytes(max_eclat(large_, config)),
            image(max_eclat(small_, config)));
}

TEST_F(LargeItemUniverse, CliqueEclat) {
  CliqueEclatConfig config;
  config.minsup = kMinsup;
  EXPECT_EQ(result_to_bytes(clique_eclat(large_, config)),
            image(clique_eclat(small_, config)));
}

TEST_F(LargeItemUniverse, ThreadBackend) {
  par::ParEclatConfig config;
  config.minsup = kMinsup;
  for (std::size_t threads : {1u, 2u, 3u}) {
    exec::ThreadBackendOptions options;
    options.threads = threads;
    EXPECT_EQ(
        result_to_bytes(exec::thread_eclat(large_, config, options).result),
        image(exec::thread_eclat(small_, config, options).result))
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace eclat
