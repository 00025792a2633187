// Randomized differential testing: every sequential algorithm in the
// library must produce the identical frequent-itemset family on randomly
// parameterized databases. Any divergence pinpoints a bug in exactly one
// implementation (they share almost no code paths: hash trees vs tid-list
// intersections vs diffsets vs chunked local mining vs hash filtering vs
// clique clustering).
#include <gtest/gtest.h>

#include "apriori/apriori.hpp"
#include "apriori/dhp.hpp"
#include "clique/clique_eclat.hpp"
#include "common/rng.hpp"
#include "eclat/eclat_seq.hpp"
#include "eclat/max_eclat.hpp"
#include "partition/partition.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

struct DifferentialCase {
  std::uint64_t seed;
  std::size_t transactions;
  Item items;
  std::size_t patterns;
  double pattern_length;
  double transaction_length;
  Count minsup;
};

/// Derive a pseudo-random but reproducible case from an index.
DifferentialCase make_case(std::uint64_t index) {
  Rng rng(0xD1FFu * (index + 1));
  DifferentialCase c;
  c.seed = rng.next();
  c.transactions = 150 + rng.below(400);
  c.items = static_cast<Item>(12 + rng.below(40));
  c.patterns = 4 + rng.below(12);
  c.pattern_length = 2.0 + rng.uniform() * 3.0;
  c.transaction_length = 4.0 + rng.uniform() * 5.0;
  c.minsup = static_cast<Count>(3 + rng.below(12));
  return c;
}

HorizontalDatabase make_db(const DifferentialCase& c) {
  gen::QuestConfig config;
  config.num_transactions = c.transactions;
  config.num_items = c.items;
  config.num_patterns = c.patterns;
  config.avg_pattern_length = c.pattern_length;
  config.avg_transaction_length = c.transaction_length;
  config.seed = c.seed;
  return gen::QuestGenerator(config).generate();
}

class DifferentialSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSweep, AllSequentialAlgorithmsAgree) {
  const DifferentialCase c = make_case(GetParam());
  const HorizontalDatabase db = make_db(c);

  AprioriConfig apriori_config;
  apriori_config.minsup = c.minsup;
  const MiningResult reference = apriori(db, apriori_config);

  {
    EclatConfig config;
    config.minsup = c.minsup;
    EXPECT_TRUE(
        testutil::same_itemsets(eclat_sequential(db, config), reference))
        << "eclat tidsets";
  }
  {
    EclatConfig config;
    config.minsup = c.minsup;
    config.use_diffsets = true;
    EXPECT_TRUE(
        testutil::same_itemsets(eclat_sequential(db, config), reference))
        << "eclat diffsets";
  }
  {
    EclatConfig config;
    config.minsup = c.minsup;
    config.kernel = IntersectKernel::kAuto;
    EXPECT_TRUE(
        testutil::same_itemsets(eclat_sequential(db, config), reference))
        << "eclat auto";
  }
  {
    EclatConfig config;
    config.minsup = c.minsup;
    config.kernel = IntersectKernel::kAuto;
    config.use_diffsets = true;
    EXPECT_TRUE(
        testutil::same_itemsets(eclat_sequential(db, config), reference))
        << "eclat auto diffsets";
  }
  {
    DhpConfig config;
    config.minsup = c.minsup;
    config.hash_buckets = 512;  // heavy collisions on purpose
    EXPECT_TRUE(testutil::same_itemsets(dhp(db, config), reference))
        << "dhp";
  }
  {
    PartitionConfig config;
    config.minsup = c.minsup;
    config.chunks = 1 + GetParam() % 7;
    EXPECT_TRUE(
        testutil::same_itemsets(partition_mine(db, config), reference))
        << "partition";
  }
  {
    CliqueEclatConfig config;
    config.minsup = c.minsup;
    EXPECT_TRUE(testutil::same_itemsets(clique_eclat(db, config), reference))
        << "clique";
  }
  {
    // MaxEclat must equal the maximal elements of the reference.
    MaxEclatConfig config;
    config.minsup = c.minsup;
    const MiningResult maximal = max_eclat(db, config);
    const auto expected = maximal_of(reference);
    ASSERT_EQ(maximal.itemsets.size(), expected.size()) << "max-eclat";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(maximal.itemsets[i], expected[i]) << "max-eclat " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, DifferentialSweep,
                         ::testing::Range<std::uint64_t>(0, 12));

}  // namespace
}  // namespace eclat
