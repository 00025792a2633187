#include "vertical/vertical_db.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>

#include "apriori/apriori.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "exec/crew.hpp"
#include "gen/quest.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::database_of;

HorizontalDatabase sample_db() {
  return database_of(
      {
          {0, {0, 1, 2}},
          {1, {1, 2}},
          {2, {0, 2}},
          {3, {0, 1, 2, 3}},
      },
      4);
}

// The reference inversion the slot kernel must reproduce: one hash probe
// per 2-subset of every transaction.
std::unordered_map<PairKey, TidList> hash_probe_inversion(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs) {
  std::unordered_map<PairKey, TidList> lists;
  for (PairKey key : pairs) lists.emplace(key, TidList{});
  for (const Transaction& t : transactions) {
    for (std::size_t i = 0; i < t.items.size(); ++i) {
      for (std::size_t j = i + 1; j < t.items.size(); ++j) {
        const auto it = lists.find(make_pair_key(t.items[i], t.items[j]));
        if (it != lists.end()) it->second.push_back(t.tid);
      }
    }
  }
  return lists;
}

// Checks the slot kernel (growing and exact-size) and the keyed adapter
// against the oracle.
void expect_matches_oracle(std::span<const Transaction> transactions,
                           const std::vector<PairKey>& pairs,
                           Item num_items) {
  const auto oracle = hash_probe_inversion(transactions, pairs);
  const PairSlots slots(pairs);
  ASSERT_EQ(slots.size(), pairs.size());
  const std::vector<TidList> grown = slots.invert(transactions);
  TriangleCounter counts(std::max<Item>(num_items, 2));
  counts.count(transactions);
  const std::vector<TidList> exact = slots.invert(transactions, counts);
  const auto keyed = invert_pairs(transactions, pairs);
  ASSERT_EQ(grown.size(), pairs.size());
  ASSERT_EQ(exact.size(), pairs.size());
  ASSERT_EQ(keyed.size(), pairs.size());
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    const TidList& expected = oracle.at(pairs[s]);
    EXPECT_EQ(grown[s], expected) << "slot " << s;
    EXPECT_EQ(exact[s], expected) << "slot " << s;
    EXPECT_EQ(keyed.at(pairs[s]), expected) << "slot " << s;
  }
}

HorizontalDatabase quest_db(std::size_t transactions, Item items,
                            std::uint64_t seed) {
  gen::QuestConfig config;
  config.num_transactions = transactions;
  config.num_items = items;
  config.num_patterns = 20;
  config.avg_pattern_length = 4;
  config.avg_transaction_length = 8;
  config.seed = seed;
  return gen::QuestGenerator(config).generate();
}

// A seeded random, sorted subset of all pairs over `num_items` items.
std::vector<PairKey> random_pairs(Item num_items, double keep,
                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PairKey> pairs;
  for (Item a = 0; a < num_items; ++a) {
    for (Item b = a + 1; b < num_items; ++b) {
      if (rng.uniform() < keep) pairs.push_back(make_pair_key(a, b));
    }
  }
  return pairs;
}

TEST(PairKey, PacksAndUnpacksCanonically) {
  const PairKey key = make_pair_key(3, 9);
  EXPECT_EQ(pair_first(key), 3u);
  EXPECT_EQ(pair_second(key), 9u);
  EXPECT_EQ(make_pair_key(9, 3), key);  // order-insensitive
}

TEST(PairKey, OrdersLexicographically) {
  EXPECT_LT(make_pair_key(1, 2), make_pair_key(1, 3));
  EXPECT_LT(make_pair_key(1, 9), make_pair_key(2, 3));
}

TEST(InvertItems, BuildsSortedTidLists) {
  const HorizontalDatabase db = sample_db();
  const std::span<const Transaction> transactions(db.transactions());
  const std::vector<TidList> lists = invert_items(transactions, 4);
  ASSERT_EQ(lists.size(), 4u);
  EXPECT_EQ(lists[0], (TidList{0, 2, 3}));
  EXPECT_EQ(lists[1], (TidList{0, 1, 3}));
  EXPECT_EQ(lists[2], (TidList{0, 1, 2, 3}));
  EXPECT_EQ(lists[3], (TidList{3}));
}

TEST(InvertPairs, BuildsOnlyRequestedPairs) {
  const HorizontalDatabase db = sample_db();
  const std::span<const Transaction> transactions(db.transactions());
  const std::vector<PairKey> pairs = {make_pair_key(0, 1),
                                      make_pair_key(1, 2)};
  const auto lists = invert_pairs(transactions, pairs);
  ASSERT_EQ(lists.size(), 2u);
  EXPECT_EQ(lists.at(make_pair_key(0, 1)), (TidList{0, 3}));
  EXPECT_EQ(lists.at(make_pair_key(1, 2)), (TidList{0, 1, 3}));
}

TEST(InvertPairs, PairTidlistEqualsItemTidlistIntersection) {
  // Property: for any pair {a,b}, tidlist(ab) == tidlist(a) ∩ tidlist(b).
  const HorizontalDatabase db = [&] {
    gen::QuestConfig config;
    config.num_transactions = 500;
    config.num_items = 30;
    config.num_patterns = 10;
    config.avg_pattern_length = 3;
    config.avg_transaction_length = 6;
    return gen::QuestGenerator(config).generate();
  }();
  const std::vector<TidList> items =
      invert_items(db.transactions(), db.num_items());
  std::vector<PairKey> pairs;
  for (Item a = 0; a < 10; ++a) {
    for (Item b = a + 1; b < 10; ++b) pairs.push_back(make_pair_key(a, b));
  }
  const auto lists = invert_pairs(db.transactions(), pairs);
  for (PairKey key : pairs) {
    EXPECT_EQ(lists.at(key),
              intersect(items[pair_first(key)], items[pair_second(key)]));
  }
}

TEST(PairSlots, MatchesHashProbeOracleOnQuestDatabases) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    const HorizontalDatabase db = quest_db(400, 40, seed);
    TriangleCounter counter(db.num_items());
    counter.count(db.transactions());
    SCOPED_TRACE(seed);
    // The frequent pairs (what the miners request) and a random sparse
    // subset of all pairs (items a requested pair never pairs up with).
    expect_matches_oracle(db.transactions(), counter.frequent_pairs(4),
                          db.num_items());
    expect_matches_oracle(db.transactions(),
                          random_pairs(db.num_items(), 0.1, seed),
                          db.num_items());
  }
}

TEST(PairSlots, EmptyPairList) {
  const HorizontalDatabase db = sample_db();
  const std::span<const Transaction> transactions(db.transactions());
  expect_matches_oracle(transactions, {}, 4);
  EXPECT_TRUE(PairSlots({}).invert(transactions).empty());
}

TEST(PairSlots, PairsWhoseItemsNeverOccur) {
  const HorizontalDatabase db = sample_db();
  const std::span<const Transaction> transactions(db.transactions());
  const std::vector<PairKey> pairs = {make_pair_key(0, 7),
                                      make_pair_key(5, 6)};
  expect_matches_oracle(transactions, pairs, 8);
  for (const TidList& list : PairSlots(pairs).invert(transactions)) {
    EXPECT_TRUE(list.empty());
  }
}

TEST(PairSlots, ItemsAboveEveryRequestedItem) {
  const HorizontalDatabase db = database_of(
      {{0, {0, 1, 5, 9}}, {1, {1, 8, 9}}, {2, {0, 1, 2, 3, 9}}, {3, {7, 9}}},
      10);
  const std::span<const Transaction> transactions(db.transactions());
  const std::vector<PairKey> pairs = {make_pair_key(0, 1),
                                      make_pair_key(1, 2)};
  expect_matches_oracle(transactions, pairs, 10);
  const std::vector<TidList> lists = PairSlots(pairs).invert(transactions);
  EXPECT_EQ(lists[0], (TidList{0, 2}));
  EXPECT_EQ(lists[1], (TidList{2}));
}

TEST(PairSlots, ZeroAndOneItemTransactions) {
  const HorizontalDatabase db = database_of(
      {{0, {}}, {1, {2}}, {2, {1, 2}}, {3, {}}, {4, {1}}, {5, {1, 2}}}, 3);
  const std::span<const Transaction> transactions(db.transactions());
  const std::vector<PairKey> pairs = {make_pair_key(1, 2)};
  expect_matches_oracle(transactions, pairs, 3);
  EXPECT_EQ(PairSlots(pairs).invert(transactions)[0], (TidList{2, 5}));
}

TEST(PairSlots, TwoItemsOnePair) {
  // K = 2: a one-cell slot table.
  const HorizontalDatabase db = sample_db();
  const std::span<const Transaction> transactions(db.transactions());
  const std::vector<PairKey> pairs = {make_pair_key(2, 3)};
  expect_matches_oracle(transactions, pairs, 4);
  EXPECT_EQ(PairSlots(pairs).invert(transactions)[0], (TidList{3}));
}

// The exchange receivers find a section's slot by its key; a key the
// plan never requested, or a malformed one, has none.
TEST(PairSlots, SlotOfEveryRequestedPairAndOfNoOther) {
  const std::vector<PairKey> pairs = {make_pair_key(1, 4), make_pair_key(1, 7),
                                      make_pair_key(4, 7), make_pair_key(5, 9)};
  const PairSlots slots(pairs);
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    EXPECT_EQ(slots.slot(pairs[s]), s);
  }
  // Both items requested but not together; an item never requested; an
  // item beyond the table; items out of order; one item twice.
  for (const PairKey absent :
       {make_pair_key(1, 5), make_pair_key(0, 1), make_pair_key(7, 12),
        (PairKey{4} << 32) | 1, (PairKey{4} << 32) | 4}) {
    EXPECT_EQ(slots.slot(absent), pairs.size()) << absent;
  }
  EXPECT_EQ(PairSlots({}).slot(make_pair_key(0, 1)), 0u);
}

TEST(PairSlotsDeathTest, RejectsUnsortedOrDuplicatedPairs) {
#if ECLAT_DCHECKS_ENABLED
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<PairKey> unsorted = {make_pair_key(1, 2),
                                         make_pair_key(0, 3)};
  const std::vector<PairKey> duplicated = {make_pair_key(0, 3),
                                           make_pair_key(0, 3)};
  EXPECT_DEATH(PairSlots{unsorted}, "ECLAT_CHECK");
  EXPECT_DEATH(PairSlots{duplicated}, "ECLAT_CHECK");
#else
  GTEST_SKIP() << "DCHECKs are compiled out of this build";
#endif
}

TEST(TriangleCounter, CountsAllPairsOfEachTransaction) {
  TriangleCounter counter(4);
  const HorizontalDatabase db = sample_db();
  const std::span<const Transaction> transactions(db.transactions());
  counter.count(transactions);
  EXPECT_EQ(counter.get(0, 1), 2u);  // tids 0, 3
  EXPECT_EQ(counter.get(0, 2), 3u);  // tids 0, 2, 3
  EXPECT_EQ(counter.get(1, 2), 3u);  // tids 0, 1, 3
  EXPECT_EQ(counter.get(0, 3), 1u);
  EXPECT_EQ(counter.get(2, 3), 1u);
  EXPECT_EQ(counter.get(3, 1), 1u);  // arguments commute
}

TEST(TriangleCounter, IndexingCoversWholeTriangleWithoutCollision) {
  // Bump each pair exactly once via single-pair transactions and verify
  // every cell reads back 1 (no aliasing in the triangular indexing).
  constexpr Item kN = 17;
  TriangleCounter counter(kN);
  DatabaseBuilder builder;
  Tid tid = 0;
  for (Item a = 0; a < kN; ++a) {
    for (Item b = a + 1; b < kN; ++b) {
      builder.add(tid++, Itemset{a, b});
    }
  }
  const HorizontalDatabase db = std::move(builder).finish(kN);
  counter.count(db.transactions());
  for (Item a = 0; a < kN; ++a) {
    for (Item b = a + 1; b < kN; ++b) {
      EXPECT_EQ(counter.get(a, b), 1u) << "pair " << a << "," << b;
    }
  }
}

TEST(TriangleCounter, FrequentPairsSortedAndThresholded) {
  TriangleCounter counter(4);
  const HorizontalDatabase db = sample_db();
  counter.count(db.transactions());
  const std::vector<PairKey> frequent = counter.frequent_pairs(2);
  ASSERT_EQ(frequent.size(), 3u);
  EXPECT_EQ(frequent[0], make_pair_key(0, 1));
  EXPECT_EQ(frequent[1], make_pair_key(0, 2));
  EXPECT_EQ(frequent[2], make_pair_key(1, 2));
  EXPECT_TRUE(std::is_sorted(frequent.begin(), frequent.end()));
}

TEST(TriangleCounter, InvalidArgumentsThrow) {
  TriangleCounter counter(3);
  EXPECT_THROW(counter.get(1, 1), std::out_of_range);
  EXPECT_THROW(counter.get(0, 3), std::out_of_range);
  EXPECT_THROW(TriangleCounter{1}, std::invalid_argument);
  const HorizontalDatabase out_of_range = database_of({{0, {0, 1, 3}}}, 4);
  EXPECT_THROW(counter.count(out_of_range.transactions()), std::out_of_range);
}

// The filtered counter against the full one: the same count for every
// pair of counted items, an out_of_range for every other pair, the same
// frequent pairs, and a K(K-1)/2 triangle.
TEST(TriangleCounter, FilteredCountsEqualFullCountsOfCountedItems) {
  bool filtered_some = false;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const HorizontalDatabase db = quest_db(600, 60, seed);
    TriangleCounter full(db.num_items());
    full.count(db.transactions());
    const std::vector<Count> items =
        count_items(db.transactions(), db.num_items());
    for (Count minsup : {Count{0}, Count{1}, Count{20}, Count{60}, Count{100},
                          Count{150}, Count{100'000}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " minsup " +
                   std::to_string(minsup));
      TriangleCounter filtered(items, minsup);
      filtered.count(db.transactions());
      ASSERT_EQ(filtered.num_items(), db.num_items());
      const auto k = static_cast<std::size_t>(std::count_if(
          items.begin(), items.end(), [&](Count n) { return n >= minsup; }));
      filtered_some |= k >= 2 && k < db.num_items();
      EXPECT_EQ(filtered.raw().size(), k < 2 ? 0 : k * (k - 1) / 2);
      for (Item a = 0; a < db.num_items(); ++a) {
        for (Item b = a + 1; b < db.num_items(); ++b) {
          if (items[a] >= minsup && items[b] >= minsup) {
            ASSERT_EQ(filtered.get(a, b), full.get(a, b)) << a << "," << b;
          } else {
            ASSERT_THROW(filtered.get(b, a), std::out_of_range);
          }
        }
      }
      EXPECT_EQ(filtered.frequent_pairs(minsup), full.frequent_pairs(minsup));
    }
  }
  EXPECT_TRUE(filtered_some);
}

TEST(TriangleCounter, FilteredBelowTwoCountedItemsIsEmpty) {
  const HorizontalDatabase db = sample_db();  // item counts 3, 3, 4, 1
  const std::vector<Count> items =
      count_items(db.transactions(), db.num_items());
  for (Count minsup : {Count{5}, Count{4}}) {  // K = 0, then K = 1 (item 2)
    SCOPED_TRACE(minsup);
    TriangleCounter counter(items, minsup);
    counter.count(db.transactions());
    EXPECT_EQ(counter.num_items(), 4u);
    EXPECT_TRUE(counter.raw().empty());
    EXPECT_TRUE(counter.frequent_pairs(0).empty());
    EXPECT_THROW(counter.get(0, 2), std::out_of_range);
  }
  // Item universes of 0 and 1 items.
  const HorizontalDatabase one = database_of({{0, {0}}, {1, {}}}, 1);
  for (const std::vector<Count>& counts :
       {std::vector<Count>{}, std::vector<Count>{1}}) {
    TriangleCounter counter(counts, 1);
    if (counts.size() == 1) counter.count(one.transactions());
    EXPECT_EQ(counter.num_items(), counts.size());
    EXPECT_TRUE(counter.raw().empty());
    EXPECT_TRUE(counter.frequent_pairs(0).empty());
  }
}

TEST(TriangleCounter, FilteredGetOfUncountedItemThrows) {
  const HorizontalDatabase db = sample_db();
  TriangleCounter counter(count_items(db.transactions(), db.num_items()), 2);
  counter.count(db.transactions());
  EXPECT_EQ(counter.raw().size(), 3u);  // items 0, 1, 2
  EXPECT_EQ(counter.get(0, 1), 2u);
  EXPECT_EQ(counter.get(2, 0), 3u);
  EXPECT_EQ(counter.get(1, 2), 3u);
  EXPECT_THROW(counter.get(0, 3), std::out_of_range);  // item 3 has 1
  EXPECT_THROW(counter.get(3, 2), std::out_of_range);
  EXPECT_THROW(counter.get(1, 1), std::out_of_range);
  EXPECT_THROW(counter.get(0, 4), std::out_of_range);
}

TEST(TriangleCounter, FilteredCountRejectsOutOfRangeItem) {
  TriangleCounter counter(std::vector<Count>{3, 0, 3}, 1);
  const HorizontalDatabase out_of_range = database_of({{0, {0, 2, 3}}}, 4);
  EXPECT_THROW(counter.count(out_of_range.transactions()), std::out_of_range);
}

// The thread backend's initialization: per-block filtered counters, built
// from the whole database's item counts, counted on W threads and summed
// cell by cell through raw() in block order, equal one count over the
// whole database at any W; every prefix sum equals a count over its
// blocks.
TEST(TriangleCounter, FilteredBlockCountersPrefixMergeToOneWholeCount) {
  const HorizontalDatabase db = quest_db(700, 40, 11);
  const std::vector<Count> items =
      count_items(db.transactions(), db.num_items());
  constexpr Count kMinsup = 120;
  TriangleCounter whole(items, kMinsup);
  whole.count(db.transactions());
  ASSERT_LT(whole.raw().size(), 40u * 39u / 2u);
  ASSERT_FALSE(whole.frequent_pairs(3).empty());
  for (std::size_t workers = 1; workers <= 5; ++workers) {
    SCOPED_TRACE(workers);
    const std::vector<Block> blocks = db.block_partition(workers);
    std::vector<std::optional<TriangleCounter>> prefix(workers);
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        prefix[w].emplace(items, kMinsup).count(db.view(blocks[w]));
      });
    }
    for (std::thread& t : pool) t.join();
    TriangleCounter upto(items, kMinsup);
    for (std::size_t w = 0; w < workers; ++w) {
      if (w > 0) {
        const std::span<Count> sum = prefix[w]->raw();
        const std::span<const Count> earlier =
            std::as_const(*prefix[w - 1]).raw();
        for (std::size_t i = 0; i < sum.size(); ++i) sum[i] += earlier[i];
      }
      upto.count(db.view(blocks[w]));
      ASSERT_TRUE(std::ranges::equal(prefix[w]->raw(), upto.raw()))
          << "prefix " << w;
    }
    ASSERT_TRUE(std::ranges::equal(prefix.back()->raw(), whole.raw()));
  }
}


// The native miners count pairs into 4-byte cells and the simulator into
// 8-byte ones. On one Quest database the two widths hold the same counts
// cell for cell and read the same through get and frequent_pairs, and the
// thread backend's phase-1 reduction in 4-byte cells — one counter per
// block, counted on a crew, then each worker's cell range of the W
// counters summed into the first — gives the whole count's cells at
// W = 1..8.
TEST(TriangleCounter, FourAndEightByteCellsAgreeThroughEveryReader) {
  const HorizontalDatabase db = quest_db(900, 50, 13);
  const std::vector<Count> items =
      count_items(db.transactions(), db.num_items());
  constexpr Count kMinsup = 40;
  TriangleCounter wide(items, kMinsup);
  wide.count(db.transactions());
  TriangleCounter32 narrow(items, kMinsup);
  narrow.count(db.transactions());
  ASSERT_GT(narrow.raw().size(), 100u);
  ASSERT_TRUE(std::ranges::equal(narrow.raw(), wide.raw()));
  for (const PairKey key : wide.frequent_pairs(0)) {  // every counted pair
    const Item a = pair_first(key);
    const Item b = pair_second(key);
    ASSERT_EQ(narrow.get(a, b), wide.get(a, b)) << a << "," << b;
    ASSERT_EQ(narrow.get(b, a), wide.get(a, b)) << a << "," << b;
  }
  for (const Count minsup : {Count{1}, Count{5}, Count{20}, Count{60}}) {
    ASSERT_FALSE(wide.frequent_pairs(minsup).empty());
    EXPECT_EQ(narrow.frequent_pairs(minsup), wide.frequent_pairs(minsup))
        << "minsup " << minsup;
  }
  for (std::size_t workers = 1; workers <= 8; ++workers) {
    SCOPED_TRACE(workers);
    const std::vector<Block> blocks = db.block_partition(workers);
    std::vector<std::optional<TriangleCounter32>> counters(workers);
    exec::Crew crew(workers);
    crew.run([&](std::size_t w) {
      counters[w].emplace(items, kMinsup).count(db.view(blocks[w]));
    });
    crew.run([&](std::size_t w) {
      const std::span<std::uint32_t> sum = counters.front()->raw();
      const std::size_t begin = sum.size() * w / workers;
      const std::size_t end = sum.size() * (w + 1) / workers;
      for (std::size_t v = 1; v < workers; ++v) {
        const std::span<const std::uint32_t> part =
            std::as_const(*counters[v]).raw();
        for (std::size_t i = begin; i < end; ++i) sum[i] += part[i];
      }
    });
    EXPECT_TRUE(std::ranges::equal(counters.front()->raw(), wide.raw()));
  }
}

}  // namespace
}  // namespace eclat
