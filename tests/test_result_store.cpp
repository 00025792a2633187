// The flat result store: every itemset of a result in one items array,
// n + 1 uint32 offsets and one support array, read through ItemsetView.
// These tests pin the store's value semantics against the owning
// FrequentItemset it replaces in MiningResult, the canonical layout the
// offset scatter writes into, and the 2^32 - 1 item limit of its offsets
// (checked through the check itself: no test allocates 16 GB).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::items_of;

TEST(ItemsetStore, PushBackAndViewInPlace) {
  ItemsetStore store;
  EXPECT_TRUE(store.empty());
  EXPECT_TRUE(store.offsets().empty());
  const Item pair[] = {3, 8};
  store.push_back(pair, 7);
  store.push_back(FrequentItemset{{1, 2, 9}, 4});
  store.push_back(FrequentItemset{{}, 2});
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.item_count(), 5u);
  EXPECT_EQ(items_of(store.items()), (Itemset{3, 8, 1, 2, 9}));
  EXPECT_EQ(std::vector<std::uint32_t>(store.offsets().begin(),
                                       store.offsets().end()),
            (std::vector<std::uint32_t>{0, 2, 5, 5}));
  EXPECT_EQ(std::vector<Count>(store.supports().begin(),
                               store.supports().end()),
            (std::vector<Count>{7, 4, 2}));

  const ItemsetView second = store[1];
  EXPECT_EQ(items_of(second.items), (Itemset{1, 2, 9}));
  EXPECT_EQ(second.support, 4u);
  // A view reads the store's own array, not a copy.
  EXPECT_EQ(second.items.data(), store.items().data() + 2);
  EXPECT_TRUE(store[2].items.empty());
}

TEST(ItemsetStore, IteratesInOrderAsViews) {
  const std::vector<FrequentItemset> owned = {
      {{0}, 9}, {{0, 4}, 3}, {{1, 2, 3}, 2}};
  const ItemsetStore store(owned);
  std::size_t i = 0;
  for (const ItemsetView f : store) {
    ASSERT_LT(i, owned.size());
    EXPECT_EQ(f, owned[i]);
    ++i;
  }
  EXPECT_EQ(i, owned.size());
  EXPECT_EQ(store.end() - store.begin(), 3);
  EXPECT_EQ(*(store.begin() + 2), owned[2]);
  EXPECT_EQ(store.begin()[1], owned[1]);
  // The implicit owning copy, as a loop written against FrequentItemset
  // reads it.
  std::vector<FrequentItemset> copied;
  for (const FrequentItemset& f : store) copied.push_back(f);
  EXPECT_EQ(copied, owned);
}

TEST(ItemsetStore, EqualityWithFrequentItemset) {
  const ItemsetStore store = {{{1, 5, 9}, 42}, {{2}, 3}};
  EXPECT_EQ(store[0], (FrequentItemset{{1, 5, 9}, 42}));
  EXPECT_NE(store[0], (FrequentItemset{{1, 5, 9}, 41}));
  EXPECT_NE(store[0], (FrequentItemset{{1, 5}, 42}));
  EXPECT_NE(store[0], store[1]);
  EXPECT_EQ(store, (std::vector<FrequentItemset>{{{1, 5, 9}, 42}, {{2}, 3}}));
  EXPECT_NE(store, (std::vector<FrequentItemset>{{{1, 5, 9}, 42}}));
  EXPECT_NE(store, (std::vector<FrequentItemset>{{{2}, 3}, {{1, 5, 9}, 42}}));
}

TEST(ItemsetStore, EqualityComparesTheItemsetBoundaries) {
  // The same items and supports, split differently, are other itemsets.
  const ItemsetStore a = {{{1, 2}, 5}, {{3}, 5}};
  const ItemsetStore b = {{{1}, 5}, {{2, 3}, 5}};
  EXPECT_NE(a, b);
  EXPECT_EQ(a, (ItemsetStore{{{1, 2}, 5}, {{3}, 5}}));
  // Empty is empty, however the store got there.
  ItemsetStore moved_from = a;
  const ItemsetStore taken = std::move(moved_from);
  moved_from.clear();
  EXPECT_EQ(moved_from, ItemsetStore());
  ItemsetStore cleared = taken;
  cleared.clear();
  EXPECT_EQ(cleared, ItemsetStore());
  EXPECT_TRUE(cleared.offsets().empty());
}

TEST(ItemsetStore, InPlaceWritesTouchOneItemset) {
  ItemsetStore store = {{{1, 2, 3}, 6}, {{4, 5}, 2}};
  std::span<Item> items = store.items_at(0);
  ASSERT_EQ(items.size(), 3u);
  std::swap(items[0], items[1]);
  store.set_support(1, 9);
  EXPECT_EQ(store, (ItemsetStore{{{2, 1, 3}, 6}, {{4, 5}, 9}}));
}

TEST(ItemsetStore, SizeRunsLayOutTheCanonicalOffsets) {
  const std::vector<std::size_t> counts = {0, 2, 0, 1};
  const ItemsetStore store = ItemsetStore::with_size_runs(counts);
  ASSERT_EQ(store.size(), 3u);
  EXPECT_EQ(store.item_count(), 5u);
  EXPECT_EQ(std::vector<std::uint32_t>(store.offsets().begin(),
                                       store.offsets().end()),
            (std::vector<std::uint32_t>{0, 1, 2, 5}));
  for (const ItemsetView f : store) {
    EXPECT_EQ(f.support, 0u);
    for (const Item item : f.items) EXPECT_EQ(item, 0u);
  }
  EXPECT_TRUE(ItemsetStore::with_size_runs({}).empty());
}

TEST(ItemsetStore, OffsetsStopAtTwoToTheThirtyTwoMinusOneItems) {
  constexpr std::size_t kLimit = std::numeric_limits<std::uint32_t>::max();
  EXPECT_EQ(ItemsetStore::checked_offset(0), 0u);
  EXPECT_EQ(ItemsetStore::checked_offset(kLimit), kLimit);
  EXPECT_THROW(ItemsetStore::checked_offset(kLimit + 1), std::length_error);
  EXPECT_THROW(ItemsetStore::checked_offset(std::size_t{1} << 40),
               std::length_error);
  // Sizing a store past the limit fails before it allocates anything.
  const std::vector<std::size_t> counts = {0, 0, std::size_t{1} << 31};
  EXPECT_THROW(ItemsetStore::with_size_runs(counts), std::length_error);
}

TEST(ItemsetStore, ResultCountsBySize) {
  MiningResult result;
  EXPECT_EQ(result.max_size(), 0u);
  EXPECT_TRUE(size_counts(result.itemsets).empty());
  result.itemsets = {{{1, 2, 3}, 1}, {{4}, 1}, {{1, 2}, 1}, {{5}, 1}};
  EXPECT_EQ(size_counts(result.itemsets),
            (std::vector<std::size_t>{0, 2, 1, 1}));
  EXPECT_EQ(result.count_of_size(1), 2u);
  EXPECT_EQ(result.count_of_size(7), 0u);
  EXPECT_EQ(result.max_size(), 3u);
  EXPECT_FALSE(is_canonical(result.itemsets));
  normalize(result);
  EXPECT_TRUE(is_canonical(result.itemsets));
  EXPECT_EQ(result.itemsets,
            (ItemsetStore{{{4}, 1}, {{5}, 1}, {{1, 2}, 1}, {{1, 2, 3}, 1}}));
}

}  // namespace
}  // namespace eclat
