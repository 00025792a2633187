// The native miners' transformation: an item inversion, and each class's
// atoms joined inside its task from the shared item tid-sets. The joined
// level 0 must be the pair inversion's lists, under every kernel and
// whatever representation the items take, and mining from it must emit
// what mining the pair lists emits.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <thread>
#include <vector>

#include "apriori/apriori.hpp"
#include "eclat/compute_frequent.hpp"
#include "eclat/diffsets.hpp"
#include "eclat/equivalence.hpp"
#include "gen/quest.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {
namespace {

constexpr IntersectKernel kAllKernels[] = {IntersectKernel::kMerge,
                                           IntersectKernel::kMergeShortCircuit,
                                           IntersectKernel::kAuto};

HorizontalDatabase quest_db(std::size_t transactions, Item items,
                            double avg_transaction, std::size_t patterns,
                            std::uint64_t seed) {
  gen::QuestConfig config;
  config.num_transactions = transactions;
  config.num_items = items;
  config.num_patterns = patterns;
  config.avg_pattern_length = 4;
  config.avg_transaction_length = avg_transaction;
  config.seed = seed;
  return gen::QuestGenerator(config).generate();
}

/// One database of the suite, with the minsup it is mined at.
struct Case {
  std::string name;
  HorizontalDatabase db;
  Count minsup;
};

/// Three shapes of input. `sparse`: 6,000 items over 6,400 baskets, where
/// no mined item reaches the 50 tids at which auto makes it a bitmap.
/// `dense`: 30 items over 2,000 baskets, where auto makes every mined
/// item a bitmap. `gapped`: tids 2048 apart, and mined items over 32×
/// apart in support, so under auto some level-0 joins gallop.
std::vector<Case> cases() {
  std::vector<Case> out;
  out.push_back({"sparse", quest_db(6'400, 6000, 4, 4000, 3), 3});
  out.push_back({"dense", quest_db(2'000, 30, 8, 30, 5), 40});
  const HorizontalDatabase spaced = quest_db(3'000, 100, 8, 30, 15);
  std::vector<Transaction> baskets = spaced.transactions();
  for (std::size_t i = 0; i < baskets.size(); ++i) {
    baskets[i].tid = static_cast<Tid>(i * 2048);
  }
  out.push_back(
      {"gapped", HorizontalDatabase(std::move(baskets), spaced.num_items()),
       30});
  return out;
}

/// The classes of `db` at `minsup`, its item counts and pair counter.
struct Inputs {
  std::vector<Count> item_counts;
  TriangleCounter counter;
  std::vector<EquivalenceClass> classes;
};

Inputs inputs_of(const HorizontalDatabase& db, Count minsup) {
  std::vector<Count> item_counts = count_items(db.transactions(),
                                               db.num_items());
  TriangleCounter counter(item_counts, minsup);
  counter.count(db.transactions());
  std::vector<EquivalenceClass> classes =
      partition_into_classes(counter.frequent_pairs(minsup));
  return {std::move(item_counts), std::move(counter), std::move(classes)};
}

ItemTidSets seeded_items(const HorizontalDatabase& db, const Inputs& in,
                         IntersectKernel kernel) {
  ItemSlots slots(mined_items(in.classes));
  std::vector<TidList> lists = slots.invert(db.transactions(), in.item_counts);
  ItemTidSets items(std::move(slots), db.tid_universe());
  for (std::size_t s = 0; s < lists.size(); ++s) {
    items.seed(s, std::move(lists[s]), kernel, nullptr);
  }
  return items;
}

TEST(ItemJoin, LevelZeroDecodesToThePairInversion) {
  for (const Case& c : cases()) {
    const Inputs in = inputs_of(c.db, c.minsup);
    const std::vector<TidList> pair_lists =
        PairSlots(mined_pairs(in.classes)).invert(c.db.transactions(),
                                                  in.counter);
    std::size_t mined = 0;
    for (const IntersectKernel kernel : kAllKernels) {
      const std::string where = c.name + " under " + kernel_name(kernel);
      const ItemTidSets items = seeded_items(c.db, in, kernel);
      IntersectStats stats;
      TidArena arena;
      std::size_t slot = 0;  // pair lists run class after class
      mined = 0;
      for (const EquivalenceClass& eq_class : in.classes) {
        if (eq_class.size() < 2) continue;
        ++mined;
        EXPECT_EQ(join_class(items, eq_class.prefix, eq_class.members,
                             c.minsup, kernel, arena, &stats),
                  c.db.tid_universe());
        EXPECT_EQ(arena.prefix(), Itemset{eq_class.prefix}) << where;
        const TidArena::Level& root = arena.level(0);
        ASSERT_EQ(root.used, eq_class.size()) << where;
        for (std::size_t m = 0; m < eq_class.size(); ++m, ++slot) {
          EXPECT_EQ(root.suffixes[m], eq_class.members[m]) << where;
          EXPECT_EQ(root.supports[m], pair_lists[slot].size()) << where;
          EXPECT_EQ(root.supports[m],
                    in.counter.get(eq_class.prefix, eq_class.members[m]))
              << where;
          EXPECT_EQ(root.sets[m].to_tidlist(), pair_lists[slot])
              << where << ", pair {" << eq_class.prefix << ", "
              << eq_class.members[m] << "}";
        }
      }
      EXPECT_EQ(slot, pair_lists.size()) << where;
      // One join per member of a mined class, none rejected.
      EXPECT_EQ(stats.intersections, pair_lists.size()) << where;
      EXPECT_EQ(stats.short_circuited, 0u) << where;
      EXPECT_EQ(stats.count_only, 0u) << where;
      if (kernel != IntersectKernel::kAuto) {
        EXPECT_EQ(stats.merge_calls, stats.intersections) << where;
        continue;
      }
      // Each database takes the representation path it was built for.
      const std::vector<Item> mined_item_list = mined_items(in.classes);
      std::size_t dense = 0;
      for (Item item : mined_item_list) dense += items.of(item).dense();
      if (c.name == "sparse") {
        EXPECT_EQ(dense, 0u) << where;
        EXPECT_EQ(stats.merge_calls, stats.intersections) << where;
      } else if (c.name == "dense") {
        EXPECT_EQ(dense, mined_item_list.size()) << where;
        EXPECT_EQ(stats.bitset_calls, stats.intersections) << where;
      } else {
        EXPECT_EQ(dense, 0u) << where;
        EXPECT_GT(stats.gallop_calls, 0u) << where;
        EXPECT_GT(stats.merge_calls, 0u) << where;
      }
    }
    EXPECT_GT(mined, 3u) << c.name;
  }
}

// Mining a class joined from the item tid-sets emits the itemsets,
// supports and order that mining its pair-list atoms does, with either
// join: tid-list intersection or dEclat's diffsets.
TEST(ItemJoin, MinesWhatThePairAtomsMine) {
  for (const Case& c : cases()) {
    const Inputs in = inputs_of(c.db, c.minsup);
    std::vector<TidList> pair_lists =
        PairSlots(mined_pairs(in.classes)).invert(c.db.transactions(),
                                                  in.counter);
    const std::vector<std::vector<Atom>> atoms =
        atoms_by_class(in.classes, pair_lists);
    for (const IntersectKernel kernel : kAllKernels) {
      const ItemTidSets items = seeded_items(c.db, in, kernel);
      for (const bool diffsets : {false, true}) {
        const std::string where = c.name + " under " + kernel_name(kernel) +
                                  (diffsets ? " with diffsets" : "");
        ItemsetStore joined;
        ItemsetStore reference;
        std::vector<std::size_t> joined_sizes;
        std::vector<std::size_t> reference_sizes;
        TidArena arena;
        for (std::size_t k = 0; k < in.classes.size(); ++k) {
          const EquivalenceClass& eq_class = in.classes[k];
          if (diffsets) {
            compute_frequent_diffsets(items, eq_class.prefix,
                                      eq_class.members, c.minsup, kernel,
                                      arena, joined, joined_sizes);
            compute_frequent_diffsets(atoms[k], c.minsup, kernel, arena,
                                      reference, reference_sizes);
          } else {
            compute_frequent(items, eq_class.prefix, eq_class.members,
                             c.minsup, kernel, arena, joined, joined_sizes);
            compute_frequent(atoms[k], c.minsup, kernel, arena, reference,
                             reference_sizes);
          }
        }
        EXPECT_GT(reference.size(), 0u) << where;
        EXPECT_EQ(joined, reference) << where;
        EXPECT_EQ(joined_sizes, reference_sizes) << where;
      }
    }
  }
}

// The §6.3 invariant for items: W blocks written concurrently in place,
// each from its items' counts over the earlier blocks, give byte for byte
// the lists of one pass over the whole database, at any W.
TEST(ItemSlots, BlockWriterMatchesOnePassAtAnyWorkerCount) {
  const HorizontalDatabase db = quest_db(700, 40, 8, 20, 11);
  const std::vector<TidList> all_items =
      invert_items(db.transactions(), db.num_items());
  // Every third item, so the writer skips unrequested ones.
  std::vector<Item> requested;
  std::vector<TidList> expected;
  for (Item item = 1; item < db.num_items(); item += 3) {
    requested.push_back(item);
    expected.push_back(all_items[item]);
  }
  const ItemSlots slots(requested);
  ASSERT_EQ(slots.size(), requested.size());
  for (std::size_t s = 0; s < requested.size(); ++s) {
    EXPECT_EQ(slots.slot(requested[s]), s);
  }
  EXPECT_EQ(slots.slot(0), slots.size());
  EXPECT_EQ(slots.slot(db.num_items() + 5), slots.size());
  const std::vector<Count> counts =
      count_items(db.transactions(), db.num_items());
  EXPECT_EQ(slots.invert(db.transactions(), counts), expected);
  for (std::size_t workers = 1; workers <= 8; ++workers) {
    SCOPED_TRACE(workers);
    const std::vector<Block> blocks = db.block_partition(workers);
    std::vector<std::vector<Count>> partials(workers);
    for (std::size_t w = 0; w < workers; ++w) {
      partials[w] = count_items(db.view(blocks[w]), db.num_items());
    }
    std::vector<TidList> lists = slots.sized_lists(counts);
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&, w] {
        std::vector<Tid*> cursors =
            slots.cursors(lists, std::span(partials).first(w));
        slots.write(db.view(blocks[w]), cursors);
      });
    }
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(lists, expected);
  }
}

}  // namespace
}  // namespace eclat
