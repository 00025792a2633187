#include "eclat/eclat_seq.hpp"

#include "apriori/apriori.hpp"
#include "eclat/diffsets.hpp"
#include "eclat/equivalence.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

MiningResult eclat_sequential(const HorizontalDatabase& db,
                              const EclatConfig& config,
                              IntersectStats* stats) {
  MiningResult result;
  const std::span<const Transaction> all(db.transactions());

  // --- Initialization: count items, then the 2-itemsets of frequent
  // items, in one scan, into 4-byte cells. The triangle is freed once the
  // pairs are in the result, before the transformation allocates
  // anything. ---
  const std::vector<Count> item_counts = count_items(all, db.num_items());
  ++result.database_scans;

  if (config.include_singletons) {
    for (Item item = 0; item < db.num_items(); ++item) {
      if (item_counts[item] >= config.minsup) {
        const Item singleton[] = {item};
        result.itemsets.push_back(singleton, item_counts[item]);
      }
    }
  }
  const std::size_t l1 = result.itemsets.size();
  result.levels.push_back(LevelStats{
      1, static_cast<std::size_t>(db.num_items()), l1});

  std::vector<PairKey> frequent_pairs;
  {
    TriangleCounter32 counter(item_counts, config.minsup);
    counter.count(all);
    frequent_pairs = counter.frequent_pairs(config.minsup);
    for (PairKey key : frequent_pairs) {
      const Item pair[] = {pair_first(key), pair_second(key)};
      result.itemsets.push_back(pair, counter.get(pair[0], pair[1]));
    }
  }

  // --- Transformation: exact-size vertical tid-lists of every item that
  // occurs in a class that generates candidates (second and final
  // horizontal scan), each seeded once into a TidSet under the run's
  // kernel over the database's tid universe. ---
  const std::vector<EquivalenceClass> classes =
      partition_into_classes(frequent_pairs);
  ItemSlots item_slots(mined_items(classes));
  std::vector<TidList> lists = item_slots.invert(all, item_counts);
  ++result.database_scans;
  ItemTidSets items(std::move(item_slots), db.tid_universe());
  for (std::size_t s = 0; s < lists.size(); ++s) {
    items.seed(s, std::move(lists[s]), config.kernel, stats);
  }

  // --- Asynchronous phase: mine each equivalence class to completion,
  // joining its atoms from the item tid-sets. ---
  std::vector<std::size_t> size_histogram(3, 0);
  size_histogram[2] = frequent_pairs.size();

  // One arena reused across every class: level buffers warm up on the
  // first few classes, after which the recursion allocates nothing.
  TidArena arena;
  for (const EquivalenceClass& eq_class : classes) {
    // A singleton class generates no candidates (§4.1) and mines nothing.
    if (config.use_diffsets) {
      compute_frequent_diffsets(items, eq_class.prefix, eq_class.members,
                                config.minsup, config.kernel, arena,
                                result.itemsets, size_histogram, stats);
    } else {
      compute_frequent(items, eq_class.prefix, eq_class.members,
                       config.minsup, config.kernel, arena, result.itemsets,
                       size_histogram, stats);
    }
  }

  for (std::size_t k = 2; k < size_histogram.size(); ++k) {
    result.levels.push_back(LevelStats{k, 0, size_histogram[k]});
  }

  normalize(result);
  return result;
}

}  // namespace eclat
