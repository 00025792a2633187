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
  // items, in one scan. ---
  const std::vector<Count> item_counts = count_items(all, db.num_items());
  TriangleCounter counter(item_counts, config.minsup);
  counter.count(all);
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

  const std::vector<PairKey> frequent_pairs =
      counter.frequent_pairs(config.minsup);
  for (PairKey key : frequent_pairs) {
    const Item pair[] = {pair_first(key), pair_second(key)};
    result.itemsets.push_back(pair, counter.get(pair[0], pair[1]));
  }

  // --- Transformation: exact-size vertical tid-lists for the pairs of
  // every class that generates candidates (second and final horizontal
  // scan). ---
  const std::vector<EquivalenceClass> classes =
      partition_into_classes(frequent_pairs);
  std::vector<TidList> tidlists =
      PairSlots(mined_pairs(classes)).invert(all, counter);
  ++result.database_scans;

  // --- Asynchronous phase: mine each equivalence class to completion. ---
  std::vector<std::size_t> size_histogram(3, 0);
  size_histogram[2] = frequent_pairs.size();

  // One arena reused across every class: level buffers warm up on the
  // first few classes, after which the recursion allocates nothing.
  TidArena arena;
  for (std::vector<Atom>& atoms : atoms_by_class(classes, tidlists)) {
    if (atoms.empty()) continue;  // singleton class: no candidates (§4.1)
    if (config.use_diffsets) {
      compute_frequent_diffsets(atoms, config.minsup, config.kernel, arena,
                                result.itemsets, size_histogram, stats);
    } else {
      compute_frequent(atoms, config.minsup, config.kernel, arena,
                       result.itemsets, size_histogram, stats);
    }
    atoms.clear();  // free the class's tid-lists before the next class
  }

  for (std::size_t k = 2; k < size_histogram.size(); ++k) {
    result.levels.push_back(LevelStats{k, 0, size_histogram[k]});
  }

  normalize(result);
  return result;
}

}  // namespace eclat
