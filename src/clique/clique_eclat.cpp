#include "clique/clique_eclat.hpp"

#include <unordered_map>

#include "apriori/apriori.hpp"
#include "apriori/candidate_gen.hpp"
#include "clique/item_graph.hpp"
#include "eclat/equivalence.hpp"
#include "vertical/vertical_db.hpp"

namespace eclat {

MiningResult clique_eclat(const HorizontalDatabase& db,
                          const CliqueEclatConfig& config,
                          CliqueEclatStats* stats) {
  MiningResult result;
  CliqueEclatStats local_stats;
  const std::span<const Transaction> all(db.transactions());

  // Initialization: identical to Eclat.
  const std::vector<Count> item_counts = count_items(all, db.num_items());
  TriangleCounter counter(item_counts, config.minsup);
  counter.count(all);
  ++result.database_scans;

  if (config.include_singletons) {
    for (Item item = 0; item < db.num_items(); ++item) {
      if (item_counts[item] >= config.minsup) {
        result.itemsets.push_back(FrequentItemset{{item}, item_counts[item]});
      }
    }
  }

  const std::vector<PairKey> frequent_pairs =
      counter.frequent_pairs(config.minsup);
  for (PairKey key : frequent_pairs) {
    result.itemsets.push_back(FrequentItemset{
        {pair_first(key), pair_second(key)},
        counter.get(pair_first(key), pair_second(key))});
  }

  // Transformation: tid-lists for the frequent pairs.
  std::unordered_map<PairKey, TidList> tidlists =
      invert_pairs(all, frequent_pairs);
  ++result.database_scans;

  // Clustering: clique-refined classes, with bookkeeping against the
  // plain prefix classes for the stats.
  const std::vector<EquivalenceClass> plain =
      partition_into_classes(frequent_pairs);
  for (const EquivalenceClass& eq_class : plain) {
    ++local_stats.plain_classes;
    local_stats.plain_weight += eq_class.weight();
  }
  const std::vector<CliqueClass> classes =
      clique_classes(frequent_pairs, config.max_cliques_per_prefix);
  for (const CliqueClass& sub : classes) {
    ++local_stats.clique_subclasses;
    local_stats.clique_weight += sub.weight();
  }

  // Asynchronous phase per clique sub-class, deduplicating across cliques.
  ItemsetSet seen;
  std::vector<std::size_t> histogram;
  TidArena arena;
  for (const CliqueClass& sub : classes) {
    if (sub.members.size() < 2) continue;
    std::vector<Atom> atoms;
    atoms.reserve(sub.members.size());
    for (Item member : sub.members) {
      const PairKey key = make_pair_key(sub.prefix, member);
      atoms.push_back(Atom{{sub.prefix, member}, tidlists.at(key)});
    }
    std::vector<FrequentItemset> found;
    std::vector<std::size_t> sub_histogram;
    compute_frequent(atoms, config.minsup, config.kernel, arena, found,
                     sub_histogram, &local_stats.intersect);
    for (FrequentItemset& f : found) {
      if (seen.insert(f.items).second) {
        if (histogram.size() <= f.items.size()) {
          histogram.resize(f.items.size() + 1, 0);
        }
        ++histogram[f.items.size()];
        result.itemsets.push_back(std::move(f));
      } else {
        ++local_stats.duplicates;
      }
    }
  }

  result.levels.push_back(LevelStats{1, 0, result.count_of_size(1)});
  result.levels.push_back(LevelStats{2, 0, frequent_pairs.size()});
  for (std::size_t k = 3; k < histogram.size(); ++k) {
    result.levels.push_back(LevelStats{k, 0, histogram[k]});
  }

  normalize(result);
  if (stats) *stats = local_stats;
  return result;
}

}  // namespace eclat
