#include "parallel/pipeline.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "vertical/tidlist.hpp"

namespace eclat::par {

std::vector<std::size_t> make_schedule(
    std::span<const EquivalenceClass> classes, std::size_t bins,
    ScheduleHeuristic heuristic, const TriangleCounter& counter) {
  switch (heuristic) {
    case ScheduleHeuristic::kRoundRobin:
      return schedule_round_robin(classes, bins);
    case ScheduleHeuristic::kGreedySupport: {
      std::vector<std::size_t> weights(classes.size());
      for (std::size_t c = 0; c < classes.size(); ++c) {
        weights[c] = support_weight(classes[c], counter);
      }
      return schedule_greedy_by_weight(weights, bins);
    }
    case ScheduleHeuristic::kGreedyWeight:
    default:
      return schedule_greedy(classes, bins);
  }
}

MiningPlan derive_plan(const TriangleCounter& counter, Count minsup,
                       std::size_t bins, ScheduleHeuristic heuristic) {
  MiningPlan plan;
  plan.frequent_pairs = counter.frequent_pairs(minsup);
  plan.classes = partition_into_classes(plan.frequent_pairs);
  plan.assignment = make_schedule(plan.classes, bins, heuristic, counter);
  // Singleton classes generate no candidates (§4.1) — their 2-itemsets
  // are already globally counted, so no tid-lists move.
  plan.exchanged_pairs = mined_pairs(plan.classes);
  for (std::size_t c = 0; c < plan.classes.size(); ++c) {
    if (plan.classes[c].size() < 2) continue;
    plan.class_of.insert(plan.class_of.end(), plan.classes[c].size(), c);
  }
  return plan;
}

std::vector<Atom> take_class_atoms(
    const EquivalenceClass& eq_class,
    std::unordered_map<PairKey, TidList>& lists) {
  std::vector<Atom> atoms;
  atoms.reserve(eq_class.size());
  for (Item member : eq_class.members) {
    const PairKey key = make_pair_key(eq_class.prefix, member);
    atoms.push_back(
        Atom{{eq_class.prefix, member}, std::move(lists.at(key))});
  }
  return atoms;
}

std::vector<Atom> rebuild_class_atoms(
    const EquivalenceClass& eq_class,
    std::span<const std::span<const Transaction>> partitions) {
  const std::vector<PairKey> keys = eq_class.pair_keys();
  std::unordered_map<PairKey, TidList> lists;
  for (const std::span<const Transaction> partition : partitions) {
    std::unordered_map<PairKey, TidList> partial =
        invert_pairs(partition, keys);
    for (const PairKey key : keys) {
      TidList& list = lists[key];
      const TidList& section = partial.at(key);
      list.insert(list.end(), section.begin(), section.end());
    }
  }
  for (const PairKey key : keys) {
    ECLAT_DCHECK(is_valid_tidlist(lists.at(key)));
  }
  return take_class_atoms(eq_class, lists);
}

void append_singletons(MiningResult& result,
                       std::span<const Count> item_counts, Count minsup) {
  for (std::size_t item = 0; item < item_counts.size(); ++item) {
    if (item_counts[item] >= minsup) {
      const Item singleton[] = {static_cast<Item>(item)};
      result.itemsets.push_back(singleton, item_counts[item]);
    }
  }
}

void append_frequent_pairs(MiningResult& result,
                           std::span<const PairKey> frequent_pairs,
                           const TriangleCounter& counter) {
  for (PairKey key : frequent_pairs) {
    const Item pair[] = {pair_first(key), pair_second(key)};
    result.itemsets.push_back(pair, counter.get(pair[0], pair[1]));
  }
}

void finalize_result(MiningResult& result) {
  normalize(result);
  result.levels = level_stats(result);
}

}  // namespace eclat::par
