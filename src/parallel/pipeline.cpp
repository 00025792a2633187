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
  if (eq_class.size() < 2) return {};
  const PairSlots slots(eq_class.pair_keys());
  std::vector<TidList> lists(slots.size());
  for (const std::span<const Transaction> partition : partitions) {
    const std::vector<TidList> partial = slots.invert(partition);
    for (std::size_t s = 0; s < lists.size(); ++s) {
      lists[s].insert(lists[s].end(), partial[s].begin(), partial[s].end());
    }
  }
  for (const TidList& list : lists) ECLAT_DCHECK(is_valid_tidlist(list));
  return std::move(atoms_by_class({&eq_class, 1}, lists).front());
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

void finalize_result(MiningResult& result) {
  normalize(result);
  result.levels = level_stats(result);
}

}  // namespace eclat::par
