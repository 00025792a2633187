#include "eclat/equivalence.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/check.hpp"

namespace eclat {

std::vector<PairKey> EquivalenceClass::pair_keys() const {
  std::vector<PairKey> keys;
  keys.reserve(members.size());
  for (Item member : members) keys.push_back(make_pair_key(prefix, member));
  return keys;
}

std::vector<EquivalenceClass> partition_into_classes(
    std::span<const PairKey> frequent_pairs) {
  std::vector<EquivalenceClass> classes;
  for (PairKey key : frequent_pairs) {
    const Item a = pair_first(key);
    const Item b = pair_second(key);
    if (classes.empty() || classes.back().prefix != a) {
      if (!classes.empty() && classes.back().prefix > a) {
        throw std::invalid_argument("frequent pairs must be sorted");
      }
      classes.push_back(EquivalenceClass{a, {}});
    }
    classes.back().members.push_back(b);
  }
  return classes;
}

std::vector<PairKey> mined_pairs(std::span<const EquivalenceClass> classes) {
  std::vector<PairKey> pairs;
  for (const EquivalenceClass& eq_class : classes) {
    if (eq_class.size() < 2) continue;
    for (Item member : eq_class.members) {
      pairs.push_back(make_pair_key(eq_class.prefix, member));
    }
  }
  return pairs;
}

std::vector<Item> mined_items(std::span<const EquivalenceClass> classes) {
  std::vector<Item> items;
  for (const EquivalenceClass& eq_class : classes) {
    if (eq_class.size() < 2) continue;
    items.push_back(eq_class.prefix);
    items.insert(items.end(), eq_class.members.begin(),
                 eq_class.members.end());
  }
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  return items;
}

std::vector<std::vector<Atom>> atoms_by_class(
    std::span<const EquivalenceClass> classes, std::span<TidList> lists) {
  std::vector<std::vector<Atom>> atoms(classes.size());
  std::size_t slot = 0;
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const EquivalenceClass& eq_class = classes[c];
    if (eq_class.size() < 2) continue;
    atoms[c].reserve(eq_class.size());
    for (Item member : eq_class.members) {
      ECLAT_DCHECK(slot < lists.size());
      atoms[c].push_back(
          Atom{{eq_class.prefix, member}, std::move(lists[slot++])});
    }
  }
  ECLAT_DCHECK(slot == lists.size());
  return atoms;
}

std::vector<std::size_t> schedule_greedy_by_weight(
    std::span<const std::size_t> weights, std::size_t num_processors) {
  if (num_processors == 0) {
    throw std::invalid_argument("need at least one processor");
  }
  // Sort class indices by weight descending; stable so equal weights keep
  // class order (determinism).
  std::vector<std::size_t> order(weights.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weights[a] > weights[b];
                   });

  std::vector<std::size_t> load(num_processors, 0);
  std::vector<std::size_t> assignment(weights.size(), 0);
  std::size_t previous_weight = order.empty() ? 0 : weights[order.front()];
  for (std::size_t index : order) {
    // LPT placement order must be monotonically non-increasing in weight —
    // the determinism and balance guarantees both hang on it.
    ECLAT_DCHECK(weights[index] <= previous_weight);
    previous_weight = weights[index];
    // Least-loaded processor; ties broken by the smaller id (paper
    // §5.2.1). min_element returns the first minimum, which is exactly
    // the smallest id.
    const std::size_t target = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    assignment[index] = target;
    load[target] += weights[index];
  }
  return assignment;
}

std::vector<std::size_t> schedule_greedy(
    std::span<const EquivalenceClass> classes, std::size_t num_processors) {
  std::vector<std::size_t> weights(classes.size());
  for (std::size_t c = 0; c < classes.size(); ++c) {
    weights[c] = classes[c].weight();
  }
  return schedule_greedy_by_weight(weights, num_processors);
}

std::size_t support_weight(const EquivalenceClass& eq_class,
                           const TriangleCounter& counter) {
  std::size_t weight = 0;
  const auto& members = eq_class.members;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const Count sup_i = counter.get(eq_class.prefix, members[i]);
    for (std::size_t j = i + 1; j < members.size(); ++j) {
      const Count sup_j = counter.get(eq_class.prefix, members[j]);
      weight += static_cast<std::size_t>(std::min(sup_i, sup_j));
    }
  }
  return weight;
}

std::vector<std::size_t> schedule_round_robin(
    std::span<const EquivalenceClass> classes, std::size_t num_processors) {
  if (num_processors == 0) {
    throw std::invalid_argument("need at least one processor");
  }
  std::vector<std::size_t> assignment(classes.size());
  for (std::size_t i = 0; i < classes.size(); ++i) {
    assignment[i] = i % num_processors;
  }
  return assignment;
}

std::vector<std::size_t> processor_loads(
    std::span<const EquivalenceClass> classes,
    std::span<const std::size_t> assignment, std::size_t num_processors) {
  ECLAT_CHECK(assignment.size() == classes.size());
  std::vector<std::size_t> load(num_processors, 0);
  for (std::size_t i = 0; i < classes.size(); ++i) {
    ECLAT_CHECK(assignment[i] < num_processors);
    load[assignment[i]] += classes[i].weight();
  }
  return load;
}

}  // namespace eclat
