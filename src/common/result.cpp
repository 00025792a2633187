#include "common/result.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace eclat {

namespace {

/// Itemset count per size (index = size; empty when there are none).
std::vector<std::size_t> size_counts(
    const std::vector<FrequentItemset>& itemsets) {
  std::vector<std::size_t> counts;
  for (const FrequentItemset& f : itemsets) {
    const std::size_t k = f.items.size();
    if (counts.size() <= k) counts.resize(k + 1, 0);
    ++counts[k];
  }
  return counts;
}

bool lex_order(const FrequentItemset& a, const FrequentItemset& b) {
  return lex_less(a.items, b.items);
}

}  // namespace

void normalize(MiningResult& result) {
  std::vector<FrequentItemset>& itemsets = result.itemsets;
  const std::vector<std::size_t> counts = size_counts(itemsets);
  // starts[k] is where size k's run begins; the runs are laid out by
  // ascending size, so starts.back() == itemsets.size().
  std::vector<std::size_t> starts(counts.size() + 1, 0);
  for (std::size_t k = 0; k < counts.size(); ++k) {
    starts[k + 1] = starts[k] + counts[k];
  }
  // Stable placement: the i-th itemset of size k in input order goes to
  // slot starts[k] + i.
  std::vector<std::size_t> next(starts.begin(), starts.end() - 1);
  std::vector<std::size_t> dest(itemsets.size());
  for (std::size_t i = 0; i < itemsets.size(); ++i) {
    dest[i] = next[itemsets[i].items.size()]++;
  }
  // Apply the permutation in place by following its cycles: every swap
  // puts one itemset in its final slot.
  for (std::size_t i = 0; i < itemsets.size(); ++i) {
    while (dest[i] != i) {
      const std::size_t j = dest[i];
      std::swap(itemsets[i], itemsets[j]);
      std::swap(dest[i], dest[j]);
    }
  }
  for (std::size_t k = 0; k < counts.size(); ++k) {
    const auto first =
        itemsets.begin() + static_cast<std::ptrdiff_t>(starts[k]);
    const auto last =
        itemsets.begin() + static_cast<std::ptrdiff_t>(starts[k + 1]);
    if (!std::is_sorted(first, last, lex_order)) {
      std::sort(first, last, lex_order);
    }
  }
}

std::vector<LevelStats> level_stats(const MiningResult& result) {
  const std::vector<std::size_t> counts = size_counts(result.itemsets);
  std::vector<LevelStats> levels;
  for (std::size_t k = 1; k < counts.size(); ++k) {
    levels.push_back(LevelStats{k, 0, counts[k]});
  }
  return levels;
}

Count absolute_support(double fraction, std::size_t num_transactions) {
  // Negated so that NaN fails too; a fraction outside [0, 1] would make
  // the cast below undefined or wrap the threshold.
  if (!(fraction >= 0.0 && fraction <= 1.0)) {
    throw std::invalid_argument("support fraction must be in [0, 1]");
  }
  const double raw = fraction * static_cast<double>(num_transactions);
  const Count support = static_cast<Count>(std::ceil(raw));
  return support == 0 ? 1 : support;
}

}  // namespace eclat
