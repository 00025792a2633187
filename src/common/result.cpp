#include "common/result.hpp"

#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace eclat {

ItemsetStore::ItemsetStore(std::span<const FrequentItemset> itemsets) {
  std::size_t items = 0;
  for (const FrequentItemset& f : itemsets) items += f.items.size();
  reserve(itemsets.size(), items);
  for (const FrequentItemset& f : itemsets) push_back(f);
}

ItemsetStore ItemsetStore::with_size_runs(
    std::span<const std::size_t> size_counts) {
  std::size_t itemsets = 0;
  std::size_t items = 0;
  for (std::size_t k = 0; k < size_counts.size(); ++k) {
    itemsets += size_counts[k];
    items += k * size_counts[k];
  }
  checked_offset(items);
  ItemsetStore store;
  store.items_.resize(items);
  store.supports_.resize(itemsets);
  if (itemsets == 0) return store;
  std::vector<std::uint32_t>& offsets = store.offsets_;
  offsets.resize(itemsets + 1);  // offsets[0] == 0
  std::size_t i = 0;
  for (std::size_t k = 0; k < size_counts.size(); ++k) {
    for (std::size_t n = 0; n < size_counts[k]; ++n, ++i) {
      offsets[i + 1] = offsets[i] + static_cast<std::uint32_t>(k);
    }
  }
  return store;
}

std::size_t MiningResult::count_of_size(std::size_t k) const {
  const std::vector<std::size_t> counts = size_counts(itemsets);
  return k < counts.size() ? counts[k] : 0;
}

std::size_t MiningResult::max_size() const {
  const std::vector<std::size_t> counts = size_counts(itemsets);
  return counts.empty() ? 0 : counts.size() - 1;
}

std::vector<std::size_t> size_counts(const ItemsetStore& itemsets) {
  const std::span<const std::uint32_t> offsets = itemsets.offsets();
  std::vector<std::size_t> counts;
  for (std::size_t i = 0; i < itemsets.size(); ++i) {
    const std::size_t k = offsets[i + 1] - offsets[i];
    if (counts.size() <= k) counts.resize(k + 1, 0);
    ++counts[k];
  }
  return counts;
}

bool is_canonical(const ItemsetStore& itemsets) {
  const std::span<const std::uint32_t> offsets = itemsets.offsets();
  const Item* const items = itemsets.items().data();
  // Itemset i - 1 spans [a, b) and itemset i spans [b, e).
  for (std::size_t i = 1; i < itemsets.size(); ++i) {
    const std::uint32_t a = offsets[i - 1];
    const std::uint32_t b = offsets[i];
    const std::uint32_t e = offsets[i + 1];
    if (b - a != e - b) {
      if (b - a > e - b) return false;
      continue;
    }
    std::uint32_t j = 0;
    while (j < b - a && items[a + j] == items[b + j]) ++j;
    if (j == b - a || items[a + j] > items[b + j]) return false;
  }
  return true;
}

ResultScatter::ResultScatter(
    std::span<const std::vector<std::size_t>> part_sizes) {
  std::size_t max_k = 0;
  for (const std::vector<std::size_t>& sizes : part_sizes) {
    max_k = std::max(max_k, sizes.size());
  }
  std::vector<std::size_t> totals(max_k, 0);
  for (const std::vector<std::size_t>& sizes : part_sizes) {
    for (std::size_t k = 0; k < sizes.size(); ++k) totals[k] += sizes[k];
  }
  out_ = ItemsetStore::with_size_runs(totals);
  // Size k's run starts after every smaller size's; within it, each part
  // starts after the earlier parts' itemsets of size k.
  std::vector<std::size_t> next(max_k, 0);
  for (std::size_t k = 1; k < max_k; ++k) {
    next[k] = next[k - 1] + totals[k - 1];
  }
  next_.reserve(part_sizes.size());
  for (const std::vector<std::size_t>& sizes : part_sizes) {
    next_.push_back(next);
    for (std::size_t k = 0; k < sizes.size(); ++k) next[k] += sizes[k];
  }
}

void ResultScatter::copy(std::size_t p, const ItemsetStore& part) {
  std::vector<std::size_t>& next = next_[p];
  const std::span<const std::uint32_t> offsets = part.offsets();
  const Item* const items = part.items().data();
  for (std::size_t i = 0; i < part.size(); ++i) {
    const std::size_t k = offsets[i + 1] - offsets[i];
    ECLAT_DCHECK(k < next.size());
    const std::size_t dest = next[k]++;
    const std::span<Item> to = out_.items_at(dest);
    ECLAT_DCHECK(to.size() == k);
    std::copy_n(items + offsets[i], k, to.begin());
    out_.set_support(dest, part.supports()[i]);
  }
}

namespace {

/// Sort the run [first, last) of `store`, whose itemsets all have the
/// same size, lexicographically.
void sort_run(ItemsetStore& store, std::size_t first, std::size_t last) {
  std::vector<std::size_t> order(last - first);
  std::iota(order.begin(), order.end(), first);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return std::ranges::lexicographical_compare(store[a].items,
                                                store[b].items);
  });
  const std::span<const std::uint32_t> offsets = store.offsets();
  const std::vector<Item> items(store.items().begin() + offsets[first],
                                store.items().begin() + offsets[last]);
  const std::vector<Count> supports(store.supports().begin() + first,
                                    store.supports().begin() + last);
  const std::size_t k = store[first].items.size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    const std::size_t from = order[i] - first;
    std::copy_n(items.begin() + from * k, k,
                store.items_at(first + i).begin());
    store.set_support(first + i, supports[from]);
  }
}

}  // namespace

void normalize(MiningResult& result) {
  if (is_canonical(result.itemsets)) return;
  const std::vector<std::size_t> counts = size_counts(result.itemsets);
  ResultScatter scatter({&counts, 1});
  scatter.copy(0, result.itemsets);
  result.itemsets = scatter.take();
  std::size_t first = 0;
  for (const std::size_t count : counts) {
    const std::size_t last = first + count;
    const ItemsetStore& store = result.itemsets;
    if (!std::is_sorted(store.begin() + static_cast<std::ptrdiff_t>(first),
                        store.begin() + static_cast<std::ptrdiff_t>(last),
                        [](const ItemsetView& a, const ItemsetView& b) {
                          return std::ranges::lexicographical_compare(
                              a.items, b.items);
                        })) {
      sort_run(result.itemsets, first, last);
    }
    first = last;
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
