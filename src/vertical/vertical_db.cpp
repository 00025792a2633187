#include "vertical/vertical_db.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

#include "common/check.hpp"

namespace eclat {
namespace {

// Row-major upper triangle over n ids: cell {a, b} (a < b) sits at
// row_start(a) + (b - a - 1), where rows 0..a-1 hold (n-1) + (n-2) + ... +
// (n-a) = a*n - a*(a+1)/2 cells. This returns that index minus b, so a
// caller adds b once per pair. The math is modular std::size_t: the row-0
// base wraps to SIZE_MAX and adding b > 0 wraps back, and a*(a+1) would
// overflow 32-bit Item arithmetic once the item universe passes ~92k.
constexpr std::size_t triangle_row_base(std::size_t a, std::size_t n) {
  return a * n - a * (a + 1) / 2 - a - 1;
}

}  // namespace

std::vector<TidList> invert_items(std::span<const Transaction> transactions,
                                  Item num_items) {
  std::vector<TidList> lists(num_items);
  for (const Transaction& t : transactions) {
    for (Item item : t.items) {
      ECLAT_DCHECK(item < num_items);
      lists[item].push_back(t.tid);
    }
  }
  return lists;
}

PairSlots::PairSlots(std::span<const PairKey> pairs)
    : pairs_(pairs.begin(), pairs.end()) {
  ECLAT_DCHECK(std::adjacent_find(pairs_.begin(), pairs_.end(),
                                  std::greater_equal<>()) == pairs_.end());
  ECLAT_CHECK(pairs_.size() < kAbsent);
  Item max_item = 0;
  for (PairKey key : pairs_) {
    ECLAT_DCHECK(pair_first(key) < pair_second(key));
    max_item = std::max(max_item, pair_second(key));
  }
  if (!pairs_.empty()) local_.assign(std::size_t{max_item} + 1, kAbsent);
  for (PairKey key : pairs_) {
    local_[pair_first(key)] = 0;
    local_[pair_second(key)] = 0;
  }
  for (std::uint32_t& id : local_) {
    if (id != kAbsent) id = static_cast<std::uint32_t>(k_++);
  }
  slot_.assign(k_ * (k_ - 1) / 2, kAbsent);
  for (std::size_t s = 0; s < pairs_.size(); ++s) {
    const std::size_t a = local_[pair_first(pairs_[s])];
    const std::size_t b = local_[pair_second(pairs_[s])];
    slot_[triangle_row_base(a, k_) + b] = static_cast<std::uint32_t>(s);
  }
}

template <typename Emit>
void PairSlots::scan(std::span<const Transaction> transactions,
                     Emit&& emit) const {
  const std::size_t limit = local_.size();
  std::vector<std::uint32_t> ids;  // one transaction's filtered local ids
  for (const Transaction& t : transactions) {
    ECLAT_DCHECK(is_sorted_itemset(t.items));
    ids.clear();
    for (Item item : t.items) {
      if (item >= limit) break;  // sorted: no later item is requested
      const std::uint32_t id = local_[item];
      if (id != kAbsent) ids.push_back(id);
    }
    // Local ids ascend with items, so ids[i] < ids[j] for i < j.
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      const std::size_t base = triangle_row_base(ids[i], k_);
      for (std::size_t j = i + 1; j < ids.size(); ++j) {
        const std::uint32_t slot = slot_[base + ids[j]];
        if (slot != kAbsent) emit(slot, t.tid);
      }
    }
  }
}

std::vector<TidList> PairSlots::invert(
    std::span<const Transaction> transactions) const {
  std::vector<TidList> lists(size());
  scan(transactions,
       [&](std::uint32_t slot, Tid tid) { lists[slot].push_back(tid); });
  return lists;
}

std::vector<TidList> PairSlots::invert(
    std::span<const Transaction> transactions,
    const TriangleCounter& counts) const {
  std::vector<TidList> lists = make_lists(counts);
  std::vector<Tid*> at = cursors(lists, nullptr);
  write(transactions, at);
  for (std::size_t s = 0; s < size(); ++s) {
    ECLAT_DCHECK(at[s] == lists[s].data() + lists[s].size());
  }
  return lists;
}

std::vector<TidList> PairSlots::make_lists(
    const TriangleCounter& counts) const {
  std::vector<TidList> lists(size());
  for (std::size_t s = 0; s < size(); ++s) {
    lists[s].resize(counts.get(pair_first(pairs_[s]), pair_second(pairs_[s])));
  }
  return lists;
}

std::vector<Tid*> PairSlots::cursors(std::span<TidList> lists,
                                     const TriangleCounter* before) const {
  ECLAT_DCHECK(lists.size() == size());
  std::vector<Tid*> at(size());
  for (std::size_t s = 0; s < size(); ++s) {
    const std::size_t offset =
        before == nullptr
            ? 0
            : before->get(pair_first(pairs_[s]), pair_second(pairs_[s]));
    ECLAT_DCHECK(offset <= lists[s].size());
    at[s] = lists[s].data() + offset;
  }
  return at;
}

void PairSlots::write(std::span<const Transaction> block,
                      std::span<Tid*> cursors) const {
  ECLAT_DCHECK(cursors.size() == size());
  scan(block, [&](std::uint32_t slot, Tid tid) { *cursors[slot]++ = tid; });
}

std::unordered_map<PairKey, TidList> invert_pairs(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs) {
  std::vector<TidList> slotted = PairSlots(pairs).invert(transactions);
  std::unordered_map<PairKey, TidList> lists;
  lists.reserve(pairs.size());
  for (std::size_t s = 0; s < pairs.size(); ++s) {
    lists.emplace(pairs[s], std::move(slotted[s]));
  }
  return lists;
}

TriangleCounter::TriangleCounter(Item num_items) : num_items_(num_items) {
  if (num_items < 2) {
    throw std::invalid_argument("TriangleCounter needs >= 2 items");
  }
  const std::size_t n = num_items;
  counts_.assign(n * (n - 1) / 2, 0);
}

std::size_t TriangleCounter::index(Item a, Item b) const {
  if (a > b) std::swap(a, b);
  if (a == b || b >= num_items_) {
    throw std::out_of_range("invalid pair for TriangleCounter");
  }
  return triangle_row_base(a, num_items_) + b;
}

void TriangleCounter::count(std::span<const Transaction> transactions) {
  const std::size_t n = num_items_;
  Count* const counts = counts_.data();
  for (const Transaction& t : transactions) {
    const std::span<const Item> items = t.items;
    if (items.size() < 2) continue;
    ECLAT_DCHECK(is_sorted_itemset(items));
    // Sorted, so the last item bounds every pair of the transaction.
    if (items.back() >= num_items_) {
      throw std::out_of_range("invalid pair for TriangleCounter");
    }
    for (std::size_t i = 0; i + 1 < items.size(); ++i) {
      const std::size_t base = triangle_row_base(items[i], n);
      for (std::size_t j = i + 1; j < items.size(); ++j) {
        ++counts[base + items[j]];
      }
    }
  }
}

Count TriangleCounter::get(Item a, Item b) const {
  return counts_[index(a, b)];
}

void TriangleCounter::merge(const TriangleCounter& other) {
  if (other.num_items_ != num_items_) {
    throw std::invalid_argument("TriangleCounter size mismatch");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

std::vector<PairKey> TriangleCounter::frequent_pairs(Count minsup) const {
  std::vector<PairKey> pairs;
  for (Item a = 0; a + 1 < num_items_; ++a) {
    const std::size_t base = triangle_row_base(a, num_items_);
    for (Item b = a + 1; b < num_items_; ++b) {
      if (counts_[base + b] >= minsup) {
        pairs.push_back(make_pair_key(a, b));
      }
    }
  }
  return pairs;
}

}  // namespace eclat
