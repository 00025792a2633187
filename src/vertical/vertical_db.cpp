#include "vertical/vertical_db.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
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

namespace detail {

DenseTriangle::DenseTriangle(std::vector<std::uint32_t> marks)
    : id_(std::move(marks)) {
  for (std::uint32_t& id : id_) {
    if (id != kAbsent) id = static_cast<std::uint32_t>(k_++);
  }
}

std::size_t DenseTriangle::cell(std::size_t a, std::size_t b) const {
  ECLAT_DCHECK(a < b && b < k_);
  return triangle_row_base(a, k_) + b;
}

std::vector<Item> DenseTriangle::items() const {
  std::vector<Item> kept;
  kept.reserve(k_);
  for (std::size_t item = 0; item < id_.size(); ++item) {
    if (id_[item] != kAbsent) kept.push_back(static_cast<Item>(item));
  }
  return kept;
}

template <typename Visit>
bool DenseTriangle::scan(std::span<const Transaction> transactions,
                         Visit&& visit) const {
  const std::size_t limit = id_.size();
  const std::size_t k = k_;
  const std::uint32_t* const id = id_.data();
  bool beyond = false;
  std::vector<std::uint32_t> kept;  // one transaction's kept ids
  for (const Transaction& t : transactions) {
    ECLAT_DCHECK(is_sorted_itemset(t.items));
    if (kept.size() < t.items.size()) kept.resize(t.items.size());
    // Every id is written and only a kept one is advanced past, so an
    // absent item costs no branch.
    std::uint32_t* const out = kept.data();
    std::size_t n = 0;
    for (Item item : t.items) {
      if (item >= limit) {  // sorted: no later item is in the table
        beyond = true;
        break;
      }
      const std::uint32_t i = id[item];
      out[n] = i;
      n += i != kAbsent;
    }
    // Ids ascend with items, so out[i] < out[j] for i < j.
    for (std::size_t i = 0; i + 1 < n; ++i) {
      const std::size_t base = triangle_row_base(out[i], k);
      for (std::size_t j = i + 1; j < n; ++j) visit(base + out[j], t.tid);
    }
  }
  return beyond;
}

}  // namespace detail

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
  std::vector<std::uint32_t> marks;
  if (!pairs_.empty()) {
    marks.assign(std::size_t{max_item} + 1, detail::DenseTriangle::kAbsent);
  }
  for (PairKey key : pairs_) {
    marks[pair_first(key)] = 0;
    marks[pair_second(key)] = 0;
  }
  ids_ = detail::DenseTriangle(std::move(marks));
  slot_.assign(ids_.cells(), kAbsent);
  for (std::size_t s = 0; s < pairs_.size(); ++s) {
    slot_[ids_.cell(ids_.id(pair_first(pairs_[s])),
                    ids_.id(pair_second(pairs_[s])))] =
        static_cast<std::uint32_t>(s);
  }
}

std::size_t PairSlots::slot(PairKey key) const {
  const std::uint32_t a = ids_.id(pair_first(key));
  const std::uint32_t b = ids_.id(pair_second(key));
  if (a == kAbsent || b == kAbsent || a >= b) return size();
  const std::uint32_t s = slot_[ids_.cell(a, b)];
  return s == kAbsent ? size() : s;
}

template <typename Emit>
void PairSlots::scan(std::span<const Transaction> transactions,
                     Emit&& emit) const {
  const std::uint32_t* const slot = slot_.data();
  ids_.scan(transactions, [&](std::size_t cell, Tid tid) {
    const std::uint32_t s = slot[cell];
    if (s != kAbsent) emit(s, tid);
  });
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

TriangleCounter::TriangleCounter(std::span<const Count> item_counts,
                                 Count minsup)
    : num_items_(static_cast<Item>(item_counts.size())) {
  ECLAT_CHECK(item_counts.size() < detail::DenseTriangle::kAbsent);
  std::vector<std::uint32_t> marks(item_counts.size(),
                                   detail::DenseTriangle::kAbsent);
  std::size_t k = 0;
  for (std::size_t item = 0; item < item_counts.size(); ++item) {
    if (item_counts[item] >= minsup) {
      marks[item] = 0;
      ++k;
    }
  }
  // Every item counted is the num_items counter's state: no table.
  if (k < item_counts.size()) ids_ = detail::DenseTriangle(std::move(marks));
  counts_.assign(k < 2 ? 0 : k * (k - 1) / 2, 0);
}

std::size_t TriangleCounter::index(Item a, Item b) const {
  if (a > b) std::swap(a, b);
  if (a == b || b >= num_items_) {
    throw std::out_of_range("invalid pair for TriangleCounter");
  }
  if (ids_.empty()) return triangle_row_base(a, num_items_) + b;
  const std::uint32_t id_a = ids_.id(a);
  const std::uint32_t id_b = ids_.id(b);
  if (id_a == detail::DenseTriangle::kAbsent ||
      id_b == detail::DenseTriangle::kAbsent) {
    throw std::out_of_range("TriangleCounter does not count this pair");
  }
  return ids_.cell(id_a, id_b);
}

void TriangleCounter::count(std::span<const Transaction> transactions) {
  Count* const counts = counts_.data();
  if (!ids_.empty()) {
    // The table covers every item below num_items(), so an item beyond
    // it is out of range.
    if (ids_.scan(transactions,
                  [counts](std::size_t cell, Tid) { ++counts[cell]; })) {
      throw std::out_of_range("invalid pair for TriangleCounter");
    }
    return;
  }
  const std::size_t n = num_items_;
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
  if (other.num_items_ != num_items_ || other.ids_ != ids_) {
    throw std::invalid_argument("TriangleCounters count different items");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
}

std::vector<PairKey> TriangleCounter::frequent_pairs(Count minsup) const {
  std::vector<Item> items = ids_.items();
  if (ids_.empty()) {
    items.resize(num_items_);
    std::iota(items.begin(), items.end(), Item{0});
  }
  // Row-major, so the cells of pairs (a, a+1..K-1) follow one another.
  std::vector<PairKey> pairs;
  const Count* cell = counts_.data();
  for (std::size_t a = 0; a + 1 < items.size(); ++a) {
    for (std::size_t b = a + 1; b < items.size(); ++b) {
      if (*cell++ >= minsup) pairs.push_back(make_pair_key(items[a], items[b]));
    }
  }
  return pairs;
}

}  // namespace eclat
