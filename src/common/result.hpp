// Result types shared by all mining algorithms (sequential and parallel).
#pragma once

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace eclat {

/// Per-level accounting, filled in as an algorithm iterates.
struct LevelStats {
  std::size_t k = 0;           ///< itemset size of this level
  std::size_t candidates = 0;  ///< |Ck| after pruning
  std::size_t frequent = 0;    ///< |Lk|
};

/// One itemset of an ItemsetStore, read in place. The span points into
/// the store's items array: it is valid until the store next grows, is
/// assigned or is destroyed.
struct ItemsetView {
  std::span<const Item> items;
  Count support = 0;

  /// An owning copy, for a caller that keeps the itemset past its store.
  /// Implicit, so a loop written against the owning type (binding
  /// `const FrequentItemset&`) still reads a store; each conversion
  /// allocates, so library code reads views.
  operator FrequentItemset() const {
    return FrequentItemset{Itemset(items.begin(), items.end()), support};
  }

  friend bool operator==(const ItemsetView& a, const ItemsetView& b) {
    return a.support == b.support && std::ranges::equal(a.items, b.items);
  }
  friend bool operator==(const ItemsetView& a, const FrequentItemset& b) {
    return a.support == b.support && std::ranges::equal(a.items, b.items);
  }
};

/// A result's frequent itemsets, flat: every itemset's items back to back
/// in one Item array, n + 1 uint32 offsets into it (itemset i is
/// items[offsets[i], offsets[i + 1])), and one support per itemset. Three
/// allocations in all, where a vector of FrequentItemset makes one per
/// itemset. Read it through ItemsetView; FrequentItemset stays the owning
/// value for producers that build one itemset at a time.
///
/// The offsets cap a store at 2^32 - 1 items; growing past that throws
/// std::length_error. The offsets array is empty while the store is.
class ItemsetStore {
 public:
  /// Random access over the itemsets, yielding views by value.
  class const_iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = ItemsetView;
    using difference_type = std::ptrdiff_t;
    using reference = ItemsetView;
    using pointer = void;

    const_iterator() = default;
    const_iterator(const ItemsetStore* store, std::size_t index)
        : store_(store), index_(index) {}

    ItemsetView operator*() const { return (*store_)[index_]; }
    ItemsetView operator[](difference_type n) const { return *(*this + n); }
    const_iterator& operator++() {
      ++index_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++index_;
      return old;
    }
    const_iterator& operator--() {
      --index_;
      return *this;
    }
    const_iterator operator--(int) {
      const_iterator old = *this;
      --index_;
      return old;
    }
    const_iterator& operator+=(difference_type n) {
      index_ = static_cast<std::size_t>(
          static_cast<difference_type>(index_) + n);
      return *this;
    }
    const_iterator& operator-=(difference_type n) { return *this += -n; }
    friend const_iterator operator+(const_iterator it, difference_type n) {
      return it += n;
    }
    friend const_iterator operator+(difference_type n, const_iterator it) {
      return it += n;
    }
    friend const_iterator operator-(const_iterator it, difference_type n) {
      return it -= n;
    }
    friend difference_type operator-(const const_iterator& a,
                                     const const_iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.index_ == b.index_;
    }
    friend std::strong_ordering operator<=>(const const_iterator& a,
                                            const const_iterator& b) {
      return a.index_ <=> b.index_;
    }

   private:
    const ItemsetStore* store_ = nullptr;
    std::size_t index_ = 0;
  };
  using iterator = const_iterator;
  using value_type = ItemsetView;

  ItemsetStore() = default;
  /// Literal results, as tests write them.
  ItemsetStore(std::initializer_list<FrequentItemset> itemsets)
      : ItemsetStore(std::span<const FrequentItemset>(itemsets.begin(),
                                                      itemsets.size())) {}
  explicit ItemsetStore(std::span<const FrequentItemset> itemsets);

  /// A store laid out in canonical size order for in-place writers:
  /// `size_counts[k]` itemsets of size k, sizes ascending, with every
  /// offset set and every item and support zero.
  static ItemsetStore with_size_runs(std::span<const std::size_t> size_counts);

  /// `items` as an offset; throws std::length_error past 2^32 - 1.
  static std::uint32_t checked_offset(std::size_t items) {
    if (items > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("ItemsetStore: more than 2^32 - 1 items");
    }
    return static_cast<std::uint32_t>(items);
  }

  std::size_t size() const { return supports_.size(); }
  bool empty() const { return supports_.empty(); }
  /// Items over all itemsets.
  std::size_t item_count() const { return items_.size(); }

  ItemsetView operator[](std::size_t i) const {
    return ItemsetView{
        std::span<const Item>(items_).subspan(offsets_[i],
                                              offsets_[i + 1] - offsets_[i]),
        supports_[i]};
  }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }

  void reserve(std::size_t itemsets, std::size_t items) {
    offsets_.reserve(itemsets + 1);
    supports_.reserve(itemsets);
    items_.reserve(items);
  }
  /// Appends one itemset; `items` must not view this store.
  void push_back(std::span<const Item> items, Count support) {
    const std::uint32_t end = checked_offset(items_.size() + items.size());
    if (offsets_.empty()) offsets_.push_back(0);
    items_.insert(items_.end(), items.begin(), items.end());
    offsets_.push_back(end);
    supports_.push_back(support);
  }
  void push_back(const FrequentItemset& itemset) {
    push_back(itemset.items, itemset.support);
  }
  void clear() {
    items_.clear();
    offsets_.clear();
    supports_.clear();
  }

  /// In-place writes to itemset i: the offset scatter fills a store made
  /// by with_size_runs, and the fault layer corrupts mined ones.
  std::span<Item> items_at(std::size_t i) {
    return std::span<Item>(items_).subspan(offsets_[i],
                                           offsets_[i + 1] - offsets_[i]);
  }
  void set_support(std::size_t i, Count support) { supports_[i] = support; }

  /// The three arrays.
  std::span<const Item> items() const { return items_; }
  std::span<const std::uint32_t> offsets() const { return offsets_; }
  std::span<const Count> supports() const { return supports_; }

  friend bool operator==(const ItemsetStore& a, const ItemsetStore& b) {
    return a.supports_ == b.supports_ && a.items_ == b.items_ &&
           (a.empty() || a.offsets_ == b.offsets_);
  }
  /// The same itemsets, in the same order, as a list of owning ones.
  friend bool operator==(const ItemsetStore& a,
                         std::span<const FrequentItemset> b) {
    return std::ranges::equal(a, b);
  }

 private:
  std::vector<Item> items_;
  std::vector<std::uint32_t> offsets_;  ///< empty, or size() + 1 entries
  std::vector<Count> supports_;
};

/// The set of all frequent itemsets plus bookkeeping that the benchmarks
/// report (scan counts back the paper's "three scans" claim).
struct MiningResult {
  ItemsetStore itemsets;
  std::vector<LevelStats> levels;
  std::size_t database_scans = 0;  ///< full passes over the (local) data

  /// Number of frequent itemsets of size k (Figure 6's series).
  std::size_t count_of_size(std::size_t k) const;

  /// Largest frequent-itemset size found.
  std::size_t max_size() const;
};

/// Itemset count per size (index = size; empty when there are none).
std::vector<std::size_t> size_counts(const ItemsetStore& itemsets);

/// True iff `itemsets` is in canonical order: sizes ascend, and each
/// size's run is strictly lexicographic.
bool is_canonical(const ItemsetStore& itemsets);

/// The offset scatter of a final reduction (paper §6.3, applied to the
/// result as the transformation applies it to tid-lists). A result made
/// of parts in commit order — singletons, pairs, then each class's output
/// by ascending class id — is placed stably by size: part p's itemsets of
/// size k land after every size-k itemset of the parts before it. Those
/// destinations are a prefix sum of the parts' per-size counts, so each
/// part is copied into one store sized up front, independently of every
/// other part. When each part's size runs are lexicographic and the parts
/// ascend by prefix, the store comes out canonical.
class ResultScatter {
 public:
  /// `part_sizes[p]`: size_counts of part p, parts in commit order.
  explicit ResultScatter(
      std::span<const std::vector<std::size_t>> part_sizes);

  /// Copy part p, whose size counts were given at construction, to its
  /// ranges. Calls for distinct parts write disjoint ranges and may run
  /// concurrently.
  void copy(std::size_t p, const ItemsetStore& part);

  /// The assembled store, once every part is copied.
  ItemsetStore take() { return std::move(out_); }

 private:
  ItemsetStore out_;
  /// next_[p][k]: destination of part p's first itemset of size k.
  std::vector<std::vector<std::size_t>> next_;
};

/// Canonical order (by size, then lexicographic) so results from different
/// algorithms compare with operator== in tests. A result already in that
/// order (the offset scatter's output) is only verified and left as it
/// is; any other is placed by size into a new store, keeping each size's
/// relative order, and only a run that is not already sorted gets sorted.
void normalize(MiningResult& result);

/// One LevelStats{k, 0, |Lk|} per size k = 1..max_size(), counted in one
/// pass over the itemsets in any order; sizes with no itemsets below the
/// largest get a zero-count level.
std::vector<LevelStats> level_stats(const MiningResult& result);

/// Convert a relative minimum support (e.g. 0.001 for the paper's 0.1%)
/// into the absolute transaction count used internally (ceiling, >= 1).
/// Throws std::invalid_argument unless `fraction` is in [0, 1] (NaN is
/// not).
Count absolute_support(double fraction, std::size_t num_transactions);

}  // namespace eclat
