// Horizontal → vertical database transformation (paper §5.2.2 / §6.3).
//
// A PairKey packs a 2-itemset {i, j} (i < j) into one 64-bit word whose
// order is the pairs' lexicographic order.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "data/horizontal.hpp"
#include "vertical/tidlist.hpp"

namespace eclat {

/// Packed 2-itemset key: high word = smaller item, low word = larger item.
using PairKey = std::uint64_t;

constexpr PairKey make_pair_key(Item a, Item b) {
  return a < b ? (static_cast<PairKey>(a) << 32) | b
               : (static_cast<PairKey>(b) << 32) | a;
}

constexpr Item pair_first(PairKey key) {
  return static_cast<Item>(key >> 32);
}

constexpr Item pair_second(PairKey key) {
  return static_cast<Item>(key & 0xffffffffULL);
}

/// Tid-lists of single items over a span of transactions. Lists come out
/// sorted because transactions are visited in tid order.
std::vector<TidList> invert_items(std::span<const Transaction> transactions,
                                  Item num_items);

class TriangleCounter;

namespace detail {

/// Dense ids for a set of kept items, in item order, and the row-major
/// upper triangle over them: one cell per pair of kept ids. It is the
/// shared core of PairSlots, which keeps the items of its requested
/// pairs, and of a filtered TriangleCounter, which keeps the frequent
/// items. scan() visits the cell of every kept pair of each transaction.
class DenseTriangle {
 public:
  static constexpr std::uint32_t kAbsent = 0xffffffffU;

  DenseTriangle() = default;
  /// `marks` covers the items below its size, and an entry other than
  /// kAbsent keeps its item. Kept items get the ids 0, 1, ... in order.
  explicit DenseTriangle(std::vector<std::uint32_t> marks);

  bool empty() const { return id_.empty(); }
  /// K(K-1)/2, for the K kept items.
  std::size_t cells() const { return k_ < 2 ? 0 : k_ * (k_ - 1) / 2; }
  /// The dense id of `item`, or kAbsent.
  std::uint32_t id(Item item) const {
    return item < id_.size() ? id_[item] : kAbsent;
  }
  /// The cell of the ids a < b.
  std::size_t cell(std::size_t a, std::size_t b) const;
  /// The kept items, ascending: item of each dense id.
  std::vector<Item> items() const;

  /// Calls visit(cell, tid) for every pair of kept items in each
  /// transaction, in row-major cell order per transaction. Items at or
  /// above the table's end are dropped; returns whether there were any.
  template <typename Visit>
  bool scan(std::span<const Transaction> transactions, Visit&& visit) const;

  friend bool operator==(const DenseTriangle&,
                         const DenseTriangle&) = default;

 private:
  std::vector<std::uint32_t> id_;  ///< item -> dense id, or kAbsent
  std::size_t k_ = 0;
};

}  // namespace detail

/// Slot-indexed pair inversion: the transformation phase's kernel (paper
/// §5.2.2 / §6.3). Built once from a sorted, duplicate-free list of
/// requested pairs; slot i is pairs[i], and every result list is indexed
/// by slot. The K items that occur in some requested pair get dense local
/// ids, and a K(K-1)/2 triangular table maps each local-id pair to its
/// slot. A scan keeps only a transaction's filtered items and enumerates
/// pairs among those, one table load per pair. The miners request
/// frequent pairs, whose items are frequent, so K is at most the K of
/// their filtered TriangleCounter and the 4-byte table at most half its
/// 8-byte triangle.
class PairSlots {
 public:
  explicit PairSlots(std::span<const PairKey> pairs);

  std::size_t size() const { return pairs_.size(); }

  /// The slot of `key`, or size() when it is not a requested pair.
  std::size_t slot(PairKey key) const;

  /// Tid-lists of every slot over one scan, grown as they fill (for
  /// callers that do not know the counts).
  std::vector<TidList> invert(std::span<const Transaction> transactions) const;

  /// Tid-lists of every slot over one scan into lists sized exactly at
  /// `counts`, which must hold the pairs' supports over `transactions`.
  std::vector<TidList> invert(std::span<const Transaction> transactions,
                              const TriangleCounter& counts) const;

  /// Zero-filled lists sized exactly at each pair's count in `counts`.
  std::vector<TidList> make_lists(const TriangleCounter& counts) const;

  /// Write cursors of one block into lists from make_lists: slot i starts
  /// at before->get(pairs[i]), the pair's count over all earlier blocks,
  /// or at 0 for the first block (`before == nullptr`).
  std::vector<Tid*> cursors(std::span<TidList> lists,
                            const TriangleCounter* before) const;

  /// The in-place block writer (§6.3): writes the tid of every occurrence
  /// of slot i's pair in `block` at cursors[i], advancing it. Blocks that
  /// write through disjoint cursor ranges may run concurrently.
  void write(std::span<const Transaction> block,
             std::span<Tid*> cursors) const;

 private:
  static constexpr std::uint32_t kAbsent = 0xffffffffU;

  template <typename Emit>
  void scan(std::span<const Transaction> transactions, Emit&& emit) const;

  std::vector<PairKey> pairs_;
  detail::DenseTriangle ids_;        ///< requested items -> local ids
  std::vector<std::uint32_t> slot_;  ///< local-id triangle -> slot
};

/// Tid-lists of the given 2-itemsets over a span of transactions, keyed
/// by pair: an adapter over PairSlots. `pairs` must be sorted and
/// duplicate-free. Every miner in the library inverts through PairSlots;
/// the one caller left is bench_e2e's traced replica, and the adapter goes
/// once that replica inverts through PairSlots too.
std::unordered_map<PairKey, TidList> invert_pairs(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs);

/// Upper-triangular 2-itemset support counter (paper §5.1): local counts of
/// pairs in one pass over a horizontal partition, O(1) space per pair, no
/// hash structures. The num_items constructor counts all C(N,2) pairs, as
/// the paper does. The filtered one counts only the pairs of the K items
/// whose count reaches minsup (C2 = L1 x L1), in a K(K-1)/2 triangle over
/// their dense ids. A pair with an infrequent item is infrequent itself,
/// so both give the same frequent pairs and supports.
class TriangleCounter {
 public:
  /// Counts every pair of items below `num_items`, which must be >= 2.
  explicit TriangleCounter(Item num_items);

  /// Counts the pairs of the items whose count in `item_counts` is >=
  /// `minsup`; num_items() is item_counts.size(). Fewer than two such
  /// items give an empty triangle.
  TriangleCounter(std::span<const Count> item_counts, Count minsup);

  /// Count every counted 2-subset of every transaction in the span. Items
  /// must be strictly sorted; an item >= num_items() throws
  /// std::out_of_range.
  void count(std::span<const Transaction> transactions);

  /// Support of pair {a, b}; a != b, and both must be counted, or it
  /// throws std::out_of_range.
  Count get(Item a, Item b) const;

  /// Element-wise accumulate another counter (the sum-reduction step).
  /// Both must count the same items, or it throws std::invalid_argument.
  void merge(const TriangleCounter& other);

  Item num_items() const { return num_items_; }

  /// All counted pairs whose count is >= minsup, in lexicographic order.
  std::vector<PairKey> frequent_pairs(Count minsup) const;

  /// Direct access for the Memory Channel reduction (row-major triangle
  /// over the counted items).
  std::span<const Count> raw() const { return counts_; }
  std::span<Count> raw() { return counts_; }

 private:
  std::size_t index(Item a, Item b) const;

  Item num_items_;
  detail::DenseTriangle ids_;  ///< counted items; empty: every item
  std::vector<Count> counts_;
};

}  // namespace eclat
