// Candidate hash tree (paper §2): the data structure Apriori-family
// algorithms use for fast subset counting. Interior nodes at depth d hash
// the d-th item of a candidate into a fixed-fanout table; leaves hold the
// candidate itemsets and their running counts.
//
// Includes the two CCPD optimizations the paper's baseline uses (§3,
// ref [16]): hash-tree *balancing* (items are remapped to buckets round-
// robin by descending 1-item frequency so buckets fill evenly) and
// *short-circuited* subset counting (descent stops as soon as the remaining
// transaction suffix is too short to complete a candidate).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "data/horizontal.hpp"

namespace eclat {

struct HashTreeConfig {
  std::size_t fanout = 32;          ///< hash-table width of interior nodes
  std::size_t leaf_capacity = 16;   ///< candidates per leaf before a split
  bool short_circuit = true;        ///< prune hopeless descents
};

/// A candidate itemset with its support counter.
struct Candidate {
  Itemset items;
  Count count = 0;
};

class HashTree {
 public:
  /// Builds a tree over k-itemsets (all inserted itemsets must have length
  /// `k`). An empty `item_to_bucket` means plain modulo hashing; otherwise
  /// it is the balancing permutation (one bucket id per item).
  HashTree(std::size_t k, HashTreeConfig config = {},
           std::vector<std::uint32_t> item_to_bucket = {});
  ~HashTree();

  HashTree(HashTree&&) noexcept;
  HashTree& operator=(HashTree&&) noexcept;
  HashTree(const HashTree&) = delete;
  HashTree& operator=(const HashTree&) = delete;

  /// Insert a candidate with count 0. Itemset length must equal k().
  void insert(Itemset itemset);

  /// Increment the counts of all candidates that are subsets of `t.items`
  /// (the per-transaction support-counting step).
  void count_transaction(const Transaction& t);

  /// Count every transaction in the span.
  void count_all(std::span<const Transaction> transactions);

  /// Visit every candidate (order unspecified).
  void for_each(const std::function<void(const Candidate&)>& fn) const;

  /// Exact count lookup; returns nullptr if the itemset was never inserted.
  const Candidate* find(const Itemset& itemset) const;

  std::size_t k() const { return k_; }
  std::size_t size() const { return size_; }

  /// Number of interior + leaf nodes (for the balancing benchmark).
  std::size_t node_count() const;

 private:
  struct Node;

  std::size_t bucket_of(Item item) const;
  void count_recursive(Node& node, std::span<const Item> transaction,
                       std::span<const Item> suffix, std::size_t depth);

  std::size_t k_;
  HashTreeConfig config_;
  std::vector<std::uint32_t> item_to_bucket_;
  std::unique_ptr<Node> root_;
  std::size_t size_ = 0;
  std::uint64_t visit_stamp_ = 0;
};

/// Balancing permutation: bucket ids assigned round-robin to items sorted by
/// descending frequency, so heavy items spread across buckets (CCPD [16]).
std::vector<std::uint32_t> balanced_bucket_map(
    std::span<const Count> item_frequency, std::size_t fanout);

}  // namespace eclat
