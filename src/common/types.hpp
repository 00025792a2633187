// Fundamental types shared by every module of the parallel-Eclat library.
//
// Terminology follows the paper (Zaki et al., SPAA 1997):
//   - An *item* is one of N distinct attributes, identified by a dense id.
//   - A *tid* is a transaction identifier; transactions are numbered
//     0..|D|-1 in generation order, so a block partition of the database
//     owns a contiguous, monotonically increasing tid range.
//   - An *itemset* is a lexicographically sorted set of distinct items.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace eclat {

/// Dense item identifier. The paper uses N = 1000 items; 32 bits is ample.
using Item = std::uint32_t;

/// Transaction identifier. Databases up to 6.4M transactions fit easily.
using Tid = std::uint32_t;

/// Support count (number of transactions containing an itemset).
using Count = std::uint64_t;

/// A sorted set of distinct items. Invariant: strictly increasing.
using Itemset = std::vector<Item>;

/// A frequent itemset together with its global support count.
struct FrequentItemset {
  Itemset items;
  Count support = 0;

  friend bool operator==(const FrequentItemset&,
                         const FrequentItemset&) = default;
};

/// Render an itemset as "{3 17 204}" for logs and test diagnostics.
std::string to_string(std::span<const Item> itemset);

/// True iff `itemset` is strictly increasing (the class invariant).
bool is_sorted_itemset(std::span<const Item> itemset);

/// True iff `sub` is a subset of `super` (both must be sorted).
bool is_subset(std::span<const Item> sub, std::span<const Item> super);

/// Lexicographic comparison used to order itemsets within a level.
bool lex_less(const Itemset& a, const Itemset& b);

}  // namespace eclat
