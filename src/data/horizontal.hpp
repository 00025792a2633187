// Horizontal database layout: each transaction is a tid followed by the
// sorted list of items it contains (the "basket data" of the paper, §1.1).
//
// All parallel algorithms in this library assume the database is partitioned
// among processors in equal-sized contiguous blocks (paper §3), so a block
// partition owns a disjoint, monotonically increasing tid range — the
// property Eclat's transformation phase exploits to produce globally sorted
// tid-lists by concatenation (paper §6.3).
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace eclat {

/// One basket: a unique tid and the sorted set of items bought.
struct Transaction {
  Tid tid = 0;
  Itemset items;

  friend bool operator==(const Transaction&, const Transaction&) = default;
};

/// Every tid is below this bound. Tid-lists are built by appending tids
/// in transaction order and a class's tid universe is its last tid + 1,
/// so the largest Tid value would wrap that universe to 0.
inline constexpr Tid kTidLimit = std::numeric_limits<Tid>::max();

/// A contiguous block of a database assigned to one processor.
struct Block {
  std::size_t begin = 0;  ///< index of the first transaction in the block
  std::size_t end = 0;    ///< one past the last transaction

  std::size_t size() const { return end - begin; }

  friend bool operator==(const Block&, const Block&) = default;
};

/// An in-memory horizontal database.
class HorizontalDatabase {
 public:
  HorizontalDatabase() = default;
  /// Throws std::invalid_argument unless every transaction's items are
  /// strictly increasing and below `num_items`, and the tids are strictly
  /// increasing and below kTidLimit. Tids may skip values (a sample keeps
  /// the tids it drew).
  HorizontalDatabase(std::vector<Transaction> transactions, Item num_items);

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  /// Number of distinct items the id space covers (ids are < num_items()).
  Item num_items() const { return num_items_; }

  const Transaction& operator[](std::size_t i) const {
    return transactions_[i];
  }

  const std::vector<Transaction>& transactions() const {
    return transactions_;
  }

  /// View of the transactions in `block`.
  std::span<const Transaction> view(const Block& block) const;

  /// Average number of items per transaction (|T| in the paper's Table 1).
  double average_transaction_length() const;

  /// Approximate on-disk size in bytes (4 bytes per tid, per length word,
  /// and per item — matching the binary format in io.hpp).
  std::size_t byte_size() const;

  /// Split into `parts` equal-sized contiguous blocks (sizes differ by at
  /// most one transaction). `parts` must be >= 1.
  std::vector<Block> block_partition(std::size_t parts) const;

 private:
  std::vector<Transaction> transactions_;
  Item num_items_ = 0;
};

/// Summary statistics (the columns of the paper's Table 1).
struct DatabaseStats {
  std::size_t num_transactions = 0;   ///< |D|
  double avg_transaction_length = 0;  ///< |T|
  Item num_items = 0;                 ///< N
  std::size_t byte_size = 0;          ///< on-disk size
};

DatabaseStats compute_stats(const HorizontalDatabase& db);

}  // namespace eclat
