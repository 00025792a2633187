// Horizontal database layout: each transaction is a tid followed by the
// sorted list of items it contains (the "basket data" of the paper, §1.1).
//
// The store is compressed sparse rows: one array holds every basket back
// to back, and each Transaction row is a tid plus a view of its slice of
// that array. Rows are 24 bytes and a database costs two allocations, not
// one per basket.
//
// All parallel algorithms in this library assume the database is partitioned
// among processors in equal-sized contiguous blocks (paper §3), so a block
// partition owns a disjoint, monotonically increasing tid range — the
// property Eclat's transformation phase exploits to produce globally sorted
// tid-lists by concatenation (paper §6.3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace eclat {

/// A transaction's items: a view into the items array of the database
/// that holds them. It refuses an Itemset&& — a row viewing a temporary
/// would dangle — and adds no state to the span it is.
class ItemSpan : public std::span<const Item> {
 public:
  using std::span<const Item>::span;
  /// The iterators are read-only already; C++23 spans name this type too.
  using const_iterator = iterator;

  constexpr ItemSpan() noexcept = default;
  /// Implicit, as a span's: a row may view a live itemset.
  constexpr ItemSpan(const Itemset& items) noexcept
      : std::span<const Item>(items) {}
  ItemSpan(Itemset&&) = delete;
  ItemSpan(const Itemset&&) = delete;
  ItemSpan& operator=(Itemset&&) = delete;
  ItemSpan& operator=(const Itemset&&) = delete;

  friend bool operator==(ItemSpan a, ItemSpan b) {
    return std::ranges::equal(a, b);
  }
  friend bool operator==(ItemSpan a, const Itemset& b) {
    return std::ranges::equal(a, b);
  }
};
static_assert(sizeof(ItemSpan) == sizeof(std::span<const Item>));

/// One basket: a unique tid and the sorted set of items bought. The items
/// belong to the database the row came from and live as long as it does.
struct Transaction {
  Tid tid = 0;
  ItemSpan items;

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

/// An in-memory horizontal database. Copies own their items; moves keep
/// the rows' views valid.
class HorizontalDatabase {
 public:
  HorizontalDatabase() = default;
  /// A database of its own holding a copy of the rows' items; the rows may
  /// view another database, which may then go away. Throws
  /// std::invalid_argument unless every transaction's items are strictly
  /// increasing and below `num_items`, and the tids are strictly
  /// increasing and below kTidLimit. Tids may skip values (a sample keeps
  /// the tids it drew).
  HorizontalDatabase(std::span<const Transaction> transactions,
                     Item num_items);

  HorizontalDatabase(const HorizontalDatabase& other);
  HorizontalDatabase& operator=(const HorizontalDatabase& other);
  HorizontalDatabase(HorizontalDatabase&&) noexcept = default;
  HorizontalDatabase& operator=(HorizontalDatabase&&) noexcept = default;

  std::size_t size() const { return transactions_.size(); }
  bool empty() const { return transactions_.empty(); }

  /// The tid universe, last tid + 1 (0 when empty): every tid is below it.
  Tid tid_universe() const {
    return transactions_.empty() ? 0 : transactions_.back().tid + 1;
  }

  /// Number of distinct items the id space covers (ids are < num_items()).
  Item num_items() const { return num_items_; }

  const Transaction& operator[](std::size_t i) const {
    return transactions_[i];
  }

  /// The rows view this database's items, so a temporary database has no
  /// rows to hand out.
  const std::vector<Transaction>& transactions() const& {
    return transactions_;
  }
  const std::vector<Transaction>& transactions() const&& = delete;

  /// View of the transactions in `block`.
  std::span<const Transaction> view(const Block& block) const&;
  std::span<const Transaction> view(const Block& block) const&& = delete;

  /// Average number of items per transaction (|T| in the paper's Table 1).
  double average_transaction_length() const;

  /// Approximate on-disk size in bytes (4 bytes per tid, per length word,
  /// and per item — matching the binary format in io.hpp).
  std::size_t byte_size() const;

  /// Split into `parts` equal-sized contiguous blocks (sizes differ by at
  /// most one transaction). `parts` must be >= 1.
  std::vector<Block> block_partition(std::size_t parts) const;

 private:
  friend class DatabaseBuilder;

  std::vector<Item> items_;                // every basket, back to back
  std::vector<Transaction> transactions_;  // rows viewing items_ in order
  Item num_items_ = 0;
};

/// Builds a HorizontalDatabase row by row, checking each row once. Items
/// go straight to the database's one array; the rows' views are made by
/// finish(), once that array no longer moves.
class DatabaseBuilder {
 public:
  /// Room for `rows` transactions holding `items` items in all.
  void reserve(std::size_t rows, std::size_t items);

  /// Appends one transaction (append() then end_row()).
  void add(Tid tid, std::span<const Item> items) {
    append(items);
    end_row(tid);
  }

  /// Appends `items` to the row the next end_row() closes.
  void append(std::span<const Item> items) {
    items_.insert(items_.end(), items.begin(), items.end());
  }

  /// Closes the open row as transaction `tid`. Throws std::invalid_argument
  /// unless its items are strictly increasing and `tid` is below kTidLimit
  /// and above the previous row's.
  void end_row(Tid tid);

  /// The database over ids below `num_items`; throws std::invalid_argument
  /// when an item added is not below it.
  HorizontalDatabase finish(Item num_items) &&;

 private:
  std::vector<Item> items_;
  std::vector<Transaction> rows_;  // tids only until finish()
  // Row r holds items_[offsets_[r], offsets_[r + 1]); the last offset is
  // where the open row starts.
  std::vector<std::size_t> offsets_{0};
  Item max_item_ = 0;  // the largest item of any row
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
