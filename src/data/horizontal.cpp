#include "data/horizontal.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace eclat {

HorizontalDatabase::HorizontalDatabase(
    std::span<const Transaction> transactions, Item num_items) {
  std::size_t total = 0;
  for (const Transaction& t : transactions) total += t.items.size();
  DatabaseBuilder builder;
  builder.reserve(transactions.size(), total);
  for (const Transaction& t : transactions) builder.add(t.tid, t.items);
  *this = std::move(builder).finish(num_items);
}

HorizontalDatabase::HorizontalDatabase(const HorizontalDatabase& other)
    : items_(other.items_),
      transactions_(other.transactions_),
      num_items_(other.num_items_) {
  // The copied rows still view `other`: point them at this copy's items,
  // which hold the rows back to back in the same order.
  const Item* cursor = items_.data();
  for (Transaction& t : transactions_) {
    t.items = ItemSpan(cursor, t.items.size());
    cursor += t.items.size();
  }
}

HorizontalDatabase& HorizontalDatabase::operator=(
    const HorizontalDatabase& other) {
  if (this != &other) *this = HorizontalDatabase(other);
  return *this;
}

std::span<const Transaction> HorizontalDatabase::view(
    const Block& block) const& {
  if (block.begin > block.end || block.end > transactions_.size()) {
    throw std::out_of_range("block out of range");
  }
  return {transactions_.data() + block.begin, block.size()};
}

double HorizontalDatabase::average_transaction_length() const {
  if (transactions_.empty()) return 0.0;
  return static_cast<double>(items_.size()) /
         static_cast<double>(transactions_.size());
}

std::size_t HorizontalDatabase::byte_size() const {
  return transactions_.size() * (sizeof(Tid) + sizeof(std::uint32_t)) +
         items_.size() * sizeof(Item);
}

std::vector<Block> HorizontalDatabase::block_partition(
    std::size_t parts) const {
  if (parts == 0) throw std::invalid_argument("parts must be >= 1");
  std::vector<Block> blocks(parts);
  const std::size_t base = transactions_.size() / parts;
  const std::size_t extra = transactions_.size() % parts;
  std::size_t cursor = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t len = base + (p < extra ? 1 : 0);
    blocks[p] = Block{cursor, cursor + len};
    cursor += len;
  }
  return blocks;
}

void DatabaseBuilder::reserve(std::size_t rows, std::size_t items) {
  items_.reserve(items);
  rows_.reserve(rows);
  offsets_.reserve(rows + 1);
}

void DatabaseBuilder::end_row(Tid tid) {
  if (tid >= kTidLimit) {
    throw std::invalid_argument("tid out of range");
  }
  if (!rows_.empty() && tid <= rows_.back().tid) {
    throw std::invalid_argument("tids must be strictly increasing");
  }
  const std::span<const Item> row(items_.data() + offsets_.back(),
                                  items_.size() - offsets_.back());
  if (!is_sorted_itemset(row)) {
    throw std::invalid_argument("transaction items must be strictly sorted");
  }
  // Sorted rows put their largest item last, so finish() checks every
  // item's range against this one maximum.
  if (!row.empty()) max_item_ = std::max(max_item_, row.back());
  rows_.push_back(Transaction{tid, {}});
  offsets_.push_back(items_.size());
}

HorizontalDatabase DatabaseBuilder::finish(Item num_items) && {
  ECLAT_CHECK(items_.size() == offsets_.back());  // no row left open
  if (!items_.empty() && max_item_ >= num_items) {
    throw std::invalid_argument("item id out of range");
  }
  HorizontalDatabase db;
  db.items_ = std::move(items_);
  db.transactions_ = std::move(rows_);
  db.num_items_ = num_items;
  for (std::size_t r = 0; r < db.transactions_.size(); ++r) {
    db.transactions_[r].items = ItemSpan(db.items_.data() + offsets_[r],
                                         offsets_[r + 1] - offsets_[r]);
  }
  return db;
}

DatabaseStats compute_stats(const HorizontalDatabase& db) {
  return DatabaseStats{
      .num_transactions = db.size(),
      .avg_transaction_length = db.average_transaction_length(),
      .num_items = db.num_items(),
      .byte_size = db.byte_size(),
  };
}

}  // namespace eclat
