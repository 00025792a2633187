#include "data/horizontal.hpp"

#include <stdexcept>

namespace eclat {

HorizontalDatabase::HorizontalDatabase(std::vector<Transaction> transactions,
                                       Item num_items)
    : transactions_(std::move(transactions)), num_items_(num_items) {
  for (std::size_t i = 0; i < transactions_.size(); ++i) {
    const Transaction& t = transactions_[i];
    if (t.tid >= kTidLimit) {
      throw std::invalid_argument("tid out of range");
    }
    if (i > 0 && t.tid <= transactions_[i - 1].tid) {
      throw std::invalid_argument("tids must be strictly increasing");
    }
    if (!is_sorted_itemset(t.items)) {
      throw std::invalid_argument("transaction items must be strictly sorted");
    }
    for (Item item : t.items) {
      if (item >= num_items_) {
        throw std::invalid_argument("item id out of range");
      }
    }
  }
}

std::span<const Transaction> HorizontalDatabase::view(
    const Block& block) const {
  if (block.begin > block.end || block.end > transactions_.size()) {
    throw std::out_of_range("block out of range");
  }
  return {transactions_.data() + block.begin, block.size()};
}

double HorizontalDatabase::average_transaction_length() const {
  if (transactions_.empty()) return 0.0;
  std::size_t total = 0;
  for (const Transaction& t : transactions_) total += t.items.size();
  return static_cast<double>(total) /
         static_cast<double>(transactions_.size());
}

std::size_t HorizontalDatabase::byte_size() const {
  std::size_t bytes = 0;
  for (const Transaction& t : transactions_) {
    bytes += sizeof(Tid) + sizeof(std::uint32_t) +
             t.items.size() * sizeof(Item);
  }
  return bytes;
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

DatabaseStats compute_stats(const HorizontalDatabase& db) {
  return DatabaseStats{
      .num_transactions = db.size(),
      .avg_transaction_length = db.average_transaction_length(),
      .num_items = db.num_items(),
      .byte_size = db.byte_size(),
  };
}

}  // namespace eclat
