#include "data/horizontal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "data/io.hpp"

namespace eclat {
namespace {

HorizontalDatabase tiny_db() {
  std::vector<Transaction> transactions = {
      {0, {1, 3, 4}},
      {1, {2, 3}},
      {2, {0, 1, 2, 3, 4}},
      {3, {4}},
  };
  return HorizontalDatabase(std::move(transactions), 5);
}

TEST(HorizontalDatabase, BasicAccessors) {
  const HorizontalDatabase db = tiny_db();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_FALSE(db.empty());
  EXPECT_EQ(db.num_items(), 5u);
  EXPECT_EQ(db[2].items, (Itemset{0, 1, 2, 3, 4}));
}

TEST(HorizontalDatabase, RejectsUnsortedTransaction) {
  std::vector<Transaction> transactions = {{0, {3, 1}}};
  EXPECT_THROW(HorizontalDatabase(std::move(transactions), 5),
               std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsDuplicateItems) {
  std::vector<Transaction> transactions = {{0, {1, 1}}};
  EXPECT_THROW(HorizontalDatabase(std::move(transactions), 5),
               std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsOutOfRangeItem) {
  std::vector<Transaction> transactions = {{0, {1, 9}}};
  EXPECT_THROW(HorizontalDatabase(std::move(transactions), 5),
               std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsTidsOutOfOrderOrOutOfRange) {
  std::vector<Transaction> descending = {{1, {0}}, {0, {1}}};
  EXPECT_THROW(HorizontalDatabase(std::move(descending), 5),
               std::invalid_argument);
  std::vector<Transaction> repeated = {{2, {0}}, {2, {1}}};
  EXPECT_THROW(HorizontalDatabase(std::move(repeated), 5),
               std::invalid_argument);
  std::vector<Transaction> largest = {{kTidLimit, {0}}};
  EXPECT_THROW(HorizontalDatabase(std::move(largest), 5),
               std::invalid_argument);
  // Gaps are fine: a sample keeps the tids it drew.
  std::vector<Transaction> gapped = {{3, {0}}, {7, {1}}, {kTidLimit - 1, {2}}};
  EXPECT_EQ(HorizontalDatabase(std::move(gapped), 5).size(), 3u);
}

TEST(HorizontalDatabase, AverageTransactionLength) {
  const HorizontalDatabase db = tiny_db();
  EXPECT_DOUBLE_EQ(db.average_transaction_length(), (3 + 2 + 5 + 1) / 4.0);
  EXPECT_DOUBLE_EQ(HorizontalDatabase().average_transaction_length(), 0.0);
}

TEST(HorizontalDatabase, ByteSizeMatchesBinaryFormat) {
  const HorizontalDatabase db = tiny_db();
  // per transaction: 4 (tid) + 4 (count) + 4*items
  EXPECT_EQ(db.byte_size(), 4u * 8 + (3 + 2 + 5 + 1) * 4);
}

TEST(HorizontalDatabase, BlockPartitionCoversEverythingOnce) {
  const HorizontalDatabase db = tiny_db();
  for (std::size_t parts : {1u, 2u, 3u, 4u, 7u}) {
    const std::vector<Block> blocks = db.block_partition(parts);
    ASSERT_EQ(blocks.size(), parts);
    std::size_t cursor = 0;
    for (const Block& block : blocks) {
      EXPECT_EQ(block.begin, cursor);
      cursor = block.end;
    }
    EXPECT_EQ(cursor, db.size());
  }
}

TEST(HorizontalDatabase, BlockPartitionIsBalanced) {
  std::vector<Transaction> transactions;
  for (Tid t = 0; t < 10; ++t) transactions.push_back({t, {0}});
  const HorizontalDatabase db(std::move(transactions), 1);
  const std::vector<Block> blocks = db.block_partition(3);
  EXPECT_EQ(blocks[0].size(), 4u);
  EXPECT_EQ(blocks[1].size(), 3u);
  EXPECT_EQ(blocks[2].size(), 3u);
}

TEST(HorizontalDatabase, BlockPartitionRejectsZeroParts) {
  EXPECT_THROW(tiny_db().block_partition(0), std::invalid_argument);
}

TEST(HorizontalDatabase, ViewReturnsBlockSpan) {
  const HorizontalDatabase db = tiny_db();
  const auto span = db.view(Block{1, 3});
  ASSERT_EQ(span.size(), 2u);
  EXPECT_EQ(span[0].tid, 1u);
  EXPECT_EQ(span[1].tid, 2u);
  EXPECT_THROW(db.view(Block{2, 9}), std::out_of_range);
}

TEST(Stats, ComputeStatsMatchesDatabase) {
  const DatabaseStats stats = compute_stats(tiny_db());
  EXPECT_EQ(stats.num_transactions, 4u);
  EXPECT_EQ(stats.num_items, 5u);
  EXPECT_DOUBLE_EQ(stats.avg_transaction_length, 2.75);
  EXPECT_GT(stats.byte_size, 0u);
}

TEST(Io, BinaryRoundTrip) {
  const HorizontalDatabase db = tiny_db();
  std::stringstream stream;
  write_binary(db, stream);
  const HorizontalDatabase copy = read_binary(stream);
  EXPECT_EQ(copy.num_items(), db.num_items());
  ASSERT_EQ(copy.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(copy[i], db[i]);
  }
}

TEST(Io, BinaryRejectsGarbage) {
  std::stringstream stream("this is not a database");
  EXPECT_THROW(read_binary(stream), std::runtime_error);
}

TEST(Io, BinaryRejectsTruncation) {
  const HorizontalDatabase db = tiny_db();
  std::stringstream stream;
  write_binary(db, stream);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream half(bytes);
  EXPECT_THROW(read_binary(half), std::runtime_error);
}

TEST(Io, TextRoundTrip) {
  const HorizontalDatabase db = tiny_db();
  std::stringstream stream;
  write_text(db, stream);
  const HorizontalDatabase copy = read_text(stream);
  ASSERT_EQ(copy.size(), db.size());
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(copy[i].items, db[i].items);
  }
}

TEST(Io, TextSortsAndDeduplicates) {
  std::stringstream stream("5 1 3 1\n\n2 2\n");
  const HorizontalDatabase db = read_text(stream);
  ASSERT_EQ(db.size(), 2u);
  EXPECT_EQ(db[0].items, (Itemset{1, 3, 5}));
  EXPECT_EQ(db[1].items, (Itemset{2}));
  EXPECT_EQ(db.num_items(), 6u);
}

TEST(Io, TextHonorsMinNumItems) {
  std::stringstream stream("0 1\n");
  const HorizontalDatabase db = read_text(stream, 100);
  EXPECT_EQ(db.num_items(), 100u);
}

TEST(Io, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eclat_io_test.bin").string();
  const HorizontalDatabase db = tiny_db();
  write_binary_file(db, path);
  const HorizontalDatabase copy = read_binary_file(path);
  EXPECT_EQ(copy.size(), db.size());
  std::filesystem::remove(path);
}

TEST(Io, MissingFileThrows) {
  EXPECT_THROW(read_binary_file("/nonexistent/nope.bin"), std::runtime_error);
}

}  // namespace
}  // namespace eclat
