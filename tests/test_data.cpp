#include "data/horizontal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "data/io.hpp"
#include "gen/quest.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

using testutil::database_of;

HorizontalDatabase tiny_db() {
  return database_of(
      {
          {0, {1, 3, 4}},
          {1, {2, 3}},
          {2, {0, 1, 2, 3, 4}},
          {3, {4}},
      },
      5);
}

TEST(HorizontalDatabase, BasicAccessors) {
  const HorizontalDatabase db = tiny_db();
  EXPECT_EQ(db.size(), 4u);
  EXPECT_FALSE(db.empty());
  EXPECT_EQ(db.num_items(), 5u);
  EXPECT_EQ(db[2].items, (Itemset{0, 1, 2, 3, 4}));
}

TEST(HorizontalDatabase, RejectsUnsortedTransaction) {
  EXPECT_THROW(database_of({{0, {3, 1}}}, 5), std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsDuplicateItems) {
  EXPECT_THROW(database_of({{0, {1, 1}}}, 5), std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsOutOfRangeItem) {
  EXPECT_THROW(database_of({{0, {1, 9}}}, 5), std::invalid_argument);
}

TEST(HorizontalDatabase, RejectsTidsOutOfOrderOrOutOfRange) {
  EXPECT_THROW(database_of({{1, {0}}, {0, {1}}}, 5), std::invalid_argument);
  EXPECT_THROW(database_of({{2, {0}}, {2, {1}}}, 5), std::invalid_argument);
  EXPECT_THROW(database_of({{kTidLimit, {0}}}, 5), std::invalid_argument);
  // Gaps are fine: a sample keeps the tids it drew.
  EXPECT_EQ(database_of({{3, {0}}, {7, {1}}, {kTidLimit - 1, {2}}}, 5).size(),
            3u);
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
  std::vector<testutil::Basket> baskets;
  for (Tid t = 0; t < 10; ++t) baskets.push_back({t, {0}});
  const HorizontalDatabase db = database_of(baskets, 1);
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

/// Expects read_text to throw std::runtime_error naming `line`.
void expect_text_rejected(const std::string& text, std::size_t line) {
  std::stringstream stream(text);
  try {
    (void)read_text(stream);
    ADD_FAILURE() << "parsed: " << text;
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("line " + std::to_string(line)),
              std::string::npos)
        << error.what();
  }
}

TEST(Io, TextRejectsNonNumericToken) {
  // A reader that stops at the x would load {1 2}.
  expect_text_rejected("1 2 x 3\n", 1);
  expect_text_rejected("0 1\n\n1 2 x 3\n", 3);
}

TEST(Io, TextRejectsItemOutOfRange) {
  // A reader that stops at 2^32 would load {7}.
  expect_text_rejected("7 4294967296 2\n", 1);
  // 0xFFFFFFFF is no id either: num_items = max item + 1 would wrap to 0.
  expect_text_rejected("3\n4294967295\n", 2);
}

TEST(Io, TextRejectsNegativeItem) {
  // Read as an unsigned, -1 wraps to 0xFFFFFFFF and num_items to 0.
  expect_text_rejected("1 -1\n", 1);
}

TEST(Io, TextNumbersTidsOverNonEmptyLines) {
  std::stringstream stream("4 2\n\n \t\n3\r\n4294967294\n");
  const HorizontalDatabase db = read_text(stream);
  ASSERT_EQ(db.size(), 3u);
  for (Tid t = 0; t < 3; ++t) EXPECT_EQ(db[t].tid, t);
  EXPECT_EQ(db[0].items, (Itemset{2, 4}));
  EXPECT_EQ(db[1].items, (Itemset{3}));
  EXPECT_EQ(db.num_items(), 4294967295u);
}

// --- Rows are views into their database's items array. ---

static_assert(!std::is_constructible_v<ItemSpan, Itemset&&>);
static_assert(!std::is_constructible_v<ItemSpan, const Itemset&&>);
static_assert(!std::is_assignable_v<ItemSpan&, Itemset&&>);
static_assert(std::is_constructible_v<ItemSpan, const Itemset&>);
static_assert(sizeof(Transaction) == 24);

/// Every row of `db`, read through its view.
std::vector<Itemset> rows_of(const HorizontalDatabase& db) {
  std::vector<Itemset> rows;
  for (const Transaction& t : db.transactions()) {
    rows.emplace_back(t.items.begin(), t.items.end());
  }
  return rows;
}

TEST(HorizontalDatabase, CopiesAndMovesOutliveTheirSource) {
  const std::vector<Itemset> expected = rows_of(tiny_db());
  auto source = std::make_unique<HorizontalDatabase>(tiny_db());
  const HorizontalDatabase copied(*source);
  HorizontalDatabase assigned = testutil::handmade_db();
  assigned = *source;
  source.reset();
  EXPECT_EQ(rows_of(copied), expected);
  EXPECT_EQ(rows_of(assigned), expected);
  EXPECT_EQ(assigned.num_items(), 5u);

  source = std::make_unique<HorizontalDatabase>(tiny_db());
  HorizontalDatabase moved(std::move(*source));
  HorizontalDatabase move_assigned;
  move_assigned = std::move(moved);
  source.reset();
  EXPECT_EQ(rows_of(move_assigned), expected);
}

std::string binary_bytes(const HorizontalDatabase& db) {
  std::ostringstream out(std::ios::binary);
  write_binary(db, out);
  return out.str();
}

TEST(HorizontalDatabase, RowsViewingAnotherDatabaseAreCopied) {
  // The benchmark's make_database: shuffle a generated database's rows,
  // renumber them, and build a database from them.
  gen::QuestConfig config;
  config.num_transactions = 500;
  config.num_items = 40;
  auto generated = std::make_unique<HorizontalDatabase>(
      gen::QuestGenerator(config).generate());
  std::vector<Transaction> shuffled = generated->transactions();
  Rng rng(3);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
  }
  for (std::size_t i = 0; i < shuffled.size(); ++i) {
    shuffled[i].tid = static_cast<Tid>(i);
  }
  DatabaseBuilder direct;
  for (const Transaction& t : shuffled) {
    direct.add(t.tid, Itemset(t.items.begin(), t.items.end()));
  }
  const std::string expected =
      binary_bytes(std::move(direct).finish(config.num_items));
  const HorizontalDatabase rebuilt(std::move(shuffled), config.num_items);
  generated.reset();
  EXPECT_EQ(binary_bytes(rebuilt), expected);
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
