#include "data/result_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>

#include "eclat/eclat_seq.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

MiningResult sample_result() {
  EclatConfig config;
  config.minsup = 5;
  return eclat_sequential(testutil::small_quest_db(), config);
}

TEST(ResultIo, BinaryRoundTrip) {
  const MiningResult original = sample_result();
  std::stringstream stream;
  write_result(original, stream);
  const MiningResult copy = read_result(stream);
  ASSERT_EQ(copy.itemsets.size(), original.itemsets.size());
  for (std::size_t i = 0; i < original.itemsets.size(); ++i) {
    EXPECT_EQ(copy.itemsets[i], original.itemsets[i]);
  }
  EXPECT_EQ(copy.max_size(), original.max_size());
}

TEST(ResultIo, TextRoundTrip) {
  const MiningResult original = sample_result();
  std::stringstream stream;
  write_result_text(original, stream);
  const MiningResult copy = read_result_text(stream);
  ASSERT_EQ(copy.itemsets.size(), original.itemsets.size());
  for (std::size_t i = 0; i < original.itemsets.size(); ++i) {
    EXPECT_EQ(copy.itemsets[i], original.itemsets[i]);
  }
}

TEST(ResultIo, TextFormatIsSpmfStyle) {
  MiningResult result;
  result.itemsets = {{{1, 5, 9}, 42}};
  std::stringstream stream;
  write_result_text(result, stream);
  EXPECT_EQ(stream.str(), "1 5 9 #SUP: 42\n");
}

TEST(ResultIo, BinaryRejectsGarbage) {
  std::stringstream garbage("nope");
  EXPECT_THROW(read_result(garbage), std::runtime_error);
}

TEST(ResultIo, BinaryRejectsTruncation) {
  const MiningResult original = sample_result();
  std::stringstream stream;
  write_result(original, stream);
  std::string bytes = stream.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated(bytes);
  EXPECT_THROW(read_result(truncated), std::runtime_error);
}

TEST(ResultIo, BinaryRejectsCorruptItemsets) {
  // Hand-craft a file with an unsorted itemset.
  std::stringstream stream;
  stream.write("ECLATRES", 8);
  const std::uint64_t count = 1;
  stream.write(reinterpret_cast<const char*>(&count), 8);
  const std::uint32_t length = 2;
  stream.write(reinterpret_cast<const char*>(&length), 4);
  const Item items[2] = {9, 3};  // unsorted
  stream.write(reinterpret_cast<const char*>(items), 8);
  const Count support = 1;
  stream.write(reinterpret_cast<const char*>(&support), 8);
  EXPECT_THROW(read_result(stream), std::runtime_error);
}

/// An ECLATRES header claiming `count` itemsets, followed by nothing but
/// an optional first itemset length.
std::string forged_header(std::uint64_t count,
                          std::optional<std::uint32_t> length = {}) {
  std::string bytes = "ECLATRES";
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  if (length) {
    bytes.append(reinterpret_cast<const char*>(&*length), sizeof(*length));
  }
  return bytes;
}

TEST(ResultIo, BinaryRejectsForgedCountsWithoutLargeAllocations) {
  // A forged itemset count or length is malformed input: it must surface
  // as std::runtime_error, never as std::length_error or std::bad_alloc
  // from a reservation sized by the header.
  const auto read_bytes = [](const std::string& bytes) {
    std::stringstream stream(bytes);
    return read_result(stream);
  };
  EXPECT_THROW(read_bytes(forged_header(std::uint64_t{1} << 62)),
               std::runtime_error);
  EXPECT_THROW(read_bytes(forged_header(std::uint64_t{1} << 40)),
               std::runtime_error);
  EXPECT_THROW(read_bytes(forged_header(1, 0xFFFFFFFFu)),
               std::runtime_error);
}

TEST(ResultIo, TextRejectsMissingMarker) {
  std::stringstream stream("1 2 3\n");
  EXPECT_THROW(read_result_text(stream), std::runtime_error);
}

TEST(ResultIo, TextRejectsBadSupport) {
  std::stringstream stream("1 2 #SUP: banana\n");
  EXPECT_THROW(read_result_text(stream), std::runtime_error);
}

TEST(ResultIo, FileRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "eclat_result_io.bin")
          .string();
  const MiningResult original = sample_result();
  write_result_file(original, path);
  const MiningResult copy = read_result_file(path);
  EXPECT_EQ(copy.itemsets.size(), original.itemsets.size());
  std::filesystem::remove(path);
}

TEST(ResultIo, EmptyResultRoundTrips) {
  MiningResult empty;
  std::stringstream stream;
  write_result(empty, stream);
  EXPECT_TRUE(read_result(stream).itemsets.empty());
}

}  // namespace
}  // namespace eclat
