// Deterministic fuzz harness for the ECLATHDB binary reader: mutated,
// truncated, and adversarial streams fed through read_binary must either
// parse or raise std::runtime_error — never crash (ASan/UBSan-verified in
// the asan-ubsan preset) and never allocate unbounded memory from a
// forged header count. Mirrors tests/test_wire_fuzz.cpp for the on-disk
// format instead of the wire format.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "data/horizontal.hpp"
#include "data/io.hpp"
#include "gen/quest.hpp"
#include "test_util.hpp"

namespace eclat {
namespace {

std::string serialize(const HorizontalDatabase& db) {
  std::ostringstream out(std::ios::binary);
  write_binary(db, out);
  return out.str();
}

HorizontalDatabase parse(const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return read_binary(in);
}

/// Small random database with the invariants write_binary expects:
/// strictly increasing duplicate-free items in [0, num_items).
HorizontalDatabase valid_db(Rng& rng) {
  const Item num_items = static_cast<Item>(4 + rng.below(60));
  DatabaseBuilder builder;
  const std::size_t rows = rng.below(12);
  for (std::size_t i = 0; i < rows; ++i) {
    Itemset items;
    for (Item item = 0; item < num_items; ++item) {
      if (rng.below(4) == 0) items.push_back(item);
    }
    builder.add(static_cast<Tid>(i), items);
  }
  return std::move(builder).finish(num_items);
}

/// Apply one of: truncation, byte flips, or a splice of random bytes —
/// the same mutation model as the wire fuzzer.
std::string mutate(std::string bytes, Rng& rng) {
  switch (rng.below(3)) {
    case 0:  // truncate
      if (!bytes.empty()) bytes.resize(rng.below(bytes.size()));
      break;
    case 1: {  // flip up to 8 bytes
      if (bytes.empty()) break;
      const std::size_t flips = 1 + rng.below(8);
      for (std::size_t f = 0; f < flips; ++f) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<char>(1 + rng.below(255));
      }
      break;
    }
    default: {  // splice random garbage at a random offset
      const std::size_t at = bytes.empty() ? 0 : rng.below(bytes.size());
      std::string garbage(rng.below(24), '\0');
      for (char& byte : garbage) {
        byte = static_cast<char>(rng.below(256));
      }
      bytes.insert(at, garbage);
      break;
    }
  }
  return bytes;
}

TEST(IoFuzz, MutatedStreamsNeverCrash) {
  Rng rng(0xECDB);
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes = mutate(serialize(valid_db(rng)), rng);
    try {
      const HorizontalDatabase db = parse(bytes);
      // A mutation that survives parsing must still satisfy the reader's
      // own invariants: items in range, tids strictly increasing and in
      // range (the miners' tid-lists depend on it).
      for (std::size_t r = 0; r < db.size(); ++r) {
        const Transaction& t = db.transactions()[r];
        for (const Item item : t.items) ASSERT_LT(item, db.num_items());
        ASSERT_LT(t.tid, kTidLimit);
        if (r > 0) {
          ASSERT_LT(db.transactions()[r - 1].tid, t.tid);
        }
      }
    } catch (const std::runtime_error&) {
      // Malformed input detected and rejected: exactly the contract.
    }
  }
}

TEST(IoFuzz, TruncationAtEveryByteBoundary) {
  Rng rng(42);
  const std::string bytes = serialize(valid_db(rng));
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    try {
      (void)parse(bytes.substr(0, cut));
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(IoFuzz, ValidStreamsRoundTripUnmutated) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const HorizontalDatabase original = valid_db(rng);
    const HorizontalDatabase readback = parse(serialize(original));
    ASSERT_EQ(readback.num_items(), original.num_items());
    ASSERT_EQ(readback.size(), original.size());
    for (std::size_t t = 0; t < original.size(); ++t) {
      EXPECT_EQ(readback.transactions()[t].tid,
                original.transactions()[t].tid);
      EXPECT_EQ(readback.transactions()[t].items,
                original.transactions()[t].items);
    }
  }
}

// --- Forged headers: hostile counts must throw, never drive a large
// allocation up front. ---

/// Valid magic + version header followed by caller-chosen counts.
std::string forged_header(std::uint32_t num_items,
                          std::uint64_t num_transactions) {
  std::ostringstream out(std::ios::binary);
  out.write("ECLATHDB", 8);
  const std::uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_items), sizeof(num_items));
  out.write(reinterpret_cast<const char*>(&num_transactions),
            sizeof(num_transactions));
  return out.str();
}

TEST(IoFuzz, ForgedHugeTransactionCountIsRejectedNotAllocated) {
  // 2^64-1 claimed transactions with an empty body: the reserve must be
  // capped (no 100-exabyte allocation) and the first read must throw.
  const std::string bytes =
      forged_header(8, std::numeric_limits<std::uint64_t>::max());
  EXPECT_THROW((void)parse(bytes), std::runtime_error);
}

TEST(IoFuzz, ForgedHugeItemCountIsRejectedNotAllocated) {
  // One transaction claiming 2^32-1 items backed by nothing.
  std::string bytes = forged_header(8, 1);
  const Tid tid = 0;
  const std::uint32_t count = std::numeric_limits<std::uint32_t>::max();
  bytes.append(reinterpret_cast<const char*>(&tid), sizeof(tid));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  EXPECT_THROW((void)parse(bytes), std::runtime_error);
}

TEST(IoFuzz, ItemOutOfDeclaredRangeIsRejected) {
  std::string bytes = forged_header(4, 1);
  const Tid tid = 0;
  const std::uint32_t count = 1;
  const Item item = 4;  // == num_items: first out-of-range value
  bytes.append(reinterpret_cast<const char*>(&tid), sizeof(tid));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  bytes.append(reinterpret_cast<const char*>(&item), sizeof(item));
  EXPECT_THROW((void)parse(bytes), std::runtime_error);
}

TEST(IoFuzz, NonIncreasingItemsAreRejected) {
  std::string bytes = forged_header(8, 1);
  const Tid tid = 0;
  const std::uint32_t count = 2;
  const Item items[2] = {3, 3};  // duplicate: not strictly increasing
  bytes.append(reinterpret_cast<const char*>(&tid), sizeof(tid));
  bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
  bytes.append(reinterpret_cast<const char*>(items), sizeof(items));
  EXPECT_THROW((void)parse(bytes), std::runtime_error);
}

/// A well-formed stream of `rows`, whatever their tids.
std::string forged_stream(const std::vector<testutil::Basket>& rows,
                          std::uint32_t num_items) {
  std::string bytes = forged_header(num_items, rows.size());
  for (const testutil::Basket& t : rows) {
    const auto count = static_cast<std::uint32_t>(t.items.size());
    bytes.append(reinterpret_cast<const char*>(&t.tid), sizeof(t.tid));
    bytes.append(reinterpret_cast<const char*>(&count), sizeof(count));
    bytes.append(reinterpret_cast<const char*>(t.items.data()),
                 t.items.size() * sizeof(Item));
  }
  return bytes;
}

TEST(IoFuzz, DescendingTidsAreRejected) {
  // Stored with descending tids, these baskets would mine without the
  // frequent {0 1 2} (support 2) under short-circuit and gallop: both
  // merge tid-lists that must be sorted.
  const std::vector<testutil::Basket> rows = {
      {4, {0, 1, 2}}, {3, {0, 1}}, {2, {1, 2}}, {1, {0, 1, 2}}, {0, {0, 2}}};
  EXPECT_THROW((void)parse(forged_stream(rows, 3)), std::runtime_error);
  // The same rows in ascending tid order parse.
  const std::vector<testutil::Basket> ascending(rows.rbegin(), rows.rend());
  EXPECT_EQ(parse(forged_stream(ascending, 3)).size(), rows.size());
}

TEST(IoFuzz, LargestTidIsRejected) {
  // Tid 0xFFFFFFFF would wrap a class's tid universe (last tid + 1) to 0,
  // and the bitset kernel would write out of bounds.
  const std::vector<testutil::Basket> rows = {{0, {0, 1}},
                                              {0xFFFFFFFFU, {0, 1}}};
  EXPECT_THROW((void)parse(forged_stream(rows, 2)), std::runtime_error);
}

TEST(IoFuzz, WrongMagicAndWrongVersionAreRejected) {
  Rng rng(3);
  std::string bytes = serialize(valid_db(rng));
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW((void)parse(wrong_magic), std::runtime_error);
  std::string wrong_version = bytes;
  wrong_version[8] = 99;
  EXPECT_THROW((void)parse(wrong_version), std::runtime_error);
  EXPECT_THROW((void)parse(std::string()), std::runtime_error);
}

// --- The loader's bounds: only the stream's bytes size an allocation. ---

TEST(LoaderBounds, ClaimBeyondTheStreamThrowsBeforeAllocating) {
  // Two empty rows: 16 bytes after the header hold at most 2 rows.
  std::string body = forged_stream({{0, {}}, {1, {}}}, 4).substr(24);
  EXPECT_EQ(parse(forged_header(4, 2) + body).size(), 2u);
  // One row more than the bytes can hold, and a claim that would need
  // terabytes if it sized anything: both throw on the header alone.
  for (const std::uint64_t claim : {std::uint64_t{3}, std::uint64_t{1} << 40}) {
    try {
      (void)parse(forged_header(4, claim) + body);
      ADD_FAILURE() << "parsed a claim of " << claim;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("header claims"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(LoaderBounds, ItemCountPastTheEndThrows) {
  std::string bytes = forged_stream({{0, {1, 2, 3}}}, 4);
  bytes.resize(bytes.size() - sizeof(Item));
  EXPECT_THROW((void)parse(bytes), std::runtime_error);
  // The same with a second row declared after it.
  bytes = forged_stream({{0, {1}}, {1, {1, 2, 3}}}, 4);
  bytes.resize(bytes.size() - 2);
  EXPECT_THROW((void)parse(bytes), std::runtime_error);
}

TEST(LoaderBounds, BytesAfterTheLastTransactionAreIgnored) {
  const std::string bytes = forged_stream({{0, {1, 3}}, {5, {0}}}, 4);
  for (const std::string& tail :
       {std::string("x"), std::string(13, '\xff'), bytes}) {
    const HorizontalDatabase db = parse(bytes + tail);
    EXPECT_EQ(serialize(db), bytes);
  }
}

/// Serves a byte string through underflow() in pieces of `piece` bytes
/// and cannot seek, as a pipe or socket stream does.
class PipeBuffer : public std::streambuf {
 public:
  PipeBuffer(std::string bytes, std::size_t piece)
      : bytes_(std::move(bytes)), piece_(piece) {}

 protected:
  int_type underflow() override {
    if (gptr() != nullptr && gptr() < egptr()) {
      return traits_type::to_int_type(*gptr());
    }
    if (served_ == bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min(piece_, bytes_.size() - served_);
    char* const begin = bytes_.data() + served_;
    setg(begin, begin, begin + n);
    served_ += n;
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string bytes_;
  std::size_t piece_;
  std::size_t served_ = 0;
};

HorizontalDatabase parse_unseekable(const std::string& bytes) {
  PipeBuffer buffer(bytes, 1000);
  std::istream in(&buffer);
  return read_binary(in);
}

TEST(LoaderBounds, UnseekableStreamLoadsTheSameDatabase) {
  // Over 256 KiB, so the body spans several chunks.
  gen::QuestConfig config;
  config.num_transactions = 30000;
  config.num_items = 200;
  const std::string bytes = serialize(gen::QuestGenerator(config).generate());
  ASSERT_GT(bytes.size(), std::size_t{3} << 18);
  std::istringstream probe(bytes);
  ASSERT_NE(probe.rdbuf()->pubseekoff(0, std::ios::end, std::ios::in),
            std::streampos(-1));
  PipeBuffer pipe(bytes, 1000);
  ASSERT_EQ(pipe.pubseekoff(0, std::ios::end, std::ios::in),
            std::streampos(-1));

  const HorizontalDatabase seekable = parse(bytes);
  const HorizontalDatabase unseekable = parse_unseekable(bytes);
  EXPECT_EQ(serialize(seekable), bytes);
  EXPECT_EQ(serialize(unseekable), bytes);
  // Without a length to check a claim against, a forged count fails as a
  // truncated stream, still as std::runtime_error.
  EXPECT_THROW((void)parse_unseekable(forged_header(4, std::uint64_t{1} << 40)),
               std::runtime_error);
  EXPECT_THROW((void)parse_unseekable(bytes.substr(0, bytes.size() - 1)),
               std::runtime_error);
}

}  // namespace
}  // namespace eclat
