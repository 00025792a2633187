#include "data/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace eclat {
namespace {

constexpr char kMagic[8] = {'E', 'C', 'L', 'A', 'T', 'H', 'D', 'B'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& stream, const T& value) {
  // eclat-lint: allow(contract-cast) writes sizeof(T) bytes of a live POD to the stream; no untrusted length involved
  stream.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& stream) {
  T value{};
  stream.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!stream) throw std::runtime_error("truncated binary database");
  return value;
}

}  // namespace

void write_binary(const HorizontalDatabase& db, std::ostream& stream) {
  stream.write(kMagic, sizeof(kMagic));
  write_pod(stream, kVersion);
  write_pod(stream, static_cast<std::uint32_t>(db.num_items()));
  write_pod(stream, static_cast<std::uint64_t>(db.size()));
  for (const Transaction& t : db.transactions()) {
    write_pod(stream, t.tid);
    write_pod(stream, static_cast<std::uint32_t>(t.items.size()));
    stream.write(reinterpret_cast<const char*>(t.items.data()),
                 static_cast<std::streamsize>(t.items.size() * sizeof(Item)));
  }
  if (!stream) throw std::runtime_error("failed to write binary database");
}

HorizontalDatabase read_binary(std::istream& stream) {
  char magic[8];
  stream.read(magic, sizeof(magic));
  if (!stream || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not an ECLATHDB binary database");
  }
  const auto version = read_pod<std::uint32_t>(stream);
  if (version != kVersion) {
    throw std::runtime_error("unsupported binary database version");
  }
  const auto num_items = read_pod<std::uint32_t>(stream);
  const auto num_transactions = read_pod<std::uint64_t>(stream);
  // Header counts are untrusted: a forged num_transactions or item count
  // must never drive a large allocation up front (the stream would run
  // out long before, but the reserve/resize would already have happened).
  // Reservations are capped and items are read one at a time, so a
  // malformed stream always surfaces as std::runtime_error, never as OOM.
  constexpr std::uint64_t kReserveCap = 4096;
  std::vector<Transaction> transactions;
  transactions.reserve(static_cast<std::size_t>(
      std::min(num_transactions, kReserveCap)));
  for (std::uint64_t i = 0; i < num_transactions; ++i) {
    Transaction t;
    t.tid = read_pod<Tid>(stream);
    // The constructor's tid contract, checked here so that a bad stream
    // fails as std::runtime_error like every other malformed input.
    if (t.tid >= kTidLimit) {
      throw std::runtime_error("corrupt binary database: tid out of range");
    }
    if (!transactions.empty() && t.tid <= transactions.back().tid) {
      throw std::runtime_error(
          "corrupt binary database: tids not strictly increasing");
    }
    const auto count = read_pod<std::uint32_t>(stream);
    t.items.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, kReserveCap)));
    for (std::uint32_t j = 0; j < count; ++j) {
      const auto item = read_pod<Item>(stream);
      // Transactions are sorted, duplicate-free item lists over
      // [0, num_items) — anything else would index out of bounds (or
      // silently miscount) downstream, so reject it at the boundary.
      if (item >= num_items) {
        throw std::runtime_error("corrupt binary database: item out of range");
      }
      if (j > 0 && item <= t.items.back()) {
        throw std::runtime_error(
            "corrupt binary database: items not strictly increasing");
      }
      t.items.push_back(item);
    }
    transactions.push_back(std::move(t));
  }
  return HorizontalDatabase(std::move(transactions), num_items);
}

void write_binary_file(const HorizontalDatabase& db, const std::string& path) {
  std::ofstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open for write: " + path);
  write_binary(db, file);
}

HorizontalDatabase read_binary_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open for read: " + path);
  return read_binary(file);
}

void write_text(const HorizontalDatabase& db, std::ostream& stream) {
  for (const Transaction& t : db.transactions()) {
    for (std::size_t i = 0; i < t.items.size(); ++i) {
      if (i != 0) stream << ' ';
      stream << t.items[i];
    }
    stream << '\n';
  }
}

HorizontalDatabase read_text(std::istream& stream, Item min_num_items) {
  std::vector<Transaction> transactions;
  Item max_item = 0;
  std::string line;
  Tid tid = 0;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    Itemset items;
    Item item;
    while (fields >> item) items.push_back(item);
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    if (items.empty()) continue;
    max_item = std::max(max_item, items.back());
    transactions.push_back(Transaction{tid++, std::move(items)});
  }
  const Item num_items =
      std::max<Item>(min_num_items, transactions.empty() ? 0 : max_item + 1);
  return HorizontalDatabase(std::move(transactions), num_items);
}

void write_text_file(const HorizontalDatabase& db, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("cannot open for write: " + path);
  write_text(db, file);
}

HorizontalDatabase read_text_file(const std::string& path,
                                  Item min_num_items) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("cannot open for read: " + path);
  return read_text(file, min_num_items);
}

}  // namespace eclat
