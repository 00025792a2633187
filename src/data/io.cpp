#include "data/io.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>

namespace eclat {
namespace {

constexpr char kMagic[8] = {'E', 'C', 'L', 'A', 'T', 'H', 'D', 'B'};
constexpr std::uint32_t kVersion = 1;

/// The body is read in chunks of this many u32 words (256 KiB).
constexpr std::size_t kChunkWords = std::size_t{1} << 16;

/// Every row stores at least its tid and its item count.
constexpr std::uint64_t kRowHeaderBytes = sizeof(Tid) + sizeof(std::uint32_t);

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

/// Bytes from the stream's position to its end, or nothing when the
/// stream cannot seek. Leaves the position where it was.
std::optional<std::uint64_t> bytes_left(std::istream& stream) {
  std::streambuf* const buffer = stream.rdbuf();
  if (buffer == nullptr) return std::nullopt;
  const std::streampos here =
      buffer->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return std::nullopt;
  const std::streampos end =
      buffer->pubseekoff(0, std::ios::end, std::ios::in);
  if (buffer->pubseekpos(here, std::ios::in) != here) {
    throw std::runtime_error("cannot seek back in binary database stream");
  }
  if (end == std::streampos(-1) || end < here) return std::nullopt;
  return static_cast<std::uint64_t>(end - here);
}

/// Hands out a stream's u32 words from a fixed-size chunk buffer. Chunks
/// are whole words, so a word splits only at a truncated end.
class WordReader {
 public:
  WordReader(std::istream& stream, std::size_t chunk_words)
      : stream_(stream),
        chunk_words_(chunk_words),
        chunk_(std::make_unique_for_overwrite<std::uint32_t[]>(chunk_words)) {}

  /// The next words, at least one and at most `max`; throws at the end of
  /// the stream.
  std::span<const std::uint32_t> take(std::size_t max) {
    if (next_ == end_) refill();
    const std::size_t n = std::min(max, end_ - next_);
    const std::span<const std::uint32_t> words(chunk_.get() + next_, n);
    next_ += n;
    return words;
  }

  std::uint32_t word() { return take(1)[0]; }

 private:
  void refill() {
    constexpr std::size_t kWordBytes = sizeof(std::uint32_t);
    stream_.read(reinterpret_cast<char*>(chunk_.get()),
                 static_cast<std::streamsize>(chunk_words_ * kWordBytes));
    next_ = 0;
    end_ = static_cast<std::size_t>(stream_.gcount()) / kWordBytes;
    if (end_ == 0) throw std::runtime_error("truncated binary database");
  }

  std::istream& stream_;
  std::size_t chunk_words_;
  std::unique_ptr<std::uint32_t[]> chunk_;
  std::size_t next_ = 0;
  std::size_t end_ = 0;
};

/// The whitespace of the "C" locale, which separates text-format items.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

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

  // Header counts are untrusted, so only the stream's length sizes
  // anything: a stream that can seek sizes the arrays from the bytes it
  // holds, and one that cannot grows them as its bytes arrive. Either way
  // a forged count surfaces as std::runtime_error, never as a large
  // allocation.
  DatabaseBuilder builder;
  std::size_t chunk_words = kChunkWords;
  if (const std::optional<std::uint64_t> left = bytes_left(stream)) {
    if (num_transactions > *left / kRowHeaderBytes) {
      throw std::runtime_error(
          "corrupt binary database: the header claims " +
          std::to_string(num_transactions) + " transactions but " +
          std::to_string(*left) + " bytes follow it");
    }
    builder.reserve(static_cast<std::size_t>(num_transactions),
                    static_cast<std::size_t>(
                        (*left - num_transactions * kRowHeaderBytes) /
                        sizeof(Item)));
    chunk_words = static_cast<std::size_t>(std::clamp<std::uint64_t>(
        *left / sizeof(std::uint32_t), 1, kChunkWords));
  }

  WordReader words(stream, chunk_words);
  try {
    for (std::uint64_t r = 0; r < num_transactions; ++r) {
      const Tid tid = words.word();
      for (std::uint32_t unread = words.word(); unread > 0;) {
        const std::span<const Item> items = words.take(unread);
        builder.append(items);
        unread -= static_cast<std::uint32_t>(items.size());
      }
      builder.end_row(tid);
    }
    return std::move(builder).finish(num_items);
  } catch (const std::invalid_argument& violation) {
    throw std::runtime_error(std::string("corrupt binary database: ") +
                             violation.what());
  }
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
  DatabaseBuilder builder;
  Itemset items;
  Item max_item = 0;
  Tid tid = 0;
  std::string line;
  for (std::size_t line_number = 1; std::getline(stream, line);
       ++line_number) {
    items.clear();
    const char* const end = line.c_str() + line.size();
    for (const char* token = std::find_if_not(line.c_str(), end, is_space);
         token != end; token = std::find_if_not(token, end, is_space)) {
      const char* const token_end = std::find_if(token, end, is_space);
      Item item = 0;
      const auto [stop, error] = std::from_chars(token, token_end, item);
      // The largest Item is no id: num_items = max item + 1 would wrap.
      if (error != std::errc() || stop != token_end ||
          item == std::numeric_limits<Item>::max()) {
        throw std::runtime_error("line " + std::to_string(line_number) +
                                 ": '" + std::string(token, token_end) +
                                 "' is not an item id");
      }
      items.push_back(item);
      token = token_end;
    }
    std::sort(items.begin(), items.end());
    items.erase(std::unique(items.begin(), items.end()), items.end());
    if (items.empty()) continue;
    max_item = std::max(max_item, items.back());
    builder.add(tid++, items);
  }
  const Item num_items =
      std::max<Item>(min_num_items, tid == 0 ? 0 : max_item + 1);
  return std::move(builder).finish(num_items);
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
