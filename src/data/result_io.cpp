#include "data/result_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <stdexcept>

#include "common/check.hpp"

namespace eclat {
namespace {

constexpr char kMagic[8] = {'E', 'C', 'L', 'A', 'T', 'R', 'E', 'S'};

template <typename T>
T read_pod(std::istream& stream) {
  T value{};
  stream.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!stream) throw std::runtime_error("truncated result file");
  return value;
}

/// The ECLATRES encoding of `itemsets`, handed to `put(data, size)` piece
/// by piece, straight from the store's arrays.
template <typename Put>
void encode(const ItemsetStore& itemsets, Put&& put) {
  put(kMagic, sizeof(kMagic));
  const std::uint64_t count = itemsets.size();
  put(&count, sizeof(count));
  const std::span<const std::uint32_t> offsets = itemsets.offsets();
  const Item* const items = itemsets.items().data();
  for (std::size_t i = 0; i < itemsets.size(); ++i) {
    const std::uint32_t length = offsets[i + 1] - offsets[i];
    put(&length, sizeof(length));
    put(items + offsets[i], length * sizeof(Item));
    put(&itemsets.supports()[i], sizeof(Count));
  }
}

}  // namespace

void write_result(const MiningResult& result, std::ostream& stream) {
  encode(result.itemsets, [&](const void* data, std::size_t size) {
    stream.write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(size));
  });
  if (!stream) throw std::runtime_error("failed to write result");
}

MiningResult read_result(std::istream& stream) {
  char magic[8];
  stream.read(magic, sizeof(magic));
  if (!stream || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not an ECLATRES result file");
  }
  MiningResult result;
  const auto count = read_pod<std::uint64_t>(stream);
  // Header counts are untrusted, as in the ECLATHDB reader (data/io.cpp):
  // a forged itemset count or length must never drive a large allocation
  // before the stream has delivered the bytes behind it. Reservations are
  // capped and items are read in capped chunks, so a malformed stream
  // always surfaces as std::runtime_error, never as OOM.
  constexpr std::uint64_t kReserveCap = 4096;
  const auto reserved =
      static_cast<std::size_t>(std::min(count, kReserveCap));
  result.itemsets.reserve(reserved, reserved);
  std::vector<Item> items;
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto length = read_pod<std::uint32_t>(stream);
    items.clear();
    for (std::size_t done = 0; done < length;) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(length - done, kReserveCap));
      items.resize(done + chunk);
      stream.read(reinterpret_cast<char*>(items.data() + done),
                  static_cast<std::streamsize>(chunk * sizeof(Item)));
      if (!stream) throw std::runtime_error("truncated result file");
      done += chunk;
    }
    if (!is_sorted_itemset(items)) {
      throw std::runtime_error("corrupt result file: unsorted itemset");
    }
    result.itemsets.push_back(items, read_pod<Count>(stream));
  }
  result.levels = level_stats(result);
  return result;
}

std::vector<std::uint8_t> result_to_bytes(const ItemsetStore& itemsets) {
  std::vector<std::uint8_t> bytes(
      sizeof(kMagic) + sizeof(std::uint64_t) +
      itemsets.size() * (sizeof(std::uint32_t) + sizeof(Count)) +
      itemsets.item_count() * sizeof(Item));
  std::uint8_t* out = bytes.data();
  encode(itemsets, [&](const void* data, std::size_t size) {
    if (size == 0) return;  // an empty itemset's items may be null
    // The vector is sized from the same store the encoding walks.
    ECLAT_DCHECK(size <= static_cast<std::size_t>(
                             bytes.data() + bytes.size() - out));
    std::memcpy(out, data, size);
    out += size;
  });
  return bytes;
}

MiningResult result_from_bytes(const std::vector<std::uint8_t>& bytes) {
  std::istringstream stream(std::string(bytes.begin(), bytes.end()),
                            std::ios::binary);
  return read_result(stream);
}

void write_result_file(const MiningResult& result, const std::string& path) {
  std::ofstream stream(path, std::ios::binary);
  if (!stream) throw std::runtime_error("cannot open for write: " + path);
  write_result(result, stream);
}

MiningResult read_result_file(const std::string& path) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) throw std::runtime_error("cannot open for read: " + path);
  return read_result(stream);
}

void write_result_text(const MiningResult& result, std::ostream& stream) {
  for (const ItemsetView f : result.itemsets) {
    for (std::size_t i = 0; i < f.items.size(); ++i) {
      if (i != 0) stream << ' ';
      stream << f.items[i];
    }
    stream << " #SUP: " << f.support << '\n';
  }
}

MiningResult read_result_text(std::istream& stream) {
  MiningResult result;
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    const auto marker = line.find("#SUP:");
    if (marker == std::string::npos) {
      throw std::runtime_error("missing #SUP: marker: " + line);
    }
    Itemset items;
    std::istringstream fields(line.substr(0, marker));
    Item item = 0;
    while (fields >> item) items.push_back(item);
    std::sort(items.begin(), items.end());
    std::istringstream support_field(line.substr(marker + 5));
    Count support = 0;
    if (!(support_field >> support)) {
      throw std::runtime_error("bad support value: " + line);
    }
    result.itemsets.push_back(items, support);
  }
  normalize(result);
  result.levels = level_stats(result);
  return result;
}

}  // namespace eclat
