#include "data/result_io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace eclat {
namespace {

constexpr char kMagic[8] = {'E', 'C', 'L', 'A', 'T', 'R', 'E', 'S'};

template <typename T>
void write_pod(std::ostream& stream, const T& value) {
  // eclat-lint: allow(contract-cast) writes sizeof(T) bytes of a live POD to the stream; no untrusted length involved
  stream.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& stream) {
  T value{};
  stream.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!stream) throw std::runtime_error("truncated result file");
  return value;
}

}  // namespace

void write_result(const MiningResult& result, std::ostream& stream) {
  stream.write(kMagic, sizeof(kMagic));
  write_pod<std::uint64_t>(stream, result.itemsets.size());
  for (const FrequentItemset& f : result.itemsets) {
    write_pod<std::uint32_t>(stream,
                             static_cast<std::uint32_t>(f.items.size()));
    stream.write(reinterpret_cast<const char*>(f.items.data()),
                 static_cast<std::streamsize>(f.items.size() * sizeof(Item)));
    write_pod<Count>(stream, f.support);
  }
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
  result.itemsets.reserve(
      static_cast<std::size_t>(std::min(count, kReserveCap)));
  for (std::uint64_t i = 0; i < count; ++i) {
    FrequentItemset f;
    const auto length = read_pod<std::uint32_t>(stream);
    for (std::size_t done = 0; done < length;) {
      const std::size_t chunk = static_cast<std::size_t>(
          std::min<std::uint64_t>(length - done, kReserveCap));
      f.items.resize(done + chunk);
      stream.read(reinterpret_cast<char*>(f.items.data() + done),
                  static_cast<std::streamsize>(chunk * sizeof(Item)));
      if (!stream) throw std::runtime_error("truncated result file");
      done += chunk;
    }
    if (!is_sorted_itemset(f.items)) {
      throw std::runtime_error("corrupt result file: unsorted itemset");
    }
    f.support = read_pod<Count>(stream);
    result.itemsets.push_back(std::move(f));
  }
  result.levels = level_stats(result);
  return result;
}

std::vector<std::uint8_t> result_to_bytes(const MiningResult& result) {
  std::ostringstream stream(std::ios::binary);
  write_result(result, stream);
  const std::string text = stream.str();
  return {text.begin(), text.end()};
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
  for (const FrequentItemset& f : result.itemsets) {
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
    FrequentItemset f;
    std::istringstream items(line.substr(0, marker));
    Item item;
    while (items >> item) f.items.push_back(item);
    std::sort(f.items.begin(), f.items.end());
    std::istringstream support(line.substr(marker + 5));
    if (!(support >> f.support)) {
      throw std::runtime_error("bad support value: " + line);
    }
    result.itemsets.push_back(std::move(f));
  }
  normalize(result);
  result.levels = level_stats(result);
  return result;
}

}  // namespace eclat
