#include "eclat/external_transform.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace eclat {
namespace {

constexpr char kMagic[8] = {'E', 'C', 'L', 'A', 'T', 'V', 'D', 'B'};

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("truncated vertical database");
  return value;
}

}  // namespace

ExternalTransformStats external_transform(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs, const std::vector<Count>& pair_counts,
    std::ostream& out, const ExternalTransformConfig& config) {
  if (pairs.size() != pair_counts.size()) {
    throw std::invalid_argument("pairs/pair_counts size mismatch");
  }
  ExternalTransformStats stats;

  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint64_t>(out, pairs.size());

  // Plan groups: walk the pairs in order, packing until the budget is
  // reached. A single list larger than the budget gets a group of its own
  // (the hard floor on memory).
  std::size_t begin = 0;
  while (begin < pairs.size()) {
    std::size_t end = begin;
    std::size_t group_bytes = 0;
    while (end < pairs.size()) {
      const std::size_t list_bytes = pair_counts[end] * sizeof(Tid);
      if (end > begin && group_bytes + list_bytes > config.memory_budget) {
        break;
      }
      group_bytes += list_bytes;
      ++end;
    }
    stats.peak_memory_bytes = std::max(stats.peak_memory_bytes, group_bytes);

    // One horizontal pass collecting only this group's tid-lists.
    const std::vector<TidList> lists =
        PairSlots(std::span(pairs).subspan(begin, end - begin))
            .invert(transactions);
    ++stats.passes;

    for (std::size_t i = begin; i < end; ++i) {
      const TidList& list = lists[i - begin];
      write_pod<std::uint64_t>(out, pairs[i]);
      write_pod<std::uint64_t>(out, list.size());
      out.write(reinterpret_cast<const char*>(list.data()),
                static_cast<std::streamsize>(list.size() * sizeof(Tid)));
      ++stats.pairs_written;
      stats.tids_written += list.size();
    }
    begin = end;
  }
  if (!out) throw std::runtime_error("failed to write vertical database");
  return stats;
}

ExternalTransformStats external_transform_file(
    std::span<const Transaction> transactions,
    const std::vector<PairKey>& pairs, const std::vector<Count>& pair_counts,
    const std::string& path, const ExternalTransformConfig& config) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  return external_transform(transactions, pairs, pair_counts, out, config);
}

std::vector<std::pair<PairKey, TidList>> read_vertical(std::istream& in) {
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not an ECLATVDB vertical database");
  }
  const auto num_pairs = read_pod<std::uint64_t>(in);
  std::vector<std::pair<PairKey, TidList>> lists;
  lists.reserve(num_pairs);
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    const auto key = read_pod<PairKey>(in);
    const auto count = read_pod<std::uint64_t>(in);
    TidList tids(count);
    in.read(reinterpret_cast<char*>(tids.data()),
            static_cast<std::streamsize>(count * sizeof(Tid)));
    if (!in) throw std::runtime_error("truncated vertical database");
    lists.emplace_back(key, std::move(tids));
  }
  return lists;
}

std::vector<std::pair<PairKey, TidList>> read_vertical_file(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return read_vertical(in);
}

}  // namespace eclat
