// Persistence for mining results, so a long mining run can be stored and
// post-processed (rule generation, diffing, plotting) without re-mining.
//
// Binary format ("ECLATRES"):
//   magic              8 bytes
//   num_itemsets       u64
//   repeated: item_count u32, items u32*, support u64
//
// Text format: the SPMF convention — items space-separated, then
// " #SUP: <count>" — interoperable with other mining tool chains.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/result.hpp"

namespace eclat {

void write_result(const MiningResult& result, std::ostream& stream);
MiningResult read_result(std::istream& stream);

/// In-memory forms of the binary format, for checkpointing partial results
/// through the simulated cluster's disks and recovery store. Only the
/// itemsets are encoded, so a class's store checkpoints as it is.
std::vector<std::uint8_t> result_to_bytes(const ItemsetStore& itemsets);
inline std::vector<std::uint8_t> result_to_bytes(const MiningResult& result) {
  return result_to_bytes(result.itemsets);
}
MiningResult result_from_bytes(const std::vector<std::uint8_t>& bytes);

void write_result_file(const MiningResult& result, const std::string& path);
MiningResult read_result_file(const std::string& path);

/// SPMF-style text ("1 5 9 #SUP: 42" per line).
void write_result_text(const MiningResult& result, std::ostream& stream);
MiningResult read_result_text(std::istream& stream);

}  // namespace eclat
